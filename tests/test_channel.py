import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

import semcom.channel
from semcom.channel import _GAP_BATCH, BudgetCheck, ChannelConfig, budget_check, transmit
from semcom.codec import EncodedPayload, cost_bytes, encode
from semcom.errors import DomainError
from semcom.image import SemanticMap
from semcom.rng import stream

from _reference import reference_transmit


def payload_fixture(seed=0, shape=(16, 16), d=2):
    rng = np.random.default_rng(seed)
    return encode(SemanticMap(rng.random(shape)), d)


def test_noiseless_is_lossless():
    p = payload_fixture()
    cfg = ChannelConfig(budget_bytes=10_000, bit_flip_prob=0.0, seed=1)
    out = transmit(p, cfg, stream(cfg.seed, "channel"))
    assert out.delivered.payload == p.payload
    assert out.flipped_bits == 0
    assert out.bytes_used == cost_bytes(p)


def test_p1_inverts_every_bit():
    p = payload_fixture()
    cfg = ChannelConfig(budget_bytes=10_000, bit_flip_prob=1.0, seed=1)
    out = transmit(p, cfg, stream(cfg.seed, "channel"))
    expected = bytes(b ^ 0xFF for b in p.payload)
    assert out.delivered.payload == expected
    assert out.flipped_bits == len(p.payload) * 8


def test_fixed_seed_is_deterministic():
    p = payload_fixture()
    cfg = ChannelConfig(budget_bytes=10_000, bit_flip_prob=0.5, seed=77)
    a = transmit(p, cfg, stream(cfg.seed, "channel"))
    b = transmit(p, cfg, stream(cfg.seed, "channel"))
    assert a.delivered.payload == b.delivered.payload
    assert a.flipped_bits == b.flipped_bits


def test_header_fields_protected():
    p = payload_fixture(d=3)
    cfg = ChannelConfig(budget_bytes=10_000, bit_flip_prob=1.0, seed=2)
    out = transmit(p, cfg, stream(cfg.seed, "channel"))
    d = out.delivered
    assert (d.orig_width, d.orig_height, d.factor, d.kind) == (p.orig_width, p.orig_height, p.factor, p.kind)


def test_flip_count_within_5_sigma():
    p = payload_fixture(shape=(32, 32), d=1)
    prob = 0.01
    cfg = ChannelConfig(budget_bytes=10**9, bit_flip_prob=prob, seed=5)
    bits_per_trial = len(p.payload) * 8
    trials = 1000
    rng = stream(cfg.seed, "channel")
    total = sum(transmit(p, cfg, rng).flipped_bits for _ in range(trials))
    n = trials * bits_per_trial
    sigma = math.sqrt(n * prob * (1 - prob))
    assert abs(total - n * prob) <= 5 * sigma


def test_budget_check():
    cfg = ChannelConfig(budget_bytes=30)
    assert budget_check([10, 20], cfg) == BudgetCheck(feasible=True, total=30)
    assert budget_check([10, 21], cfg) == BudgetCheck(feasible=False, total=31)
    assert budget_check([], cfg) == BudgetCheck(feasible=True, total=0)


def test_config_validation():
    with pytest.raises(DomainError):
        ChannelConfig(budget_bytes=-1)
    with pytest.raises(DomainError):
        ChannelConfig(budget_bytes=0, bit_flip_prob=1.5)


def test_a_negative_seed_is_a_domain_error():
    # numpy seeds a stream from non-negative integers only
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        ChannelConfig(budget_bytes=0, seed=-1)


def test_label_streams_are_independent():
    a = stream(9, "channel").random(4)
    b = stream(9, "gen").random(4)
    c = stream(9, "channel").random(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def raw_payload(n, seed=0):
    """An n-byte soft payload of random bytes at d = 1, in the fewest rows of at most 65,535 pixels."""
    body = np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()
    rows = next(h for h in range(1, n + 1) if n % h == 0 and n // h <= 65535)
    return EncodedPayload(n // rows, rows, n // rows, rows, 1, "soft", None, body)


# (gaps per batch, payload bytes): the shipped batch, with payloads of one
# byte, one batch of bits at p = 1, one byte more and several batches; then
# small batches whose payloads end exactly at a batch edge at p = 1 (8 bits
# in a batch of 8, 56 in one of 7), one bit past it (8 in 7, 16 in 15), or
# span many batches of one gap.
BATCHES = [
    (_GAP_BATCH, 1),
    (_GAP_BATCH, _GAP_BATCH // 8),
    (_GAP_BATCH, _GAP_BATCH // 8 + 1),
    (_GAP_BATCH, 3 * _GAP_BATCH // 8 + 5),
    (8, 1),
    (8, 3),
    (7, 7),
    (7, 1),
    (15, 2),
    (1, 5),
]


@pytest.mark.parametrize("batch, n", BATCHES)
@pytest.mark.parametrize("p", [0.0, 1e-300, 1e-4, 0.3, 0.5, 1.0])
def test_gap_batches_equal_the_literal_gap_loop(monkeypatch, batch, n, p):
    monkeypatch.setattr(semcom.channel, "_GAP_BATCH", batch)
    payload = raw_payload(n, seed=n)
    rng, ref_rng = stream(13, "channel"), stream(13, "channel")
    out = transmit(payload, ChannelConfig(budget_bytes=10**9, bit_flip_prob=p), rng)
    delivered, flipped = reference_transmit(payload, p, ref_rng)
    assert out.delivered.payload == delivered
    assert out.flipped_bits == flipped
    assert rng.random() == ref_rng.random()
    if p in (0.0, 1e-300):
        # numpy draws 2**63 - 1 for every gap at p = 1e-300, which ends the run at once
        assert (delivered, flipped) == (payload.payload, 0)
    if p == 1.0:
        assert (delivered, flipped) == (bytes(b ^ 0xFF for b in payload.payload), 8 * n)


# Each test below rejects a correct channel with probability ALPHA.
ALPHA = 1e-3


@pytest.mark.parametrize("p", [1e-3, 0.01, 0.3])
def test_flips_fit_a_binomial_count_at_uniform_positions_and_offsets(p):
    # Transmits of one payload of zeros, so each delivered 1 bit is a flip.
    n, trials = 1000, 200 if p < 0.3 else 20
    payload = EncodedPayload(n, 1, n, 1, 1, "soft", None, bytes(n))
    rng = stream(2024, "channel")
    cfg = ChannelConfig(budget_bytes=10**9, bit_flip_prob=p)
    hits = np.zeros(8 * n, np.int64)
    total = 0
    for _ in range(trials):
        out = transmit(payload, cfg, rng)
        bits = np.unpackbits(np.frombuffer(out.delivered.payload, np.uint8))
        assert out.flipped_bits == int(bits.sum())
        hits += bits
        total += out.flipped_bits
    assert scipy.stats.binomtest(total, 8 * n * trials, p).pvalue > ALPHA
    # Positions pooled into 50 equal bins of 160 bits; offsets within a byte into 8.
    for counts in (hits.reshape(50, -1).sum(axis=1), hits.reshape(-1, 8).sum(axis=0)):
        assert scipy.stats.chisquare(counts).pvalue > ALPHA


GOLDEN_FLIPS = 29
GOLDEN_SHA256 = "9a543c6d44fa9105c59de3e44d7062f648b600eca2c58608d7e7c3ac143646c8"


def test_a_fixed_seed_transmit_keeps_its_bytes():
    # Pins numpy's Generator.geometric: a numpy release that changes its
    # draws changes every noisy payload, and fails here by name.
    payload = raw_payload(4096, seed=4)
    out = transmit(payload, ChannelConfig(budget_bytes=10**9, bit_flip_prob=1e-3), stream(3, "channel"))
    assert out.flipped_bits == GOLDEN_FLIPS
    assert hashlib.sha256(out.delivered.payload).hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("p", [1e-4, 0.5, 1.0])
def test_transmit_of_a_mebibyte_peaks_under_8_mib(p):
    payload = raw_payload(1 << 20)
    cfg = ChannelConfig(budget_bytes=10**9, bit_flip_prob=p)
    rng = stream(5, "channel")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        transmit(payload, cfg, rng)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
