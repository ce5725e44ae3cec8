import math
import tracemalloc

import numpy as np
import pytest

from semcom.channel import _BLOCK_BYTES, BudgetCheck, ChannelConfig, budget_check, transmit
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


@pytest.mark.parametrize("n", [1, _BLOCK_BYTES - 1, _BLOCK_BYTES, _BLOCK_BYTES + 1, 3 * _BLOCK_BYTES + 5])
@pytest.mark.parametrize("p", [0.0, 1e-4, 0.5, 1.0])
def test_blocked_draws_equal_one_draw(n, p):
    payload = raw_payload(n, seed=n)
    rng, ref_rng = stream(13, "channel"), stream(13, "channel")
    out = transmit(payload, ChannelConfig(budget_bytes=10**9, bit_flip_prob=p), rng)
    delivered, flipped = reference_transmit(payload, p, ref_rng)
    assert out.delivered.payload == delivered
    assert out.flipped_bits == flipped
    assert rng.random() == ref_rng.random()


def test_transmit_of_a_mebibyte_peaks_under_8_mib():
    payload = raw_payload(1 << 20)
    cfg = ChannelConfig(budget_bytes=10**9, bit_flip_prob=1e-4)
    rng = stream(5, "channel")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        transmit(payload, cfg, rng)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
