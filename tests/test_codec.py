import re

import numpy as np
import pytest

from semcom.codec import (
    EncodedPayload,
    cost_bytes,
    decode,
    encode,
    encoded_cost,
    parse_payload,
    serialize_payload,
)
from semcom.errors import CorruptPayloadError, DomainError
from semcom.image import BINARY, LABELS, SemanticMap

from _reference import legacy_decode


def test_compression_ratio_16x_at_d4():
    rng = np.random.default_rng(1)
    m = SemanticMap(rng.random((512, 512)))
    p1 = encode(m, 1)
    p4 = encode(m, 4)
    assert len(p1.payload) == 262144
    assert len(p4.payload) == 16384
    assert len(p1.payload) == 16 * len(p4.payload)


def test_identity_payload_size():
    m = SemanticMap(np.zeros((7, 9)))
    assert len(encode(m, 1).payload) == 63


def test_ceil_dims_10x10_d3():
    m = SemanticMap(np.zeros((10, 10)))
    p = encode(m, 3)
    assert (p.enc_width, p.enc_height) == (4, 4)
    assert len(p.payload) == 16


def test_cost_bytes_hand_values():
    rng = np.random.default_rng(2)
    assert cost_bytes(encode(SemanticMap(rng.random((512, 512))), 4)) == 16400
    assert cost_bytes(encode(SemanticMap([[0.5]]), 1)) == 17


def test_cost_non_increasing_in_d():
    m = SemanticMap(np.zeros((37, 23)))
    costs = [cost_bytes(encode(m, d)) for d in range(1, 12)]
    assert all(a >= b for a, b in zip(costs, costs[1:]))


def test_encoded_cost_matches_real_encoding():
    rng = np.random.default_rng(3)
    for w, h, d in [(10, 10, 3), (512, 512, 4), (7, 5, 2), (1, 1, 1), (33, 17, 8)]:
        m = SemanticMap(rng.random((h, w)))
        assert encoded_cost(w, h, d) == cost_bytes(encode(m, d))


def test_decode_encode_d1_within_quantization():
    rng = np.random.default_rng(4)
    m = SemanticMap(rng.random((12, 15)))
    out = decode(encode(m, 1))
    assert np.max(np.abs(out.pixels - m.pixels)) <= 1.0 / 255.0


def test_round_trip_restores_resolution_and_kind():
    rng = np.random.default_rng(5)
    soft = SemanticMap(rng.random((11, 13)))
    binary = SemanticMap((rng.random((11, 13)) > 0.5).astype(float), kind=BINARY)
    labels = SemanticMap(np.floor(rng.random((11, 13)) * 4) / 3, kind=LABELS, levels=4)
    for m, d in [(soft, 3), (binary, 2), (labels, 4)]:
        out = decode(encode(m, d))
        assert (out.width, out.height) == (m.width, m.height)
        assert out.kind == m.kind
        assert out.levels == m.levels


@pytest.mark.parametrize("shape", [(1, 1), (7, 5), (12, 15), (33, 64)])
def test_decode_equals_the_first_restore_path(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    soft = SemanticMap(rng.random(shape))
    binary = SemanticMap((rng.random(shape) > 0.5).astype(float), kind=BINARY)
    labels = SemanticMap(np.floor(rng.random(shape) * 4) / 3, kind=LABELS, levels=4)
    for m in (soft, binary, labels):
        for d in (1, 2, 3, 8):
            payload = encode(m, d)
            out, expected = decode(payload), legacy_decode(payload)
            assert (out.kind, out.levels) == (expected.kind, expected.levels)
            assert np.array_equal(out.pixels.view(np.int64), expected.pixels.view(np.int64))


def test_binary_stays_binary_at_any_d():
    rng = np.random.default_rng(6)
    m = SemanticMap((rng.random((16, 16)) > 0.7).astype(float), kind=BINARY)
    for d in (1, 2, 5, 8):
        out = decode(encode(m, d))
        assert set(np.unique(out.pixels)) <= {0.0, 1.0}


def test_constant_map_round_trip_any_d():
    m = SemanticMap(np.full((9, 14), 0.5))
    for d in (1, 2, 3, 7):
        out = decode(encode(m, d))
        assert np.max(np.abs(out.pixels - 0.5)) <= 1.0 / 255.0


def test_payload_ratio_bound_for_non_dividing_d():
    m = SemanticMap(np.zeros((10, 10)))
    for d in (3, 4, 6, 7):
        p = encode(m, d)
        ratio = 100 / len(p.payload)
        assert ratio <= d * d
        assert d * d <= ratio * (1 + d / 10) * (1 + d / 10)


def test_rejects_bad_factor():
    m = SemanticMap([[0.5]])
    with pytest.raises(DomainError):
        encode(m, 0)


@pytest.mark.parametrize(
    "shape, d, message",
    [
        ((1, 1), 256, "factor 256 exceeds the wire format limit of 255"),
        ((1, 65536), 1, "resolution exceeds the wire format limit of 65535"),
    ],
    ids=["factor-256", "width-65536"],
)
def test_encode_rejects_a_factor_or_width_the_header_cannot_hold(shape, d, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        encode(SemanticMap(np.zeros(shape)), d)


def test_serialization_round_trip_bit_exact():
    rng = np.random.default_rng(7)
    m = SemanticMap(np.floor(rng.random((6, 10)) * 5) / 4, kind=LABELS, levels=5)
    p = encode(m, 3)
    data = serialize_payload(p)
    assert data[:4] == b"SMAP"
    assert len(data) == 16 + len(p.payload)
    q = parse_payload(data)
    assert serialize_payload(q) == data
    assert (q.orig_width, q.orig_height, q.factor, q.kind, q.levels) == (10, 6, 3, LABELS, 5)


def test_parse_rejects_corruption():
    p = encode(SemanticMap(np.zeros((4, 4))), 2)
    good = serialize_payload(p)
    with pytest.raises(CorruptPayloadError):
        parse_payload(b"XXXX" + good[4:])
    with pytest.raises(CorruptPayloadError):
        parse_payload(good[:-1])
    with pytest.raises(CorruptPayloadError):
        parse_payload(good[:10])


@pytest.mark.parametrize("levels", [0, 1])
def test_parse_rejects_labels_payload_with_fewer_than_two_levels(levels):
    good = serialize_payload(encode(SemanticMap(np.zeros((4, 4)), kind=LABELS, levels=3), 2))
    assert parse_payload(good).levels == 3
    with pytest.raises(CorruptPayloadError):
        parse_payload(good[:14] + bytes([levels]) + good[15:])


def test_payload_invariants_checked():
    with pytest.raises(CorruptPayloadError):
        EncodedPayload(4, 4, 2, 2, 2, "soft", None, bytes(3))
    with pytest.raises(CorruptPayloadError):
        EncodedPayload(4, 4, 3, 2, 2, "soft", None, bytes(6))


@pytest.mark.parametrize(
    "dims, factor",
    [((300, 1, 1, 1), 300), ((70000, 1, 70000, 1), 1), ((4, 4, 4, 4), 0), ((0, 4, 0, 4), 1), ((-1, -1, -1, -1), 1)],
    ids=["factor-300", "width-70000", "factor-0", "width-0", "negative-dims"],
)
def test_payload_rejects_a_factor_or_dims_the_header_cannot_hold(dims, factor):
    # serialize_payload used to die in struct.pack on the first two; the others raised DomainError.
    ow, oh, ew, eh = dims
    with pytest.raises(CorruptPayloadError):
        EncodedPayload(ow, oh, ew, eh, factor, "soft", None, bytes(abs(ew * eh)))


@pytest.mark.parametrize("offset", [4, 6, 12], ids=["width", "height", "factor"])
def test_parse_rejects_a_zero_width_height_or_factor(offset):
    good = serialize_payload(encode(SemanticMap(np.zeros((4, 4))), 2))
    size = 1 if offset == 12 else 2
    with pytest.raises(CorruptPayloadError):
        parse_payload(good[:offset] + bytes(size) + good[offset + size :])


@pytest.mark.parametrize(
    "kind, levels",
    [("labels", None), ("labels", 1), ("labels", 256), ("labels", 2.5), ("soft", 300), ("binary", 2), ("edges", None)],
    ids=["labels-without-k", "labels-k1", "labels-k256", "labels-fractional-k", "soft-k300", "binary-k2", "unknown-kind"],
)
def test_payload_rejects_a_kind_or_level_count_the_wire_format_cannot_carry(kind, levels):
    # Each used to fail later: in decode, in serialize_payload, or in parse_payload on the written bytes.
    with pytest.raises(CorruptPayloadError):
        EncodedPayload(4, 4, 2, 2, 2, kind, levels, bytes(4))


@pytest.mark.parametrize("kind, levels", [("soft", None), ("binary", None), ("labels", 2), ("labels", 255)])
def test_payloads_the_wire_format_carries_round_trip(kind, levels):
    payload = EncodedPayload(4, 4, 2, 2, 2, kind, levels, bytes(4))
    back = parse_payload(serialize_payload(payload))
    assert (back.kind, back.levels) == (kind, levels)
