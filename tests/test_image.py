import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import semcom.image
from semcom.errors import DomainError, ParseError, SemcomError, ShapeError, TruncatedError
from semcom.image import (
    BINARY,
    LABELS,
    SOFT,
    Resolution,
    SemanticMap,
    bilinear_upscale,
    box_downscale,
    downscaled_resolution,
    quantize_levels,
    read_pgm,
    restore_kind,
    write_pgm,
)

from _fixtures import traced_peak
from _reference import (
    legacy_bilinear_upscale,
    reference_bilinear_upscale,
    reference_box_downscale,
    reference_on_label_grid,
    reference_validate,
)


def map_verdict(build, pixels, kind, levels):
    """The array ``build`` keeps as bytes, or the type and message of the error it raises."""
    try:
        kept = build(pixels, kind=kind, levels=levels)
    except SemcomError as exc:
        return type(exc), str(exc)
    return getattr(kept, "pixels", kept).tobytes()


def put(values, flat_index, value):
    out = values.copy()
    out.reshape(-1)[flat_index] = value
    return out


# A 4 x 7 map; its first value lies in the checks' first band and its last
# value in their last band, whatever the band size.
_SOFT = np.random.default_rng(47).random((4, 7))
_BINARY = (_SOFT > 0.5).astype(np.float64)
_LABELS = np.floor(_SOFT * 3) / 2
_CHECK_CASES = {
    "soft": (_SOFT, SOFT, None),
    "binary": (_BINARY, BINARY, None),
    "labels": (_LABELS, LABELS, 3),
    "negative-zero": (put(_BINARY, -1, -0.0), BINARY, None),
    "nan-first": (put(_SOFT, 0, np.nan), SOFT, None),
    "nan-last": (put(_SOFT, -1, np.nan), SOFT, None),
    "inf-last": (put(_SOFT, -1, np.inf), SOFT, None),
    "minus-inf-first": (put(_SOFT, 0, -np.inf), SOFT, None),
    "above-first": (put(_SOFT, 0, 1.5), SOFT, None),
    "below-last": (put(_SOFT, -1, -0.25), SOFT, None),
    "nan-last-after-out-of-range-first": (put(put(_SOFT, 0, 2.0), -1, np.nan), SOFT, None),
    "out-of-range-last-after-off-grid-first": (put(put(_LABELS, 0, 0.3), -1, 1.25), LABELS, 3),
    "unknown-kind": (_SOFT, "edges", None),
    "unknown-kind-nan-last": (put(_SOFT, -1, np.nan), "edges", None),
    "unknown-kind-out-of-range-last": (put(_SOFT, -1, 7.0), "edges", None),
    "binary-off-first": (put(_BINARY, 0, 0.5), BINARY, None),
    "binary-off-last": (put(_BINARY, -1, 0.5), BINARY, None),
    "labels-off-grid-first": (put(_LABELS, 0, 0.3), LABELS, 3),
    "labels-off-grid-last": (put(_LABELS, -1, 0.5 + 2e-9), LABELS, 3),
    "labels-within-tolerance-last": (put(_LABELS, -1, 0.5 + 4e-10), LABELS, 3),
    "labels-without-levels": (_LABELS, LABELS, None),
    "labels-one-level": (_LABELS, LABELS, 1),
    "labels-without-levels-nan-last": (put(_LABELS, -1, np.nan), LABELS, None),
    "labels-many-levels": (_LABELS, LABELS, 10**6 + 1),
    "soft-with-levels": (_SOFT, SOFT, 3),
    "binary-with-levels-off-last": (put(_BINARY, -1, 0.5), BINARY, 3),
    "one-dimensional": (_SOFT[0], SOFT, None),
}


@pytest.mark.parametrize("band", [1, 5, 27, 28, 1 << 15])
@pytest.mark.parametrize("case", sorted(_CHECK_CASES))
def test_map_checks_give_the_whole_array_verdicts_across_band_edges(monkeypatch, band, case):
    # Same kept bytes, or the same error type and message, as the checks on the whole array.
    monkeypatch.setattr(semcom.image, "_CHECK_BAND", band)
    pixels, kind, levels = _CHECK_CASES[case]
    assert map_verdict(SemanticMap, pixels, kind, levels) == map_verdict(reference_validate, pixels, kind, levels)


def test_building_a_labels_map_peaks_under_one_and_a_half_arrays_of_its_size():
    # The defensive copy is the one image-sized buffer; the grid check's
    # band buffers add 0.5 MB.
    pixels = np.floor(np.random.default_rng(3).random((1024, 1024)) * 4) / 3
    assert traced_peak(lambda: SemanticMap(pixels, kind=LABELS, levels=4)) < 1.5 * pixels.nbytes


def test_map_invariants_enforced():
    with pytest.raises(DomainError):
        SemanticMap([[0.0, 1.5]])
    with pytest.raises(ShapeError):
        SemanticMap(np.zeros((0, 3)))
    with pytest.raises(DomainError):
        SemanticMap([[0.0, 0.5]], kind=BINARY)
    with pytest.raises(DomainError):
        SemanticMap([[0.0, 0.4]], kind=LABELS, levels=3)
    # valid 3-level grid {0, 0.5, 1}
    m = SemanticMap([[0.0, 0.5, 1.0]], kind=LABELS, levels=3)
    assert m.width == 3 and m.height == 1


def test_pixels_are_immutable():
    m = SemanticMap([[0.0, 1.0]])
    with pytest.raises(ValueError):
        m.pixels[0, 0] = 0.5


def test_read_pgm_2x2(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 255, 0]))
    m = read_pgm(path)
    assert m.kind == "soft"
    assert np.array_equal(m.pixels, [[0.0, 1.0], [1.0, 0.0]])


def test_read_pgm_rejects_p2(tmp_path):
    p = tmp_path / "ascii.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(ParseError):
        read_pgm(p)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P5\n0 2\n255\n", "bad dimensions 0x2 (byte offset 2)"),
        (b"P5\n2 0\n255\n", "bad dimensions 2x0 (byte offset 2)"),
        (b"P5\n2 2\n0\n" + bytes(4), "maxval 0 out of range 1..65535 (byte offset 8)"),
        (b"P5\n2 2\n65536\n" + bytes(8), "maxval 65536 out of range 1..65535 (byte offset 12)"),
        (b"P5\n# no newline ends this comment", "unterminated comment in header (byte offset 3)"),
    ],
    ids=["width-0", "height-0", "maxval-0", "maxval-65536", "unterminated-comment"],
)
def test_read_pgm_rejects_a_malformed_header(tmp_path, data, message):
    p = tmp_path / "bad.pgm"
    p.write_bytes(data)
    with pytest.raises(ParseError, match=re.escape(message)):
        read_pgm(p)


def test_read_pgm_truncated(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(8))
    with pytest.raises(TruncatedError):
        read_pgm(p)


@pytest.mark.parametrize("maxval, short", [(255, 3), (65535, 7)])
def test_read_pgm_counts_the_payload_after_the_header(tmp_path, maxval, short):
    header = f"P5\n2 2\n{maxval}\n".encode()
    sample_bytes = 2 if maxval > 255 else 1
    body = bytes(range(1, 4 * sample_bytes + 1))
    p = tmp_path / "img.pgm"
    # trailing bytes past the declared pixels are ignored
    p.write_bytes(header + body + b"trailing")
    expected = np.frombuffer(body, dtype=">u2" if sample_bytes == 2 else np.uint8) / maxval
    assert np.array_equal(read_pgm(p).pixels, expected.reshape(2, 2))
    p.write_bytes(header + body[:short])
    with pytest.raises(TruncatedError, match=f"payload has {short} bytes, header 2x2 \\(maxval {maxval}\\) needs {4 * sample_bytes}"):
        read_pgm(p)


def test_read_pgm_comment_and_16bit(tmp_path):
    p = tmp_path / "wide.pgm"
    # maxval 65535 -> two big-endian bytes per sample
    p.write_bytes(b"P5\n# a comment\n2 1\n65535\n" + bytes([0, 0, 255, 255]))
    m = read_pgm(p)
    assert np.allclose(m.pixels, [[0.0, 1.0]])


@pytest.mark.parametrize("maxval", [1, 7, 100, 254, 255, 65535])
def test_read_pgm_scales_samples_like_a_float_conversion(tmp_path, maxval):
    samples = np.arange(maxval + 1, dtype=np.uint16 if maxval > 255 else np.uint8)
    body = samples.astype(">u2").tobytes() if maxval > 255 else samples.tobytes()
    p = tmp_path / "ramp.pgm"
    p.write_bytes(f"P5\n{samples.size} 1\n{maxval}\n".encode() + body)
    expected = samples.astype(np.float64) / maxval
    assert np.array_equal(read_pgm(p).pixels.view(np.int64), expected.view(np.int64)[None, :])


def test_write_pgm_roundtrip_quantization(tmp_path):
    p = tmp_path / "half.pgm"
    m = SemanticMap(np.full((4, 4), 0.5))
    write_pgm(m, p)
    payload = p.read_bytes().split(b"\n", 3)[3]
    assert len(payload) == 16
    assert set(payload) <= {127, 128}
    back = read_pgm(p)
    assert np.max(np.abs(back.pixels - m.pixels)) <= 1.0 / 255.0


def test_write_pgm_binary_endpoints(tmp_path):
    p = tmp_path / "bin.pgm"
    m = SemanticMap([[0.0, 1.0], [1.0, 0.0]], kind=BINARY)
    write_pgm(m, p)
    payload = p.read_bytes().split(b"\n", 3)[3]
    assert set(payload) == {0, 255}


def test_write_pgm_1x1_one(tmp_path):
    p = tmp_path / "one.pgm"
    write_pgm(SemanticMap([[1.0]]), p)
    assert p.read_bytes().endswith(bytes([255]))


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_pgm_roundtrip_bound(w, h, seed):
    rng = np.random.default_rng(seed)
    m = SemanticMap(rng.random((h, w)))
    path = "/tmp/test_pgm_roundtrip.pgm"
    write_pgm(m, path)
    back = read_pgm(path)
    assert back.width == w and back.height == h
    assert np.max(np.abs(back.pixels - m.pixels)) <= 1.0 / 255.0


def test_box_downscale_2x2_mean():
    m = SemanticMap([[0.0, 1.0], [1.0, 0.0]])
    out = box_downscale(m, 2)
    assert out.pixels.shape == (1, 1)
    assert out.pixels[0, 0] == 0.5


def test_box_downscale_identity():
    m = SemanticMap(np.random.default_rng(3).random((5, 7)))
    out = box_downscale(m, 1)
    assert np.array_equal(out.pixels, m.pixels)


def test_box_downscale_partial_blocks_of_ones():
    m = SemanticMap(np.ones((3, 3)))
    out = box_downscale(m, 2)
    assert out.pixels.shape == (2, 2)
    assert np.array_equal(out.pixels, np.ones((2, 2)))


def test_box_downscale_partial_blocks_hand_values():
    # 3x3 of 0.1..0.9; blocks at d=2: means over present pixels only
    vals = np.arange(1, 10).reshape(3, 3) / 10.0
    out = box_downscale(SemanticMap(vals), 2)
    expected = [[0.3, 0.45], [0.75, 0.9]]
    assert np.allclose(out.pixels, expected, atol=1e-15)


def test_box_downscale_rejects_zero():
    with pytest.raises(DomainError):
        box_downscale(SemanticMap([[0.5]]), 0)


def test_downscaled_resolution_rejects_a_factor_below_one():
    with pytest.raises(DomainError, match=re.escape("downscale factor must be >= 1, got 0")):
        downscaled_resolution(4, 4, 0)


def test_a_resolution_below_1x1_is_a_domain_error():
    with pytest.raises(DomainError, match=re.escape("resolution must be at least 1x1, got 0x1")):
        Resolution(0, 1)


def test_box_downscale_kind_becomes_soft():
    m = SemanticMap([[0.0, 1.0]], kind=BINARY)
    assert box_downscale(m, 2).kind == "soft"


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 200), (97, 131), (1000, 1023), (1024, 1024)])
def test_box_downscale_bits_equal_reduceat(shape):
    # Raw bytes, not ==, so that a sign of zero or a last-bit difference shows.
    rng = np.random.default_rng(shape[0] * 7919 + shape[1])
    maps = [SemanticMap(rng.random(shape)), SemanticMap(np.full(shape, -0.0))]
    for m in maps:
        for d in range(1, 18):
            assert box_downscale(m, d).pixels.tobytes() == reference_box_downscale(m, d).pixels.tobytes(), d


@pytest.mark.parametrize("d", [129, 130, 137, 300])
def test_box_downscale_bits_equal_reduceat_beyond_128_terms(d):
    # Blocks of more than 129 pixels take numpy's split of the pairwise sum.
    m = SemanticMap(np.random.default_rng(d).random((301, 2 * d + 5)))
    assert box_downscale(m, d).pixels.tobytes() == reference_box_downscale(m, d).pixels.tobytes()


@pytest.mark.parametrize("d", [2, 3, 10])
def test_box_downscale_peaks_no_higher_than_reduceat(d):
    m = SemanticMap(np.random.default_rng(d).random((1024, 1024)))
    assert traced_peak(box_downscale, m, d) <= traced_peak(reference_box_downscale, m, d)


def test_bilinear_constant_is_exact():
    m = SemanticMap(np.full((2, 3), 0.3))
    out = bilinear_upscale(m, Resolution(7, 5))
    assert np.all(out.pixels == 0.3)


def test_bilinear_same_resolution_identity():
    m = SemanticMap(np.random.default_rng(9).random((4, 6)))
    out = bilinear_upscale(m, Resolution(6, 4))
    assert np.array_equal(out.pixels, m.pixels)


def test_bilinear_1x2_to_1x3():
    m = SemanticMap([[0.0, 1.0]])
    out = bilinear_upscale(m, Resolution(3, 1))
    assert np.array_equal(out.pixels, [[0.0, 0.5, 1.0]])


def test_bilinear_from_1x1():
    m = SemanticMap([[0.7]])
    out = bilinear_upscale(m, Resolution(4, 3))
    assert np.all(out.pixels == 0.7)


@pytest.mark.parametrize(
    "shape, target",
    [((1, 6), (3, 11)), ((6, 1), (13, 2)), ((1, 1), (5, 7)), ((5, 8), (11, 13)), ((6, 4), (6, 4)), ((9, 13), (4, 5))],
    ids=["1xn", "nx1", "1x1", "non-square", "same-size", "shrink"],
)
def test_bilinear_equals_literal_loop_exactly(shape, target):
    m = SemanticMap(np.random.default_rng(sum(shape)).random(shape))
    out = bilinear_upscale(m, Resolution(target[1], target[0]))
    assert out.kind == "soft"
    assert np.array_equal(out.pixels, reference_bilinear_upscale(m.pixels, target[1], target[0]))


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("w, tw", [(1, 2), (6, 11), (13, 5), (4, 4)], ids=["nx1", "widen", "narrow", "same-width"])
def test_bilinear_bits_equal_literal_loop_across_band_edges(monkeypatch, rows, w, tw):
    # Source and target heights of one row, a band less or more one row, one
    # band, and two bands and a row: both passes cross band edges, and 1 x n
    # sources, shrinking and same-size targets are among the cases.
    monkeypatch.setattr(semcom.image, "_UPSCALE_BAND", rows * tw)
    heights = sorted({n for n in (1, rows - 1, rows, rows + 1, 2 * rows + 1) if n >= 1})
    rng = np.random.default_rng(100 * rows + w)
    for h in heights:
        m = SemanticMap(rng.random((h, w)))
        for th in heights:
            out = bilinear_upscale(m, Resolution(tw, th))
            assert out.pixels.tobytes() == reference_bilinear_upscale(m.pixels, tw, th).tobytes()


@pytest.mark.parametrize("size", [103, 512])
def test_bilinear_bits_equal_first_vectorised_form_at_1024(size):
    m = SemanticMap(np.random.default_rng(size).random((size, size)))
    target = Resolution(1024, 1024)
    assert bilinear_upscale(m, target).pixels.tobytes() == legacy_bilinear_upscale(m, target).pixels.tobytes()


def test_bilinear_upscale_peaks_under_its_first_vectorised_form():
    m = SemanticMap(np.random.default_rng(5).random((512, 512)))
    target = Resolution(1024, 1024)
    assert traced_peak(bilinear_upscale, m, target) < traced_peak(legacy_bilinear_upscale, m, target)


def test_bilinear_same_resolution_of_binary_map_is_soft():
    m = SemanticMap([[0.0, 1.0], [1.0, 1.0]], kind=BINARY)
    out = bilinear_upscale(m, m.resolution)
    assert out.kind == "soft"
    assert np.array_equal(out.pixels, m.pixels)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_range_preserved_by_resampling(w, h, d, seed):
    rng = np.random.default_rng(seed)
    m = SemanticMap(rng.random((h, w)))
    down = box_downscale(m, d)
    up = bilinear_upscale(down, Resolution(w + 3, h + 2))
    for out in (down, up):
        assert out.pixels.min() >= 0.0
        assert out.pixels.max() <= 1.0


def test_roundtrip_at_d1_exact():
    rng = np.random.default_rng(11)
    m = SemanticMap(rng.random((9, 13)))
    out = bilinear_upscale(box_downscale(m, 1), m.resolution)
    assert np.array_equal(out.pixels, m.pixels)


def test_mean_preserved_when_d_divides():
    rng = np.random.default_rng(17)
    m = SemanticMap(rng.random((12, 8)))
    out = box_downscale(m, 4)
    assert abs(out.pixels.mean() - m.pixels.mean()) < 1e-12


def test_downscaled_resolution_matches_op():
    rng = np.random.default_rng(29)
    for w, h, d in [(10, 10, 3), (512, 512, 4), (7, 5, 2), (1, 1, 10)]:
        m = SemanticMap(rng.random((h, w)))
        out = box_downscale(m, d)
        res = downscaled_resolution(w, h, d)
        assert (out.width, out.height) == (res.width, res.height)


def test_quantize_levels_bins():
    bins = quantize_levels(np.array([0.0, 0.3, 0.6, 0.99, 1.0]), 4)
    assert list(bins) == [0, 1, 2, 3, 3]


def test_restore_kind_binary_and_labels():
    raw = np.array([[0.2, 0.5, 0.9]])
    b = restore_kind(raw, BINARY, None)
    assert b.kind == BINARY
    assert np.array_equal(b.pixels, [[0.0, 1.0, 1.0]])
    l = restore_kind(raw, LABELS, 3)
    assert l.kind == LABELS and l.levels == 3
    assert np.array_equal(l.pixels, [[0.0, 0.5, 1.0]])


@pytest.mark.parametrize("k", [2, 3, 4, 8, 255])
def test_labels_restore_bits_equal_quantized_levels(k):
    edges = np.arange(k + 1) / k
    rng = np.random.default_rng(k)
    pixels = np.concatenate([[0.0, 1.0, 1.0 - 1e-10], edges, np.nextafter(edges, 0.0), rng.random(200)])[None, :]
    restored = restore_kind(pixels, LABELS, k)
    expected = quantize_levels(pixels, k) / (k - 1)
    assert np.array_equal(restored.pixels.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("k", [2, 3, 4, 8, 255])
@pytest.mark.parametrize("offset, on_grid", [(0.0, True), (0.9e-9, True), (2e-9, False)])
def test_label_grid_verdicts_match_first_formula(k, offset, on_grid):
    grid = np.arange(k, dtype=np.float64)
    # nudge each level towards the inside of [0, k - 1] by `offset` grid units
    scaled = np.where(grid < k - 1, grid + offset, grid - offset)
    pixels = (scaled / (k - 1))[None, :]
    assert reference_on_label_grid(pixels, k) is on_grid
    try:
        SemanticMap(pixels, kind=LABELS, levels=k)
        accepted = True
    except DomainError:
        accepted = False
    assert accepted is on_grid
