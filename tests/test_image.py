import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semcom.errors import DomainError, ParseError, ShapeError, TruncatedError
from semcom.image import (
    BINARY,
    LABELS,
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

from _reference import reference_bilinear_upscale, reference_on_label_grid


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


def test_read_pgm_truncated(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(8))
    with pytest.raises(TruncatedError):
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


def test_box_downscale_kind_becomes_soft():
    m = SemanticMap([[0.0, 1.0]], kind=BINARY)
    assert box_downscale(m, 2).kind == "soft"


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
