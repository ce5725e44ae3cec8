import math
import re

import numpy as np
import pytest

import semcom.extractors
from semcom.errors import DomainError, MissingMapError
from semcom.extractors import (
    Canny,
    ExternalMap,
    QuantizeSegmentation,
    SobelMagnitude,
    canny,
    extract,
    extractor_label,
    external_map,
    quantize_segmentation,
    sobel_magnitude,
)
from semcom.image import BINARY, LABELS, SemanticMap, restore_kind, write_pgm

from semcom.extractors import _gradient_bands

from _fixtures import traced_peak
from _reference import (
    legacy_canny,
    legacy_sobel_magnitude,
    reference_canny,
    reference_separable_blur,
    reference_sobel_gradients,
)


def step_image(w=16, h=16):
    arr = np.zeros((h, w))
    arr[:, w // 2 :] = 1.0
    return SemanticMap(arr)


def square_image(size=32, side=10):
    arr = np.zeros((size, size))
    lo = (size - side) // 2
    arr[lo : lo + side, lo : lo + side] = 1.0
    return SemanticMap(arr)


def test_canny_constant_is_all_zero():
    out = canny(SemanticMap(np.full((12, 12), 0.4)))
    assert out.kind == BINARY
    assert not out.pixels.any()


def test_canny_vertical_step_single_column_band():
    out = canny(step_image())
    edges = out.pixels
    cols = np.flatnonzero(edges.any(axis=0))
    # edge confined to a narrow band at the step, present in every row
    assert cols.size > 0
    assert cols.min() >= 6 and cols.max() <= 9
    assert np.all(edges[:, cols].any(axis=1))
    outside = np.delete(edges, np.arange(6, 10), axis=1)
    assert not outside.any()


def test_canny_square_yields_closed_ring():
    img = square_image()
    out = canny(img).pixels
    ys, xs = np.nonzero(out)
    assert ys.size > 0
    # all edges near the square boundary (within 3 px of the 10x10 block edge)
    lo, hi = 11, 20
    near = (
        (np.minimum(np.abs(ys - lo), np.abs(ys - hi)) <= 3)
        | (np.minimum(np.abs(xs - lo), np.abs(xs - hi)) <= 3)
    )
    assert near.all()
    # the ring encloses the centre: rays in 4 cardinal directions all cross an edge
    cy = cx = 15
    assert out[cy, :cx].any() and out[cy, cx:].any()
    assert out[:cy, cx].any() and out[cy:, cx].any()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_canny_matches_reference_on_random_images(seed):
    rng = np.random.default_rng(seed)
    img = SemanticMap(rng.random((14, 17)))
    fast = canny(img).pixels
    slow = reference_canny(img.pixels)
    assert np.array_equal(fast, slow)


def test_canny_matches_reference_when_blur_radius_exceeds_image():
    params = Canny(sigma=3.0)  # radius 9 on a 6x7 image
    img = SemanticMap(np.random.default_rng(6).random((6, 7)))
    fast = canny(img, params).pixels
    assert fast.any()
    assert np.array_equal(fast, reference_canny(img.pixels, sigma=params.sigma))


def test_canny_matches_reference_on_constant_image():
    img = SemanticMap(np.full((9, 11), 0.6))
    assert np.array_equal(canny(img).pixels, reference_canny(img.pixels))


@pytest.mark.parametrize("shape, sigma", [((14, 17), 1.4), ((6, 7), 3.0), ((5, 30), 0.5), ((9, 12), None)])
def test_blur_and_gradients_equal_literal_loops_exactly(monkeypatch, shape, sigma):
    img = np.random.default_rng(shape[1]).random(shape)
    blurred = img if sigma is None else reference_separable_blur(img, sigma)
    want_gx, want_gy = reference_sobel_gradients(blurred)
    want_mag = np.pad(np.hypot(want_gx, want_gy), 1, mode="edge")
    for rows in (1, 3, 64):
        monkeypatch.setattr(semcom.extractors, "_VALUE_BAND", rows * shape[1])
        done = 0
        for i, gx, gy, mag in _gradient_bands(img, sigma):
            n = len(gx)
            assert i == done
            assert gx.tobytes() == want_gx[i : i + n].tobytes(), (rows, i)
            assert gy.tobytes() == want_gy[i : i + n].tobytes(), (rows, i)
            # One clamped row and column either side, as the NMS reads them.
            assert mag.tobytes() == want_mag[i : i + n + 2].tobytes(), (rows, i)
            done += n
        assert done == shape[0]


def edge_pin_maps(h, w):
    """A random map, a constant one, and one whose steepest gradient (blurred or not) lies in its last row."""
    rng = np.random.default_rng([h, w])
    bottom = 0.5 + 0.01 * rng.random((h, w))
    bottom[-1, : w // 2] = 0.0
    bottom[-1, w // 2 :] = 1.0
    return {"random": rng.random((h, w)), "constant": np.full((h, w), 0.25), "step in the last row": bottom}


@pytest.mark.parametrize("rows", [1, 2, 3, 64])
@pytest.mark.parametrize("w", [5, 7, 300])
def test_banded_extractors_equal_whole_array_forms_bit_for_bit(monkeypatch, rows, w):
    monkeypatch.setattr(semcom.extractors, "_VALUE_BAND", rows * w)
    for params in (Canny(), Canny(sigma=3.0), Canny(low=0.05, high=0.5, sigma=0.5)):
        radius = math.ceil(3.0 * params.sigma)
        for h in sorted({5, 6, radius + 1, rows - 1, rows, rows + 1, 2 * rows + 1}):
            if h < 5:
                continue
            for name, pixels in edge_pin_maps(h, w).items():
                img = SemanticMap(pixels)
                case = (params, h, name)
                assert canny(img, params).pixels.tobytes() == legacy_canny(img, params).pixels.tobytes(), case
                assert sobel_magnitude(img).pixels.tobytes() == legacy_sobel_magnitude(img).pixels.tobytes(), case


def test_banded_extractors_peak_memory_at_1024():
    y, x = np.mgrid[0:1024, 0:1024] / 1024.0
    img = SemanticMap(0.5 + 0.25 * np.sin(2 * np.pi * 3 * x) * np.cos(2 * np.pi * 2 * y))
    size = img.pixels.nbytes
    # Each map keeps the one image-sized array its extractor wrote, canny's
    # as uint8 levels.
    assert traced_peak(canny, img) < 2.25 * size
    assert traced_peak(sobel_magnitude, img) < 1.5 * size


def test_canny_at_1024_peaks_an_array_below_its_float64_nms_form():
    # An image-sized float64 NMS buffer, kept as the map's pixels, peaked at
    # 1.96 of the image's size here. The kept NMS magnitudes, the uint8 map
    # and the hysteresis masks are measured at 0.63.
    y, x = np.mgrid[0:1024, 0:1024] / 1024.0
    img = SemanticMap(0.5 + 0.25 * np.sin(2 * np.pi * 3 * x) * np.cos(2 * np.pi * 2 * y))
    assert traced_peak(canny, img) < 0.96 * img.pixels.nbytes


def test_quantizing_a_1024_image_peaks_under_one_and_a_quarter_arrays_of_its_size():
    # The caller's pixels are restored one band at a time into the map's
    # uint8 levels: measured at 0.16 of the image's size.
    pixels = np.random.default_rng(8).random((1024, 1024))
    image = SemanticMap(pixels)
    assert traced_peak(quantize_segmentation, image, 4) < 1.25 * pixels.nbytes
    assert traced_peak(restore_kind, pixels, LABELS, 4) < 1.25 * pixels.nbytes


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_canny_affine_intensity_invariance(seed):
    rng = np.random.default_rng(seed)
    base = rng.random((16, 16))
    a = canny(SemanticMap(base)).pixels
    b = canny(SemanticMap(0.5 * base + 0.2)).pixels
    assert np.array_equal(a, b)


def test_canny_rejects_tiny_images():
    with pytest.raises(DomainError):
        canny(SemanticMap(np.zeros((4, 12))))


def test_sobel_rejects_a_map_two_pixels_wide():
    with pytest.raises(DomainError, match=re.escape("sobel needs min dimension >= 3, got 2x5")):
        sobel_magnitude(SemanticMap(np.zeros((5, 2))))


@pytest.mark.parametrize(
    "call",
    [extractor_label, lambda kind: extract(kind, SemanticMap(np.zeros((8, 8))))],
    ids=["extractor_label", "extract"],
)
def test_an_object_that_is_not_an_extractor_kind_is_a_domain_error(call):
    with pytest.raises(DomainError, match=re.escape("unknown extractor kind 'sobel'")):
        call("sobel")


def test_canny_hysteresis_reachability():
    # every surviving weak edge must chain 8-connectedly to a strong pixel
    rng = np.random.default_rng(42)
    img = SemanticMap(rng.random((20, 20)))
    params = Canny()
    edges = canny(img, params).pixels.astype(bool)
    # recompute strong seeds independently from a fresh run of the reference stages
    ref = reference_canny(img.pixels, low=params.high, high=params.high, sigma=params.sigma)
    strong = ref.astype(bool)  # low == high: reference output is exactly the strong set closure
    # flood from strong over the edge set; everything must be reached
    reached = strong & edges
    frontier = reached.copy()
    while frontier.any():
        grown = np.zeros_like(reached)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy or dx:
                    shifted = np.zeros_like(reached)
                    src = reached[
                        max(0, -dy) : reached.shape[0] - max(0, dy),
                        max(0, -dx) : reached.shape[1] - max(0, dx),
                    ]
                    shifted[
                        max(0, dy) : reached.shape[0] - max(0, -dy),
                        max(0, dx) : reached.shape[1] - max(0, -dx),
                    ] = src
                    grown |= shifted
        newly = grown & edges & ~reached
        if not newly.any():
            break
        reached |= newly
        frontier = newly
    assert np.array_equal(reached, edges)


def test_sobel_constant_is_zero():
    out = sobel_magnitude(SemanticMap(np.full((8, 8), 0.9)))
    assert not out.pixels.any()


def test_sobel_step_peaks_at_one_on_step():
    img = step_image()
    out = sobel_magnitude(img).pixels
    assert out.max() == 1.0
    peak_cols = np.flatnonzero((out == 1.0).any(axis=0))
    assert set(peak_cols) <= {7, 8}


def test_sobel_contrast_sign_invariance(rng):
    base = rng.random((10, 10))
    a = sobel_magnitude(SemanticMap(base)).pixels
    b = sobel_magnitude(SemanticMap(1.0 - base)).pixels
    assert np.allclose(a, b, atol=1e-12)


def test_sobel_range(rng):
    out = sobel_magnitude(SemanticMap(rng.random((9, 9)))).pixels
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_quantize_two_levels():
    out = quantize_segmentation(SemanticMap([[0.2, 0.8]]), 2)
    assert out.kind == LABELS and out.levels == 2
    assert np.array_equal(out.pixels, [[0.0, 1.0]])


def test_quantize_four_levels_hand_values():
    out = quantize_segmentation(SemanticMap([[0.0, 0.3, 0.6, 0.99]]), 4)
    assert np.array_equal(out.pixels, [[0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]])


def test_quantize_idempotent():
    rng = np.random.default_rng(5)
    first = quantize_segmentation(SemanticMap(rng.random((6, 6))), 5)
    second = quantize_segmentation(first, 5)
    assert np.array_equal(first.pixels, second.pixels)


def test_quantize_monotone_and_bounded_levels(rng):
    k = 6
    values = np.sort(rng.random(64))
    out = quantize_segmentation(SemanticMap(values.reshape(1, -1)), k)
    row = out.pixels[0]
    assert np.all(np.diff(row) >= 0)
    assert len(np.unique(row)) <= k


def test_external_map_substitution(tmp_path):
    m = SemanticMap(np.full((3, 3), 0.5))
    write_pgm(m, tmp_path / "img7_pose.pgm")
    loaded = external_map(str(tmp_path / "{id}_pose.pgm"), "img7")
    assert loaded.width == 3
    assert np.max(np.abs(loaded.pixels - 0.5)) <= 1.0 / 255.0


def test_external_map_missing_names_path(tmp_path):
    template = str(tmp_path / "{id}_pose.pgm")
    with pytest.raises(MissingMapError) as exc:
        external_map(template, "nope")
    assert "nope_pose.pgm" in str(exc.value)


def test_extract_dispatch(tmp_path, rng):
    img = SemanticMap(rng.random((10, 10)))
    assert extract(Canny(), SemanticMap(np.full((10, 10), 0.2))).kind == BINARY
    assert extract(SobelMagnitude(), img).kind == "soft"
    q = extract(QuantizeSegmentation(3), img)
    assert q.kind == LABELS and q.levels == 3
    write_pgm(img, tmp_path / "x.pgm")
    ext = extract(ExternalMap(str(tmp_path / "{id}.pgm")), img, image_id="x")
    assert ext.width == 10
    with pytest.raises(DomainError):
        extract(ExternalMap(str(tmp_path / "{id}.pgm")), img)
    # precomputed map must match the source resolution
    from semcom.errors import ShapeError

    write_pgm(SemanticMap(np.zeros((4, 4))), tmp_path / "small.pgm")
    with pytest.raises(ShapeError):
        extract(ExternalMap(str(tmp_path / "{id}.pgm")), img, image_id="small")


def test_kind_param_validation():
    with pytest.raises(DomainError):
        Canny(low=0.5, high=0.3)
    with pytest.raises(DomainError):
        Canny(sigma=0.0)
    with pytest.raises(DomainError):
        QuantizeSegmentation(1)
    with pytest.raises(DomainError):
        QuantizeSegmentation(256)
    with pytest.raises(DomainError):
        ExternalMap("maps/pose.pgm")


def test_labels_are_comma_free():
    kinds = [Canny(), SobelMagnitude(), QuantizeSegmentation(8), ExternalMap("m/{id}.pgm")]
    for kind in kinds:
        assert "," not in extractor_label(kind)
