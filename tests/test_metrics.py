import math
import re
import tracemalloc

import numpy as np
import pytest

import semcom.metrics
from semcom.codec import decode, encode
from semcom.errors import DomainError, ShapeError, TooSmallError
from semcom.extractors import canny
from semcom.image import BINARY, LABELS, SemanticMap
from semcom.metrics import (
    MseQuality,
    PsnrQuality,
    SsimQuality,
    ViQuality,
    metric_label,
    mse_quality,
    psnr_quality,
    score,
    ssim_quality,
    vi_quality,
)

from _fixtures import traced_peak
from _reference import (
    legacy_ssim_quality,
    legacy_vi_quality,
    reference_mse_quality,
    reference_psnr_quality,
    reference_ssim_quality,
    reference_vi_quality,
)

ALL_KINDS = [MseQuality(), PsnrQuality(), SsimQuality(), ViQuality(8)]


def const(v, shape=(8, 8)):
    return SemanticMap(np.full(shape, float(v)))


def test_mse_identity_and_anchors():
    rng = np.random.default_rng(0)
    m = SemanticMap(rng.random((9, 9)))
    assert mse_quality(m, m) == 1.0
    assert mse_quality(const(0.0), const(0.5)) == 0.75
    assert mse_quality(const(0.0), const(1.0)) == 0.0


def test_psnr_identity_and_anchor():
    m = const(0.3)
    assert psnr_quality(m, m) == 1.0
    # MSE 0.25 -> 10 log10(4) dB
    expected = 10.0 * math.log10(4.0) / 50.0
    got = psnr_quality(const(0.0), const(0.5))
    assert abs(got - expected) < 1e-12
    assert abs(got - 6.020599913279624 / 50.0) < 1e-6


@pytest.mark.parametrize("shape", [(1, 1), (7, 13), (64, 64), (257, 129)])
def test_mse_and_psnr_bits_equal_the_squared_difference_form(shape):
    rng = np.random.default_rng(shape)
    a, b = SemanticMap(rng.random(shape)), SemanticMap(rng.random(shape))
    mse = float(np.mean((a.pixels - b.pixels) ** 2))
    assert mse_quality(a, b).hex() == (1.0 - mse).hex()
    for cap in (50.0, 200.0):
        want = min(10.0 * math.log10(1.0 / mse), cap) / cap
        assert psnr_quality(a, b, cap).hex() == want.hex()


def test_psnr_cap_clamps_to_one():
    a = const(0.5)
    nearly = SemanticMap(np.full((8, 8), 0.5 + 1e-4))
    assert psnr_quality(a, nearly) == 1.0


def test_ssim_identity_exact_one():
    rng = np.random.default_rng(1)
    m = SemanticMap(rng.random((12, 10)))
    other = SemanticMap(m.pixels.copy())
    assert ssim_quality(m, other) == 1.0


def test_ssim_constant_vs_constant_anchor():
    got = ssim_quality(const(0.0), const(1.0))
    c1 = 1e-4
    assert abs(got - c1 / (1.0 + c1)) < 1e-12
    assert abs(got - 9.999e-5) < 1e-6


def test_ssim_clamped_nonnegative():
    # opposite ramps give negative covariance; the score stays in [0, 1]
    ramp = np.tile(np.linspace(0, 1, 16), (16, 1))
    q = ssim_quality(SemanticMap(ramp), SemanticMap(ramp[:, ::-1]))
    assert 0.0 <= q <= 1.0


def test_ssim_too_small():
    with pytest.raises(TooSmallError):
        ssim_quality(const(0.5, (4, 12)), const(0.5, (4, 12)))


def test_vi_identity():
    rng = np.random.default_rng(2)
    m = SemanticMap(rng.random((10, 10)))
    assert vi_quality(m, m, 8) == 1.0


def test_vi_bijective_relabel_scores_one():
    rng = np.random.default_rng(3)
    k = 4
    bins = rng.integers(0, k, size=(12, 12))
    perm = np.array([2, 0, 3, 1])
    a = SemanticMap(bins / (k - 1), kind=LABELS, levels=k)
    b = SemanticMap(perm[bins] / (k - 1), kind=LABELS, levels=k)
    assert abs(vi_quality(a, b, k) - 1.0) < 1e-6


def test_vi_independent_uniform_scores_zero():
    k = 4
    rows = np.repeat(np.arange(k), k).reshape(k, k)
    a = SemanticMap(rows / (k - 1), kind=LABELS, levels=k)
    b = SemanticMap(rows.T / (k - 1), kind=LABELS, levels=k)
    assert abs(vi_quality(a, b, k)) < 1e-9


def test_vi_permutation_invariance():
    rng = np.random.default_rng(4)
    k = 5
    bins_a = rng.integers(0, k, size=(9, 9))
    bins_b = rng.integers(0, k, size=(9, 9))
    a = SemanticMap(bins_a / (k - 1), kind=LABELS, levels=k)
    b = SemanticMap(bins_b / (k - 1), kind=LABELS, levels=k)
    base = vi_quality(a, b, k)
    perm = rng.permutation(k)
    b2 = SemanticMap(perm[bins_b] / (k - 1), kind=LABELS, levels=k)
    assert abs(vi_quality(a, b2, k) - base) < 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS, ids=metric_label)
def test_normalization_and_identity(kind):
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = SemanticMap(rng.random((9, 11)))
        b = SemanticMap(rng.random((9, 11)))
        q = score(kind, a, b)
        assert 0.0 <= q <= 1.0
        assert score(kind, a, SemanticMap(a.pixels.copy())) == 1.0


@pytest.mark.parametrize("kind", ALL_KINDS, ids=metric_label)
def test_symmetry(kind):
    rng = np.random.default_rng(6)
    a = SemanticMap(rng.random((10, 10)))
    b = SemanticMap(rng.random((10, 10)))
    assert abs(score(kind, a, b) - score(kind, b, a)) < 1e-12


def test_mse_psnr_consistency():
    rng = np.random.default_rng(7)
    a = SemanticMap(rng.random((8, 8)))
    b = SemanticMap(rng.random((8, 8)))
    assert (psnr_quality(a, b) == 1.0) == (mse_quality(a, b) == 1.0)
    assert psnr_quality(a, a) == 1.0 and mse_quality(a, a) == 1.0


def test_all_metrics_match_direct_formula_oracles():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = SemanticMap(rng.random((16, 16)))
        b = SemanticMap(rng.random((16, 16)))
        assert abs(mse_quality(a, b) - reference_mse_quality(a.pixels, b.pixels)) < 1e-9
        assert abs(psnr_quality(a, b) - reference_psnr_quality(a.pixels, b.pixels)) < 1e-9
        assert abs(ssim_quality(a, b) - reference_ssim_quality(a.pixels, b.pixels)) < 1e-9
        assert abs(vi_quality(a, b, 8) - reference_vi_quality(a.pixels, b.pixels, 8)) < 1e-9


@pytest.mark.parametrize("shape, window", [((8, 8), 8), ((9, 13), 8), ((17, 10), 5), ((31, 8), 8), ((7, 3), 2)])
def test_ssim_equals_first_implementation_exactly(shape, window):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    params = SsimQuality(window=window)
    for _ in range(3):
        a = SemanticMap(rng.random(shape))
        b = SemanticMap(np.clip(a.pixels + rng.normal(0.0, 0.2, shape), 0.0, 1.0))
        assert ssim_quality(a, b, params) == legacy_ssim_quality(a, b, params)
        assert ssim_quality(b, a, params) == legacy_ssim_quality(b, a, params)


def noisy_pair(rng, shape):
    a = SemanticMap(rng.random(shape))
    return a, SemanticMap(np.clip(a.pixels + rng.normal(0.0, 0.2, shape), 0.0, 1.0))


def assert_ssim_bits_equal_first_implementation(a, b, params=SsimQuality()):
    assert ssim_quality(a, b, params).hex() == legacy_ssim_quality(a, b, params).hex()
    assert ssim_quality(b, a, params).hex() == legacy_ssim_quality(b, a, params).hex()


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("window", [2, 7, 8])
def test_ssim_equals_first_implementation_across_band_edges(monkeypatch, rows, window):
    # Heights give one full band, a last band of one row, and two full bands
    # with a last band of two rows; the narrowest width equals the window.
    rng = np.random.default_rng(100 * rows + window)
    params = SsimQuality(window=window)
    for height in (rows + window - 1, rows + window, 2 * rows + window + 1):
        for width in (window, window + 5, 2 * window + 9):
            monkeypatch.setattr(semcom.metrics, "_BAND", rows * width)
            assert_ssim_bits_equal_first_implementation(*noisy_pair(rng, (height, width)), params)


@pytest.mark.parametrize("rows", [1, 3])
def test_ssim_of_constant_and_negative_zero_maps_equals_first_implementation(monkeypatch, rows):
    shape = (2 * rows + 9, 11)
    monkeypatch.setattr(semcom.metrics, "_BAND", rows * shape[1])
    maps = [const(v, shape) for v in (-0.0, 0.0, 0.5, 1.0)]
    for i, a in enumerate(maps):
        for b in maps[i + 1 :]:
            assert_ssim_bits_equal_first_implementation(a, b)


def test_ssim_equals_first_implementation_at_1024():
    assert_ssim_bits_equal_first_implementation(*noisy_pair(np.random.default_rng(1024), (1024, 1024)))


def test_ssim_peaks_under_one_and_a_half_arrays_of_its_size():
    # The ratio map is the one image-sized buffer; the band buffers add a
    # fixed 2 to 3 MB, measured at 0.34 of a 1024 x 1024 float64 map.
    rng = np.random.default_rng(12)
    a = SemanticMap(rng.random((1024, 1024)))
    b = SemanticMap(rng.random((1024, 1024)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ssim_quality(a, b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * a.pixels.nbytes


def binary_pair(rng, shape, density, negative_zeros=False):
    """Two BINARY maps of ones drawn at ``density``; optionally half their zeros are -0.0."""
    maps = []
    for _ in range(2):
        pixels = (rng.random(shape) < density).astype(float)
        if negative_zeros:
            pixels[(pixels == 0.0) & (rng.random(shape) < 0.5)] = -0.0
        maps.append(SemanticMap(pixels, kind=BINARY))
    return maps


def assert_binary_ssim_bits_equal_the_float_path(a, b, params=SsimQuality()):
    # The SOFT maps hold the same pixels and take the five-plane float path.
    for x, y in ((a, b), (b, a)):
        got = ssim_quality(x, y, params).hex()
        assert got == legacy_ssim_quality(x, y, params).hex()
        assert got == ssim_quality(SemanticMap(x.pixels), SemanticMap(y.pixels), params).hex()


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("window", [2, 3, 8, 11, 15, 16])
def test_binary_ssim_bits_equal_the_float_path_across_band_edges(monkeypatch, rows, window):
    # The band heights of the float-path test above, at densities from all
    # zeros to all ones, and with -0.0 pixels among the zeros. An all-ones
    # window counts 15^2 = 225, the most a uint8 holds, and 16^2 = 256.
    rng = np.random.default_rng(1000 * rows + window)
    params = SsimQuality(window=window)
    for height in (rows + window - 1, rows + window, 2 * rows + window + 1):
        for width in (window, window + 5):
            monkeypatch.setattr(semcom.metrics, "_BAND", rows * width)
            for density in (0.0, 0.01, 0.5, 0.99, 1.0):
                assert_binary_ssim_bits_equal_the_float_path(*binary_pair(rng, (height, width), density), params)
            a, b = binary_pair(rng, (height, width), 0.5, negative_zeros=True)
            assert np.signbit(a.pixels).any() and np.signbit(b.pixels).any()
            assert_binary_ssim_bits_equal_the_float_path(a, b, params)


def test_binary_ssim_of_a_256_window_count_beyond_uint16_equals_the_float_path():
    # An all-ones 256 x 256 window counts 65,536, one past the largest uint16.
    ones = SemanticMap(np.ones((256, 257)), kind=BINARY)
    half = binary_pair(np.random.default_rng(256), (256, 257), 0.5)[0]
    params = SsimQuality(window=256)
    assert_binary_ssim_bits_equal_the_float_path(ones, half, params)
    assert_binary_ssim_bits_equal_the_float_path(ones, SemanticMap(np.ones((256, 257)), kind=BINARY), params)


def test_binary_ssim_of_all_negative_zero_maps_equals_the_float_path():
    zeros = SemanticMap(np.full((11, 13), -0.0), kind=BINARY)
    ones = SemanticMap(np.ones((11, 13)), kind=BINARY)
    assert_binary_ssim_bits_equal_the_float_path(zeros, ones)
    assert_binary_ssim_bits_equal_the_float_path(zeros, SemanticMap(np.zeros((11, 13)), kind=BINARY))


def test_binary_ssim_peaks_under_one_and_a_half_arrays_of_its_size():
    # Measured at 1.11 of a 1024 x 1024 float64 map, against 1.34 for the
    # same pixels as SOFT maps: its uint8 count planes take less than five
    # float64 integral-image planes, which also shows the integer path ran.
    a, b = binary_pair(np.random.default_rng(14), (1024, 1024), 0.1)
    peak = traced_peak(ssim_quality, a, b)
    assert peak < 1.5 * a.pixels.nbytes
    assert peak < traced_peak(ssim_quality, SemanticMap(a.pixels), SemanticMap(b.pixels)) - 0.1 * a.pixels.nbytes


@pytest.fixture(scope="module")
def canny_1024():
    """The Canny map of a 1024 x 1024 image of two sinusoids plus noise, like the benchmark's."""
    rng = np.random.default_rng(15)
    y, x = np.mgrid[0:1024, 0:1024] / 1024.0
    base = 0.5 + 0.25 * np.sin(6 * np.pi * x) * np.cos(4 * np.pi * y) + 0.12 * np.sin(64 * np.pi * (x + y))
    return canny(SemanticMap(np.clip(base + rng.normal(0.0, 0.02, base.shape), 0.0, 1.0)))


@pytest.mark.parametrize("d", [1, 2, 4, 8, 10])
def test_binary_ssim_of_a_1024_canny_round_trip_equals_the_float_path(canny_1024, d):
    reconstruction = decode(encode(canny_1024, d))
    assert reconstruction.kind == BINARY
    got = ssim_quality(canny_1024, reconstruction).hex()
    assert got == legacy_ssim_quality(canny_1024, reconstruction).hex()
    assert got == ssim_quality(SemanticMap(canny_1024.pixels), SemanticMap(reconstruction.pixels)).hex()


def quantized_pair(rng, shape, k):
    """A map with values on and just below its K bin edges, and a noisy copy."""
    edges = np.arange(k + 1) / k
    values = np.concatenate([edges, np.nextafter(edges, 0.0), rng.random(shape[0] * shape[1])])
    a = SemanticMap(rng.permutation(values)[: shape[0] * shape[1]].reshape(shape))
    return a, SemanticMap(np.clip(a.pixels + rng.normal(0.0, 0.3, shape), 0.0, 1.0))


@pytest.mark.parametrize("band", [1, 7, 64])
@pytest.mark.parametrize("k", [2, 3, 8, 255])
def test_vi_bits_equal_first_vectorised_form_across_band_edges(monkeypatch, band, k):
    # Pixel counts of a band less or more one, one band, two bands and one,
    # and many bands with a short last one.
    monkeypatch.setattr(semcom.metrics, "_VI_BAND", band)
    rng = np.random.default_rng(1000 * band + k)
    shapes = [(1, band + 1), (band, 1), (2 * band + 1, 1), (9, 13), (31, 5)]
    if band > 1:
        shapes.append((1, band - 1))
    for shape in shapes:
        a, b = quantized_pair(rng, shape, k)
        assert vi_quality(a, b, k).hex() == legacy_vi_quality(a, b, k).hex()
        assert vi_quality(b, a, k).hex() == legacy_vi_quality(b, a, k).hex()


def test_vi_peaks_under_half_an_array_of_its_size():
    # Only band buffers: measured at 0.09 of a 1024 x 1024 float64 map.
    rng = np.random.default_rng(13)
    a, b = quantized_pair(rng, (1024, 1024), 4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        vi_quality(a, b, 4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * a.pixels.nbytes


def test_shape_mismatch_raises():
    a = const(0.5, (4, 4))
    b = const(0.5, (4, 5))
    for kind in ALL_KINDS:
        if isinstance(kind, SsimQuality):
            continue
        with pytest.raises(ShapeError):
            score(kind, a, b)


def test_kind_validation():
    with pytest.raises(DomainError):
        PsnrQuality(cap_db=0.0)
    with pytest.raises(DomainError):
        SsimQuality(window=1)
    with pytest.raises(DomainError):
        ViQuality(1)
    with pytest.raises(DomainError):
        ViQuality(256)


SELF_KINDS = [
    MseQuality(),
    PsnrQuality(50.0),
    PsnrQuality(20.0),
    SsimQuality(2),
    SsimQuality(8),
    ViQuality(2),
    ViQuality(4),
    ViQuality(8),
]


def self_score_maps(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    spike = np.zeros(shape)
    spike[shape[0] // 2, shape[1] // 3] = 1.0
    return {
        "soft": SemanticMap(rng.random(shape)),
        "binary": SemanticMap((rng.random(shape) < 0.3).astype(float), kind=BINARY),
        "labels": SemanticMap(rng.integers(0, 5, size=shape) / 4.0, kind=LABELS, levels=5),
        "constant": const(0.37, shape),
        "spike": SemanticMap(spike),
        "tiny": SemanticMap(rng.random(shape) * 1e-160),
    }


@pytest.mark.parametrize("shape", [(8, 8), (13, 21), (96, 128)])
@pytest.mark.parametrize("kind", SELF_KINDS, ids=metric_label)
def test_self_score_is_one_and_equals_the_computed_score(kind, shape):
    for name, m in self_score_maps(shape).items():
        fast = score(kind, m, m)
        computed = score(kind, m, SemanticMap(m.pixels))
        assert fast == 1.0, name
        assert fast.hex() == computed.hex(), name


def test_self_score_still_checks_the_ssim_window():
    m = const(0.5, (4, 4))
    with pytest.raises(TooSmallError):
        score(SsimQuality(8), m, m)
    with pytest.raises(TooSmallError):
        score(SsimQuality(5), const(0.5, (8, 4)), const(0.5, (8, 4)))
    assert score(SsimQuality(4), m, m) == 1.0


def test_metric_label_rejects_an_object_that_is_not_a_metric_kind():
    with pytest.raises(DomainError, match=re.escape("unknown metric kind 'mse'")):
        metric_label("mse")


def test_vi_rejects_a_level_count_below_two():
    with pytest.raises(DomainError, match=re.escape("level count must be >= 2, got 1")):
        vi_quality(const(0.5), const(0.25), 1)


def test_self_score_rejects_an_unknown_kind():
    m = const(0.5)
    with pytest.raises(DomainError):
        score("psnr", m, m)


@pytest.mark.parametrize("cap", [math.inf, -math.inf, math.nan])
def test_psnr_cap_must_be_finite_and_positive(cap):
    with pytest.raises(DomainError):
        PsnrQuality(cap_db=cap)
