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
    reference_grid_ssim_quality,
    reference_mse_quality,
    reference_psnr_quality,
    reference_ssim_quality,
    reference_vi_quality,
    reference_window_ssim_quality,
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
def test_soft_ssim_equals_the_doubling_window_sum_oracle_exactly(shape, window):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    params = SsimQuality(window=window)
    for _ in range(3):
        a = SemanticMap(rng.random(shape))
        b = SemanticMap(np.clip(a.pixels + rng.normal(0.0, 0.2, shape), 0.0, 1.0))
        assert ssim_quality(a, b, params) == reference_window_ssim_quality(a, b, params)
        assert ssim_quality(b, a, params) == reference_window_ssim_quality(b, a, params)


def noisy_pair(rng, shape):
    a = SemanticMap(rng.random(shape))
    return a, SemanticMap(np.clip(a.pixels + rng.normal(0.0, 0.2, shape), 0.0, 1.0))


def assert_ssim_bits_equal_first_implementation(a, b, params=SsimQuality()):
    assert ssim_quality(a, b, params).hex() == legacy_ssim_quality(a, b, params).hex()
    assert ssim_quality(b, a, params).hex() == legacy_ssim_quality(b, a, params).hex()


def assert_soft_ssim_bits_equal_the_window_sum_oracle(a, b, params=SsimQuality()):
    assert ssim_quality(a, b, params).hex() == reference_window_ssim_quality(a, b, params).hex()
    assert ssim_quality(b, a, params).hex() == reference_window_ssim_quality(b, a, params).hex()


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("window", [2, 7, 8])
def test_soft_ssim_equals_the_doubling_window_sum_oracle_across_band_edges(monkeypatch, rows, window):
    # Heights give one full band, a last band of one row, and two full bands
    # with a last band of two rows; the narrowest width equals the window.
    rng = np.random.default_rng(100 * rows + window)
    params = SsimQuality(window=window)
    for height in (rows + window - 1, rows + window, 2 * rows + window + 1):
        for width in (window, window + 5, 2 * window + 9):
            monkeypatch.setattr(semcom.metrics, "_BAND", rows * width)
            assert_soft_ssim_bits_equal_the_window_sum_oracle(*noisy_pair(rng, (height, width)), params)


@pytest.mark.parametrize("rows", [1, 3])
def test_ssim_of_constant_and_negative_zero_maps_equals_first_implementation(monkeypatch, rows):
    shape = (2 * rows + 9, 11)
    monkeypatch.setattr(semcom.metrics, "_BAND", rows * shape[1])
    maps = [const(v, shape) for v in (-0.0, 0.0, 0.5, 1.0)]
    for i, a in enumerate(maps):
        for b in maps[i + 1 :]:
            assert_ssim_bits_equal_first_implementation(a, b)


def test_soft_ssim_equals_the_doubling_window_sum_oracle_at_1024():
    assert_soft_ssim_bits_equal_the_window_sum_oracle(*noisy_pair(np.random.default_rng(1024), (1024, 1024)))


def exactly_rounded_ssim(x8, y8, w):
    """SSIM of the 8-bit maps x8 / 255 and y8 / 255 from int64 window sums, each mean one rounded division."""

    def means(p, scale):
        c = np.pad(p.cumsum(0).cumsum(1), ((1, 0), (1, 0)))
        return (c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]) / (w * w * scale)

    x8, y8 = x8.astype(np.int64), y8.astype(np.int64)
    mx, my = means(x8, 255), means(y8, 255)
    vx = means(x8 * x8, 255**2) - mx * mx
    vy = means(y8 * y8, 255**2) - my * my
    cov = means(x8 * y8, 255**2) - mx * my
    ssim = ((2.0 * mx * my + semcom.metrics.SSIM_C1) * (2.0 * cov + semcom.metrics.SSIM_C2)) / (
        (mx * mx + my * my + semcom.metrics.SSIM_C1) * (vx + vy + semcom.metrics.SSIM_C2)
    )
    return min(max(float(np.mean(ssim)), 0.0), 1.0)


@pytest.fixture(scope="module")
def eight_bit_1024_pair():
    rng = np.random.default_rng(1024)
    a8 = rng.integers(0, 256, (1024, 1024))
    return a8, np.clip(a8 + rng.integers(-40, 41, a8.shape), 0, 255)


@pytest.mark.parametrize("window", [4, 7, 8, 11, 15])
def test_soft_ssim_of_8_bit_maps_lies_within_2_ulps_of_exactly_rounded_window_means(eight_bit_1024_pair, window):
    # Integral images of the moments lose 22 to 27 ulps on this pair to
    # cancellation (2.8e-15 at w = 7); a doubling sum adds only w terms.
    a8, b8 = eight_bit_1024_pair
    exact = exactly_rounded_ssim(a8, b8, window)
    got = ssim_quality(SemanticMap(a8 / 255), SemanticMap(b8 / 255), SsimQuality(window))
    assert abs(got - exact) <= 2 * np.spacing(exact)


def test_ssim_peaks_under_one_and_a_half_arrays_of_its_size():
    # The ratio map is the one image-sized buffer; the band buffers of two
    # SOFT maps add the five float64 planes, the spare both _window_sums
    # calls share, the means, and at a window that is not a power of two the
    # first call's sums. Measured at 1.32, 1.38, 1.41 and 1.44 of a
    # 1024 x 1024 float64 map at windows 8, 7, 11 and 15.
    rng = np.random.default_rng(12)
    a = SemanticMap(rng.random((1024, 1024)))
    b = SemanticMap(rng.random((1024, 1024)))
    for window in (8, 7, 11, 15):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ssim_quality(a, b, SsimQuality(window))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * a.pixels.nbytes, window


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
            # the -0.0 inputs are stored as level 0, which reads back as +0.0
            assert not (np.signbit(a.pixels).any() or np.signbit(b.pixels).any())
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
    # Measured at 1.11 of a 1024 x 1024 float64 map, against 1.46 for the
    # same pixels as SOFT maps: its three uint8 count planes take less than
    # five float64 planes, which also shows the planes took the count dtype.
    a, b = binary_pair(np.random.default_rng(14), (1024, 1024), 0.1)
    peak = traced_peak(ssim_quality, a, b)
    assert peak < 1.5 * a.pixels.nbytes
    assert peak < traced_peak(ssim_quality, SemanticMap(a.pixels), SemanticMap(b.pixels)) - 0.1 * a.pixels.nbytes


@pytest.fixture
def table_builds(monkeypatch):
    """The window of every call to metrics._binary_ratio_table, in order."""
    calls = []
    build = semcom.metrics._binary_ratio_table

    def counted(w):
        calls.append(w)
        return build(w)

    monkeypatch.setattr(semcom.metrics, "_binary_ratio_table", counted)
    return calls


def table_side(w):
    """The smallest side of a square map with at least (w*w + 1)^3 windows of width w: the table's rule."""
    return w - 1 + math.isqrt((w * w + 1) ** 3 - 1) + 1


@pytest.mark.parametrize("window", [2, 3, 4, 7, 8])
def test_binary_ssim_through_the_ratio_table_equals_the_whole_array_oracles(table_builds, window):
    side = table_side(window)
    rng = np.random.default_rng(3000 + window)
    for density in (0.05, 0.5, 0.95):
        a, b = binary_pair(rng, (side, side + 3), density)
        assert_binary_ssim_bits_equal_the_float_path(a, b, SsimQuality(window))
    assert table_builds and set(table_builds) == {window}


@pytest.mark.parametrize(
    "shape, window, tabled",
    [((128, 128), 4, True), ((64, 64), 8, False), ((6, 26), 2, True), ((6, 25), 2, False)],
    ids=["128-w4", "64-w8", "125-windows", "120-windows"],
)
def test_binary_ssim_takes_the_table_when_the_windows_are_at_least_its_entries(table_builds, shape, window, tabled):
    # 15,625 windows against 4,913 entries; 3,249 against 274,625; then 125
    # and 120 windows against 125 entries.
    a, b = binary_pair(np.random.default_rng(shape[1] * 10 + window), shape, 0.3)
    assert_binary_ssim_bits_equal_the_float_path(a, b, SsimQuality(window))
    assert bool(table_builds) is tabled


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("window", [2, 3])
def test_binary_ssim_through_the_ratio_table_equals_the_oracles_across_band_edges(monkeypatch, table_builds, rows, window):
    rng = np.random.default_rng(4000 + 10 * rows + window)
    side = table_side(window)
    for shape in ((side, side), (side + rows, side + 1)):
        monkeypatch.setattr(semcom.metrics, "_BAND", rows * shape[1])
        for density in (0.0, 0.5, 1.0):
            assert_binary_ssim_bits_equal_the_float_path(*binary_pair(rng, shape, density), SsimQuality(window))
        a, b = binary_pair(rng, shape, 0.5, negative_zeros=True)
        assert_binary_ssim_bits_equal_the_float_path(a, b, SsimQuality(window))
    assert set(table_builds) == {window}


def test_binary_ssim_of_all_zero_all_one_and_negative_zero_maps_through_the_table(table_builds):
    shape = (13, 14)
    sources = [np.zeros(shape), np.ones(shape), np.full(shape, -0.0)]
    maps = [SemanticMap(p, kind=BINARY) for p in sources]
    for i, a in enumerate(maps):
        for j, b in enumerate(maps):
            if i != j:
                assert_binary_ssim_bits_equal_the_float_path(a, b, SsimQuality(2))
                # the SOFT maps keep the -0.0 values themselves
                soft = ssim_quality(SemanticMap(sources[i]), SemanticMap(sources[j]), SsimQuality(2))
                assert ssim_quality(a, b, SsimQuality(2)).hex() == soft.hex()
    assert set(table_builds) == {2}


def test_binary_ssim_with_a_labels_or_soft_map_keeps_the_general_kernel(table_builds):
    # At 128 x 128 and window 4 two BINARY maps take the table.
    rng = np.random.default_rng(128)
    a = binary_pair(rng, (128, 128), 0.3)[0]
    labels = grid_map(rng, (128, 128), 4)
    soft = SemanticMap(rng.random((128, 128)))
    params = SsimQuality(4)
    for other in (labels, soft):
        for x, y in ((a, other), (other, a)):
            assert ssim_quality(x, y, params).hex() == reference_window_ssim_quality(x, y, params).hex()
    assert table_builds == []


def test_the_ratio_table_is_built_once_per_window_size():
    build = semcom.metrics._binary_ratio_table
    build.cache_clear()
    a, b = binary_pair(np.random.default_rng(129), (128, 128), 0.3)
    for window in (4, 4, 2, 4, 2):
        ssim_quality(a, b, SsimQuality(window))
    info = build.cache_info()
    assert (info.misses, info.hits) == (2, 3)


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


def grid_map(rng, shape, k, top=False):
    """A BINARY (k = 2) or k-level LABELS map of random levels, or of every pixel at the top level.

    A LABELS map has a quarter of its pixels 1e-13 off the grid, inside the
    tolerance SemanticMap accepts, and half the zeros of either kind are -0.0.
    """
    levels = np.full(shape, k - 1) if top else rng.integers(0, k, shape)
    pixels = levels / (k - 1)
    if k > 2:
        pixels = np.clip(pixels + (rng.random(shape) < 0.25) * rng.choice([-1e-13, 1e-13], shape), 0.0, 1.0)
    pixels[(pixels == 0.0) & (rng.random(shape) < 0.5)] = -0.0
    return SemanticMap(pixels, kind=BINARY) if k == 2 else SemanticMap(pixels, kind=LABELS, levels=k)


def assert_grid_ssim_bits_equal_the_integer_oracle(a, b, params=SsimQuality()):
    for x, y in ((a, b), (b, a)):
        assert ssim_quality(x, y, params).hex() == reference_grid_ssim_quality(x, y, params).hex()


# (Kx, Ky): BINARY pairs, LABELS pairs of one K, and mixed pairs.
GRID_PAIRS = [(2, 2), (3, 3), (8, 8), (255, 255), (3, 8), (2, 8), (255, 2)]


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("window", [2, 7, 8, 15, 16])
def test_grid_ssim_bits_equal_the_integer_oracle_across_band_edges(monkeypatch, rows, window):
    # The band heights of the float-path test above.
    rng = np.random.default_rng(2000 * rows + window)
    params = SsimQuality(window=window)
    for height in (rows + window - 1, rows + window, 2 * rows + window + 1):
        for width in (window, window + 5):
            monkeypatch.setattr(semcom.metrics, "_BAND", rows * width)
            for kx, ky in GRID_PAIRS:
                assert_grid_ssim_bits_equal_the_integer_oracle(grid_map(rng, (height, width), kx), grid_map(rng, (height, width), ky), params)


# (Kx, Ky, window) on both sides of each edge: the largest window sum,
# w^2 max(Kx - 1, Ky - 1)^2, is 225 and 256 around uint8's 255; 196 and
# 256 for K = 3; 196 and 441 for K = 8; and for K = 255, 4,294,443,024 and
# 4,327,797,796 around uint32's 4,294,967,295.
DTYPE_EDGES = [(2, 2, 15), (2, 2, 16), (3, 3, 7), (3, 3, 8), (8, 2, 2), (8, 2, 3), (255, 255, 258), (255, 2, 259)]


@pytest.mark.parametrize("kx, ky, window", DTYPE_EDGES)
def test_grid_ssim_at_the_edges_of_its_count_dtypes_equals_the_integer_oracle(kx, ky, window):
    rng = np.random.default_rng(kx * 1000 + window)
    shape = (window + 1, window + 2)
    params = SsimQuality(window=window)
    top = grid_map(rng, shape, kx, top=True)
    assert_grid_ssim_bits_equal_the_integer_oracle(top, grid_map(rng, shape, ky, top=True), params)
    assert_grid_ssim_bits_equal_the_integer_oracle(top, grid_map(rng, shape, ky), params)


def labels_1024_pair(rng, k=8):
    """A 1024 x 1024 K-level map and a copy with a third of its levels moved one step."""
    levels = rng.integers(0, k, (1024, 1024))
    moved = np.clip(levels + rng.integers(-1, 2, levels.shape), 0, k - 1)
    return SemanticMap(levels / (k - 1), kind=LABELS, levels=k), SemanticMap(moved / (k - 1), kind=LABELS, levels=k)


def test_labels_ssim_peaks_under_one_and_a_half_arrays_of_its_size():
    # Measured at 1.20 of a 1024 x 1024 float64 map, against 1.46 for the
    # same pixels as SOFT maps: its five uint16 planes take less than five
    # float64 planes.
    a, b = labels_1024_pair(np.random.default_rng(16))
    peak = traced_peak(ssim_quality, a, b)
    assert peak < 1.5 * a.pixels.nbytes
    assert peak < traced_peak(ssim_quality, SemanticMap(a.pixels), SemanticMap(b.pixels))


def test_labels_ssim_differs_from_its_soft_copies_only_in_their_last_digits():
    # The soft copies' float sums round, the labels' integer sums are exact.
    a, b = labels_1024_pair(np.random.default_rng(17))
    soft_a, soft_b = SemanticMap(a.pixels), SemanticMap(b.pixels)
    exact, rounded = ssim_quality(a, b), ssim_quality(soft_a, soft_b)
    assert rounded == reference_window_ssim_quality(soft_a, soft_b)
    assert abs(exact - rounded) < 1e-12


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
    monkeypatch.setattr(semcom.metrics, "_VALUE_BAND", band)
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
