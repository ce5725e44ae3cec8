import math
import tracemalloc

import numpy as np
import pytest

from semcom.errors import DomainError, ShapeError, TooSmallError
from semcom.image import LABELS, SemanticMap
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

from _reference import (
    legacy_ssim_quality,
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


def test_ssim_peaks_under_seven_arrays_of_its_size():
    rng = np.random.default_rng(12)
    a = SemanticMap(rng.random((512, 512)))
    b = SemanticMap(rng.random((512, 512)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ssim_quality(a, b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 7 * a.pixels.nbytes


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
