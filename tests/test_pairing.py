from itertools import product

import re

import numpy as np
import pytest
import scipy.stats

from semcom.errors import DomainError
from semcom.extractors import Canny, SobelMagnitude
from semcom.generation import ExternalPairs, Surrogate
from semcom.image import SemanticMap, write_pgm
from semcom.metrics import MseQuality, SsimQuality, ViQuality
from semcom.pairing import (
    PredictabilityReport,
    ResponseCurve,
    _ols,
    _spearman,
    fit_predictability,
    select_pair,
    sweep_candidates,
    sweep_curve,
)
from semcom.rng import stream


def test_curve_invariants():
    with pytest.raises(DomainError):
        ResponseCurve((1, 2), (1.0, 0.9))
    with pytest.raises(DomainError):
        ResponseCurve((1, 2, 2), (1.0, 0.9, 0.8))
    with pytest.raises(DomainError):
        ResponseCurve((1, 2, 4), (1.0, 0.9, 1.2))


def test_fit_exactly_linear_dyadic():
    # q(d) = 1 - d/32: every value, mean, and product is an exact dyadic float
    factors = (1, 2, 4, 8)
    curve = ResponseCurve(factors, tuple(1.0 - d / 32.0 for d in factors))
    rep = fit_predictability(curve)
    assert rep.r_squared == 1.0
    assert rep.slope == -1.0 / 32.0
    assert rep.spearman == -1.0


def test_fit_near_linear():
    factors = (1, 2, 4, 8)
    curve = ResponseCurve(factors, tuple(1.0 - 0.05 * d for d in factors))
    rep = fit_predictability(curve)
    assert rep.r_squared > 1.0 - 1e-12
    assert abs(rep.slope + 0.05) < 1e-12


def test_fit_constant_curve_conventions():
    rep = fit_predictability(ResponseCurve((1, 2, 4), (0.7, 0.7, 0.7)))
    assert rep.r_squared == 0.0
    assert rep.spearman == 0.0


def test_fit_hand_anchor():
    curve = ResponseCurve((1, 2, 4, 8), (1.0, 0.8, 0.5, 0.1))
    rep = fit_predictability(curve)
    # independent arithmetic: slope = -3.6/28.75, r^2 = 12.96/13.225
    assert abs(rep.slope - (-72.0 / 575.0)) < 1e-12
    assert abs(rep.r_squared - 2592.0 / 2645.0) < 1e-12
    assert rep.spearman == -1.0
    # cross-check against an unrelated least-squares implementation
    coeffs, residuals, *_ = np.polyfit([1, 2, 4, 8], [1.0, 0.8, 0.5, 0.1], 1, full=True)
    assert abs(rep.slope - coeffs[0]) < 1e-9
    ss_tot = np.sum((np.array([1.0, 0.8, 0.5, 0.1]) - 0.6) ** 2)
    assert abs(rep.r_squared - (1.0 - residuals[0] / ss_tot)) < 1e-9


def test_ols_and_spearman_order_invariant():
    rng = np.random.default_rng(0)
    x = np.array([1.0, 2.0, 4.0, 8.0, 10.0])
    y = rng.random(5)
    perm = rng.permutation(5)
    assert np.allclose(_ols(x, y), _ols(x[perm], y[perm]), atol=1e-12)
    assert abs(_spearman(x, y) - _spearman(x[perm], y[perm])) < 1e-12


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = np.arange(1.0, 8.0)
        y = np.round(rng.random(7), 1)  # coarse values force ties
        ours = _spearman(x, y)
        theirs = scipy.stats.spearmanr(x, y).statistic
        if np.isnan(theirs):
            assert ours == 0.0
        else:
            assert abs(ours - theirs) < 1e-12


def test_sweep_constant_image_with_canny_is_all_one():
    images = [SemanticMap(np.full((16, 16), 0.5))]
    curve = sweep_curve(Canny(), MseQuality(), images, [1, 2, 4, 8], Surrogate(), stream(0, "gen"))
    assert curve.qualities == (1.0, 1.0, 1.0, 1.0)


def test_sweep_two_image_corpus_is_mean_of_singles():
    rng = np.random.default_rng(2)
    images = [SemanticMap(rng.random((16, 16))) for _ in range(2)]
    factors = [1, 2, 4]
    both = sweep_curve(SobelMagnitude(), MseQuality(), images, factors, Surrogate(), stream(0, "gen"))
    singles = [
        sweep_curve(SobelMagnitude(), MseQuality(), [img], factors, Surrogate(), stream(0, "gen"))
        for img in images
    ]
    for i in range(len(factors)):
        mean = (singles[0].qualities[i] + singles[1].qualities[i]) / 2.0
        assert abs(both.qualities[i] - mean) < 1e-12


def test_sweep_starts_at_one_without_noise():
    rng = np.random.default_rng(3)
    images = [SemanticMap((rng.random((16, 16)) > 0.5).astype(float))]
    curve = sweep_curve(Canny(), MseQuality(), images, [1, 2, 4], Surrogate(), stream(0, "gen"))
    assert curve.qualities[0] == 1.0


def test_select_pair_archetypes_are_candidate_lists(rng):
    images = [SemanticMap(rng.random((16, 16)))]
    factors = [1, 2, 4, 8]
    exts = [Canny(), SobelMagnitude()]
    mets = [MseQuality(), SsimQuality()]

    def select(extractors, metrics):
        rep = select_pair(extractors, metrics, images, factors, Surrogate(), stream(0, "gen"))
        return rep.extractor, rep.metric

    assert select(exts, mets) in list(product(exts, mets))
    assert select([Canny()], [MseQuality()]) == (Canny(), MseQuality())
    assert select(exts, [MseQuality()]) in [(Canny(), MseQuality()), (SobelMagnitude(), MseQuality())]
    assert select([Canny()], mets)[0] == Canny()
    with pytest.raises(DomainError):
        select([], mets)
    with pytest.raises(DomainError):
        select(exts, [])


def linear_pair_fixture(tmp_path):
    """External pair files making mse quality exactly 1 - (d-1)/32 over D={1,2,4,8}.

    The reconstruction at factor d differs from the reference in exactly
    8(d-1) of the 256 pixels, so mse = (d-1)/32 and every quantity in the
    OLS fit is an exact dyadic float: the curve is exactly linear.
    """
    ref = np.zeros((16, 16))
    ref[8:, :] = 1.0
    order = [(y, x) for y in range(16) for x in range(16)]
    for d in (1, 2, 4, 8):
        rec = ref.copy()
        for y, x in order[: 8 * (d - 1)]:
            rec[y, x] = 1.0 - rec[y, x]
        write_pgm(SemanticMap(rec), tmp_path / f"lin_d{d}.pgm")
    return ExternalPairs(str(tmp_path)), SemanticMap(ref)


def test_select_pair_all_modes_pick_linear_winner(tmp_path):
    backend, ref = linear_pair_fixture(tmp_path)
    images = [ref]
    factors = [1, 2, 4, 8]
    exts = [Canny(), SobelMagnitude()]
    mets = [MseQuality(), ViQuality(2)]
    expected = (Canny(), MseQuality())

    # free, metric fixed, extractor fixed, both fixed
    archetypes = [(exts, mets), (exts, [MseQuality()]), ([Canny()], mets), ([expected[0]], [expected[1]])]
    for archetype in archetypes:
        rep = select_pair(*archetype, images, factors, backend, stream(0, "gen"), image_ids=["lin"])
        assert (rep.extractor, rep.metric) == expected
        assert rep.r_squared == 1.0
    # re-scan oracle: the winner's r^2 is the maximum over the full grid
    curves = sweep_candidates(
        list(product(exts, mets)), images, factors, backend, stream(0, "gen"), image_ids=["lin"]
    )
    reports = [fit_predictability(c) for c in curves]
    assert max(r.r_squared for r in reports) == 1.0
    vi_reports = [r for r in reports if isinstance(r.metric, ViQuality)]
    assert all(r.r_squared < 1.0 for r in vi_reports)


def test_select_winner_dominates_re_scan(rng):
    images = [SemanticMap(rng.random((16, 16)))]
    exts = [Canny(), SobelMagnitude()]
    mets = [MseQuality(), SsimQuality()]
    factors = [1, 2, 4, 8]
    winner = select_pair(exts, mets, images, factors, Surrogate(), stream(5, "gen"))
    curves = sweep_candidates(list(product(exts, mets)), images, factors, Surrogate(), stream(5, "gen"))
    reports = [fit_predictability(c) for c in curves]
    assert all(winner.r_squared >= r.r_squared for r in reports)


def test_report_label_has_no_commas():
    rep = PredictabilityReport(Canny(), MseQuality(), 1.0, -0.05, -1.0)
    assert "," not in rep.pair_label


@pytest.mark.parametrize(
    "images, factors, message",
    [(0, (1, 2, 4), "corpus must be non-empty"), (1, (1, 2), "need at least 3 factors, got [1, 2]")],
    ids=["empty-corpus", "two-factors"],
)
def test_sweep_curve_rejects_an_empty_corpus_or_fewer_than_three_factors(images, factors, message):
    corpus = [SemanticMap(np.zeros((8, 8)))] * images
    with pytest.raises(DomainError, match=re.escape(message)):
        sweep_curve(SobelMagnitude(), MseQuality(), corpus, factors, Surrogate(), stream(1, "gen"))
