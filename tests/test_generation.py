import re

import numpy as np
import pytest

from semcom.errors import DomainError, MissingMapError, ValidationFailedError
from semcom.extractors import Canny, QuantizeSegmentation, SobelMagnitude
from semcom.generation import (
    ExternalPairs,
    QualityCore,
    ServiceSpec,
    Surrogate,
    min_representation_search,
    reconstruct_and_score,
    validate_and_adjust,
)
from semcom.image import SemanticMap, write_pgm
from semcom.metrics import MseQuality, PsnrQuality, SsimQuality, ViQuality
from semcom.rng import stream


def step_image(w=24, h=24):
    arr = np.zeros((h, w))
    arr[:, w // 2 :] = 1.0
    return SemanticMap(arr)


def gen_rng(seed=0):
    return stream(seed, "gen")


ALL_PAIRS = [
    (extractor, metric)
    for extractor in (Canny(), SobelMagnitude(), QuantizeSegmentation(4))
    for metric in (MseQuality(), PsnrQuality(), SsimQuality(), ViQuality(4))
]


@pytest.mark.parametrize("extractor,metric", ALL_PAIRS)
def test_lossless_round_trip_scores_one(extractor, metric):
    svc = ServiceSpec(id="s", extractor=extractor, metric=metric)
    q = reconstruct_and_score(svc, step_image(), 1, Surrogate(), gen_rng())
    assert q == 1.0


def test_quality_non_increasing_on_step_edge():
    svc = ServiceSpec(id="s", extractor=Canny(), metric=MseQuality())
    img = step_image(32, 32)
    qs = [reconstruct_and_score(svc, img, d, Surrogate(), gen_rng()) for d in (1, 2, 4, 8, 10)]
    assert all(a >= b - 0.02 for a, b in zip(qs, qs[1:]))


def test_generation_noise_is_seeded_and_lowers_quality():
    svc = ServiceSpec(id="s", extractor=SobelMagnitude(), metric=MseQuality(), sigma_gen=0.2)
    img = step_image()
    a = reconstruct_and_score(svc, img, 1, Surrogate(), gen_rng(3))
    b = reconstruct_and_score(svc, img, 1, Surrogate(), gen_rng(3))
    c = reconstruct_and_score(svc, img, 1, Surrogate(), gen_rng(4))
    assert a == b
    assert a < 1.0
    assert a != c


def test_external_pairs_scoring(tmp_path):
    ref = SemanticMap(np.zeros((8, 8)))
    rec = SemanticMap(np.full((8, 8), 0.5))
    write_pgm(ref, tmp_path / "img1_d1.pgm")
    write_pgm(rec, tmp_path / "img1_d4.pgm")
    svc = ServiceSpec(id="img1", extractor=Canny(), metric=MseQuality())
    q1 = reconstruct_and_score(svc, ref, 1, ExternalPairs(str(tmp_path)), gen_rng())
    q4 = reconstruct_and_score(svc, ref, 4, ExternalPairs(str(tmp_path)), gen_rng())
    assert q1 == 1.0
    assert abs(q4 - 0.75) < 0.01  # constant 0 vs ~0.5 after 8-bit quantization


def test_external_pairs_missing_file_names_path(tmp_path):
    svc = ServiceSpec(id="img9", extractor=Canny(), metric=MseQuality())
    with pytest.raises(MissingMapError) as exc:
        reconstruct_and_score(svc, step_image(), 4, ExternalPairs(str(tmp_path)), gen_rng())
    assert "img9_d1.pgm" in str(exc.value)


def test_validate_vacuous_threshold_accepts_requested():
    svc = ServiceSpec(id="s", extractor=Canny(), metric=MseQuality(), threshold=0.0)
    res = validate_and_adjust(svc, step_image(), 8, [1, 2, 4, 8], Surrogate(), gen_rng())
    assert res.accepted_d == 8
    assert res.quality >= 0.0


def test_validate_unreachable_threshold_fails():
    svc = ServiceSpec(
        id="s", extractor=SobelMagnitude(), metric=MseQuality(), threshold=1.0, sigma_gen=0.3
    )
    with pytest.raises(ValidationFailedError) as exc:
        validate_and_adjust(svc, step_image(), 4, [1, 2, 4], Surrogate(), gen_rng())
    assert exc.value.quality < 1.0


def test_validate_steps_down_to_sweep_oracle():
    img = step_image(32, 32)
    factors = [1, 2, 4, 8, 10]
    base = ServiceSpec(id="s", extractor=Canny(), metric=MseQuality())
    sweep = {
        d: reconstruct_and_score(base, img, d, Surrogate(), gen_rng()) for d in factors
    }
    # pick a threshold between two adjacent factor qualities
    pairs = [(hi, lo) for hi, lo in zip(factors[1:], factors[:-1]) if sweep[hi] < sweep[lo]]
    assert pairs, "fixture must degrade somewhere"
    hi, lo = pairs[-1]
    tau = (sweep[hi] + sweep[lo]) / 2.0
    svc = ServiceSpec(id="s", extractor=Canny(), metric=MseQuality(), threshold=tau)
    res = validate_and_adjust(svc, img, hi, factors, Surrogate(), gen_rng())
    expected = max(d for d in factors if d <= hi and sweep[d] >= tau)
    assert res.accepted_d == expected
    assert res.quality >= tau
    # every factor between the request and the acceptance scored below threshold
    for d in factors:
        if expected < d <= hi:
            assert sweep[d] < tau


def test_validate_requires_admissible_factor():
    svc = ServiceSpec(id="s", extractor=Canny(), metric=MseQuality())
    with pytest.raises(DomainError):
        validate_and_adjust(svc, step_image(), 3, [1, 2, 4], Surrogate(), gen_rng())


def test_min_representation_tau_zero_returns_max():
    svc = ServiceSpec(id="s", extractor=Canny(), metric=MseQuality(), threshold=0.0)
    d = min_representation_search(svc, step_image(), [1, 2, 4, 8, 10], Surrogate(), gen_rng())
    assert d == 10


def diagonal_image(size=32):
    arr = np.zeros((size, size))
    for y in range(size):
        arr[y, y + 1 :] = 1.0
    return SemanticMap(arr)


def test_min_representation_boundary_only_d1():
    img = diagonal_image()
    factors = [1, 2, 4, 8]
    base = ServiceSpec(id="s", extractor=Canny(), metric=MseQuality())
    sweep = {d: reconstruct_and_score(base, img, d, Surrogate(), gen_rng()) for d in factors}
    assert sweep[1] == 1.0
    worst = max(q for d, q in sweep.items() if d > 1)
    assert worst < 1.0
    tau = (1.0 + worst) / 2.0  # only d = 1 qualifies
    svc = ServiceSpec(id="s", extractor=Canny(), metric=MseQuality(), threshold=tau)
    d = min_representation_search(svc, img, factors, Surrogate(), gen_rng())
    assert d == 1


def test_min_representation_matches_full_sweep():
    img = step_image(32, 32)
    factors = [1, 2, 4, 8, 10]
    base = ServiceSpec(id="s", extractor=Canny(), metric=MseQuality())
    sweep = {d: reconstruct_and_score(base, img, d, Surrogate(), gen_rng()) for d in factors}
    tau = sorted(sweep.values())[2]  # reachable by some but not all factors
    svc = ServiceSpec(id="s", extractor=Canny(), metric=MseQuality(), threshold=tau)
    got = min_representation_search(svc, img, factors, Surrogate(), gen_rng())
    assert got == max(d for d in factors if sweep[d] >= tau)


def test_min_representation_no_factor_qualifies():
    svc = ServiceSpec(
        id="s", extractor=SobelMagnitude(), metric=MseQuality(), threshold=1.0, sigma_gen=0.5
    )
    with pytest.raises(ValidationFailedError):
        min_representation_search(svc, step_image(), [1, 2], Surrogate(), gen_rng())


def test_min_representation_rejects_an_empty_factor_set():
    svc = ServiceSpec(id="s", extractor=SobelMagnitude(), metric=MseQuality())
    with pytest.raises(DomainError, match="factor set must be non-empty"):
        min_representation_search(svc, step_image(), [], Surrogate(), gen_rng())


def test_service_spec_validation():
    with pytest.raises(DomainError):
        ServiceSpec(id="x", extractor=Canny(), metric=MseQuality(), threshold=1.5)
    with pytest.raises(DomainError):
        ServiceSpec(id="x", extractor=Canny(), metric=MseQuality(), weight=0.0)
    with pytest.raises(DomainError):
        ServiceSpec(id="x", extractor=Canny(), metric=MseQuality(), sigma_gen=-0.1)


def test_quality_rejects_a_factor_below_one():
    spec = ServiceSpec(id="a", extractor=SobelMagnitude(), metric=MseQuality())
    core = QualityCore(spec, SemanticMap(np.zeros((8, 8))))
    with pytest.raises(DomainError, match=re.escape("downscale factor must be >= 1, got 0")):
        core.quality(0, stream(1, "gen"))
