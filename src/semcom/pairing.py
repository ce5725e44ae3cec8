"""Find extractor-metric pairs whose quality responds predictably to downscaling.

A candidate pair is swept over a factor set to get its mean quality curve,
then scored by how well an ordinary least-squares line explains that
curve.  The most predictable pair is the one with the highest R squared;
ties fall back to the larger absolute Spearman rank correlation, then to
the lexicographically smallest pair name.  A candidate pair is not yet a
service, so its curve is noise-free and a pure function of its inputs;
generation noise belongs to the services of ``allocate`` and ``pipeline``.
Because each curve is a pure function of its inputs, the candidates are
swept in forked worker processes, one per usable CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import DomainError
from .extractors import ExtractorKind, extractor_label
from .generation import GenerationBackend, QualityCore, ServiceSpec
from .image import SemanticMap
from .metrics import MetricKind, metric_label
from .workers import in_order


@dataclass(frozen=True)
class ResponseCurve:
    """Mean quality at each admissible downscaling factor."""

    factors: tuple[int, ...]
    qualities: tuple[float, ...]
    extractor: ExtractorKind | None = None
    metric: MetricKind | None = None

    def __post_init__(self):
        if len(self.factors) != len(self.qualities) or len(self.factors) < 3:
            raise DomainError("curve needs matching factor/quality lists of length >= 3")
        if any(b <= a for a, b in zip(self.factors, self.factors[1:])):
            raise DomainError(f"factors must be strictly increasing, got {self.factors}")
        if any(not 0.0 <= q <= 1.0 for q in self.qualities):
            raise DomainError("qualities must lie in [0, 1]")


@dataclass(frozen=True)
class PredictabilityReport:
    extractor: ExtractorKind | None
    metric: MetricKind | None
    r_squared: float
    slope: float
    spearman: float

    @property
    def pair_label(self) -> str:
        ext = extractor_label(self.extractor) if self.extractor is not None else "?"
        met = metric_label(self.metric) if self.metric is not None else "?"
        return f"{ext}+{met}"


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares (slope, r_squared) of y on x; r_squared is 0 when y is flat."""
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * yc)) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    residuals = y - (intercept + slope * x)
    ss_res = float(np.sum(residuals * residuals))
    ss_tot = float(np.sum(yc * yc))
    if ss_tot == 0.0:
        return slope, 0.0
    return slope, min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)


def _ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given their average rank."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a run of tied values holds the 1-based ranks ends - counts + 1 .. ends
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2.0)[inverse]


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Rank correlation; 0 by convention when either side is constant."""
    rx = _ranks(x)
    ry = _ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = float(np.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))
    if denom == 0.0:
        return 0.0
    return min(max(float(np.sum(dx * dy)) / denom, -1.0), 1.0)


def sweep_curve(
    extractor: ExtractorKind,
    metric: MetricKind,
    images: Sequence[SemanticMap],
    factors: Sequence[int],
    backend: GenerationBackend,
    image_ids: Sequence[str] | None = None,
) -> ResponseCurve:
    """Mean quality over the corpus at every factor for one candidate pair."""
    if not images:
        raise DomainError("corpus must be non-empty")
    if len(factors) < 3:
        raise DomainError(f"need at least 3 factors, got {list(factors)}")
    ids = list(image_ids) if image_ids is not None else [f"img{i}" for i in range(len(images))]
    ordered = sorted(factors)
    # image-outer so each map is extracted once; every factor's total still sums in image order
    totals = [0.0] * len(ordered)
    for img, img_id in zip(images, ids):
        core = QualityCore(ServiceSpec(id=img_id, extractor=extractor, metric=metric), img, backend)
        for j, d in enumerate(ordered):
            totals[j] += core.quality(d, None)  # a noise-free core draws nothing
    return ResponseCurve(
        factors=tuple(ordered),
        qualities=tuple(total / len(images) for total in totals),
        extractor=extractor,
        metric=metric,
    )


def fit_predictability(curve: ResponseCurve) -> PredictabilityReport:
    """Score a quality curve by the linearity of its response to the factor."""
    x = np.asarray(curve.factors, dtype=float)
    y = np.asarray(curve.qualities, dtype=float)
    slope, r_squared = _ols(x, y)
    return PredictabilityReport(
        extractor=curve.extractor,
        metric=curve.metric,
        r_squared=r_squared,
        slope=slope,
        spearman=_spearman(x, y),
    )


def sweep_candidates(
    pairs: Sequence[tuple[ExtractorKind, MetricKind]],
    images: Sequence[SemanticMap],
    factors: Sequence[int],
    backend: GenerationBackend,
    image_ids: Sequence[str] | None = None,
) -> list[ResponseCurve]:
    """Every candidate pair's noise-free curve, in pair order.

    The pairs are swept in forked worker processes, one per usable CPU and
    at most one per pair. The workers inherit the corpus, so each task sends
    only its pair and returns only its curve. With one worker, or where the
    platform cannot fork or report its usable CPUs, they are swept in this
    process. Either way the curves are the same, and a pair's error is
    raised as the in-process loop raises it.
    """
    with in_order(lambda pair: sweep_curve(*pair, images, factors, backend, image_ids), pairs) as curves:
        return list(curves)


def rank_reports(reports: Sequence[PredictabilityReport]) -> list[PredictabilityReport]:
    """Most predictable first: highest R squared, then largest |Spearman|, then pair name."""
    return sorted(reports, key=lambda r: (-r.r_squared, -abs(r.spearman), r.pair_label))


def select_pair(
    extractors: Sequence[ExtractorKind],
    metrics: Sequence[MetricKind],
    images: Sequence[SemanticMap],
    factors: Sequence[int],
    backend: GenerationBackend,
    image_ids: Sequence[str] | None = None,
) -> PredictabilityReport:
    """Most predictable pair in the product of the candidate lists.

    A service archetype that fixes the extractor, the metric or both
    passes one candidate for that dimension.
    """
    pairs = list(product(extractors, metrics))
    if not pairs:
        raise DomainError("candidate set is empty: pass at least one extractor and one metric")
    curves = sweep_candidates(pairs, images, factors, backend, image_ids)
    return rank_reports([fit_predictability(c) for c in curves])[0]
