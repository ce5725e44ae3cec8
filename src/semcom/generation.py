"""Stand-in for the content generation stage.

The receiver-side generator is replaced by the codec round trip: quality
compares what is reconstructible from full-resolution semantics against
what is reconstructible from downscaled semantics, optionally perturbed
by seeded generation noise.  When real generated images are available
offline, the ExternalPairs backend scores those instead, loading
"{image-id}_d{factor}.pgm" files from a directory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .codec import EncodedPayload, decode, encode
from .errors import DomainError, MissingMapError, ValidationFailedError
from .extractors import ExtractorKind, extract
from .image import SemanticMap, _float_rows, read_pgm, restore_kind
from .metrics import MetricKind, score


@dataclass(frozen=True)
class ServiceSpec:
    """One content service: what it extracts, how it scores, what it requires."""

    id: str
    extractor: ExtractorKind
    metric: MetricKind
    threshold: float = 0.0
    weight: float = 1.0
    sigma_gen: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise DomainError(f"threshold must lie in [0, 1], got {self.threshold}")
        if not (math.isfinite(self.weight) and self.weight > 0.0):
            raise DomainError(f"weight must be finite and positive, got {self.weight}")
        if not (math.isfinite(self.sigma_gen) and self.sigma_gen >= 0.0):
            raise DomainError(f"generation noise must be finite and >= 0, got {self.sigma_gen}")


@dataclass(frozen=True)
class Surrogate:
    """Reconstruct through the downscale codec round trip."""


@dataclass(frozen=True)
class ExternalPairs:
    """Score externally generated image pairs from ``directory``."""

    directory: str


GenerationBackend = Surrogate | ExternalPairs


def _external_pair(directory: str, image_id: str, d: int) -> tuple[SemanticMap, SemanticMap]:
    ref_path = os.path.join(directory, f"{image_id}_d1.pgm")
    rec_path = os.path.join(directory, f"{image_id}_d{d}.pgm")
    for path in (ref_path, rec_path):
        if not os.path.exists(path):
            raise MissingMapError(f"external generation pair file not found: {path}")
    return read_pgm(ref_path), read_pgm(rec_path)


class QualityCore:
    """The one evaluation path: quality of one service's content at any factor.

    The semantic map is extracted lazily and once, and so is the factor-1
    reference ``decode(encode(map, 1))``.  Each factor's payload is encoded
    once and kept: one byte per encoded pixel.  A noise-free service's
    score is kept per factor: it is one float, and scoring it draws nothing
    from the rng.  A noisy service's reconstruction, as large as the source
    image, is kept only from the second request for its factor onward, so
    a caller that asks for each factor once holds none.
    """

    def __init__(self, svc: ServiceSpec, source: SemanticMap | None, backend: GenerationBackend = Surrogate()):
        self.svc = svc
        self.source = source
        self.backend = backend
        self._payloads: dict[int, EncodedPayload] = {}
        self._scores: dict[int, float] = {}
        self._recons: dict[int, SemanticMap | None] = {}

    @cached_property
    def semantic(self) -> SemanticMap:
        return extract(self.svc.extractor, self.source, image_id=self.svc.id)

    def payload(self, d: int) -> EncodedPayload:
        """The semantic map encoded at factor d; each factor is encoded once."""
        if d not in self._payloads:
            self._payloads[d] = encode(self.semantic, d)
        return self._payloads[d]

    @cached_property
    def reference(self) -> SemanticMap:
        """Content deliverable from the original semantics: the factor-1 round trip."""
        return decode(self.payload(1))

    def _reconstruct(self, d: int) -> SemanticMap:
        # the reference first: its full-size decode then runs while no reconstruction is held
        reference = self.reference
        return reference if d == 1 else decode(self.payload(d))

    def score_reconstruction(self, recon: SemanticMap, rng: np.random.Generator) -> float:
        """Score received content against the reference, after generation noise."""
        if self.svc.sigma_gen > 0.0:
            # the fresh noise array takes the sum and the clip in place; a soft map keeps it, a grid map its levels
            noisy = rng.normal(0.0, self.svc.sigma_gen, recon.shape)
            noisy += _float_rows(recon, 0, recon.height)
            np.clip(noisy, 0.0, 1.0, out=noisy)
            recon = SemanticMap._adopt(noisy) if recon.grid is None else restore_kind(noisy, recon.kind, recon.levels)
        return score(self.svc.metric, self.reference, recon)

    def quality(self, d: int, rng: np.random.Generator) -> float:
        """Quality when the semantics travel at factor d."""
        if d < 1:
            raise DomainError(f"downscale factor must be >= 1, got {d}")
        if isinstance(self.backend, ExternalPairs):
            ref, rec = _external_pair(self.backend.directory, self.svc.id, d)
            return score(self.svc.metric, ref, rec)
        if self.svc.sigma_gen == 0.0:
            if d not in self._scores:
                self._scores[d] = self.score_reconstruction(self._reconstruct(d), rng)
            return self._scores[d]
        recon = self._recons.get(d)
        if recon is None:
            recon = self._reconstruct(d)
        # None marks a factor asked for once: its reconstruction is kept from the second request on
        self._recons[d] = recon if d in self._recons else None
        return self.score_reconstruction(recon, rng)

    def descend(self, factors: Iterable[int], rng: np.random.Generator) -> tuple[int | None, list[float]]:
        """Try ``factors`` in order; the first meeting the threshold, and every score seen."""
        seen = []
        for d in factors:
            seen.append(self.quality(d, rng))
            if seen[-1] >= self.svc.threshold:
                return d, seen
        return None, seen


def score_semantic(svc: ServiceSpec, semantic: SemanticMap, d: int, rng: np.random.Generator) -> float:
    """Codec round trip on an already-extracted map, plus generation noise.

    The reference is the factor-1 round trip of the same map, mirroring
    the external-pairs convention where "{id}_d1.pgm" is the baseline:
    quality compares content deliverable from original semantics against
    content deliverable from downscaled semantics, so without generation
    noise the factor-1 score is exactly 1 for every metric.
    """
    core = QualityCore(svc, None)
    core.semantic = semantic
    return core.quality(d, rng)


def reconstruct_and_score(
    svc: ServiceSpec,
    source: SemanticMap,
    d: int,
    backend: GenerationBackend,
    rng: np.random.Generator,
) -> float:
    """Quality of the service's content when its semantics travel at factor d."""
    return QualityCore(svc, source, backend).quality(d, rng)


@dataclass(frozen=True)
class ValidationResult:
    """The accepted factor and its quality; ``core`` lets the caller reuse the extracted map and its payloads."""

    accepted_d: int
    quality: float
    core: QualityCore | None = field(default=None, compare=False, repr=False)



def validate_and_adjust(
    svc: ServiceSpec,
    source: SemanticMap,
    d_requested: int,
    factors: Sequence[int],
    backend: GenerationBackend,
    rng: np.random.Generator,
) -> ValidationResult:
    """Step the factor down until the service's quality threshold is met.

    Starts at d_requested and retries at the next smaller admissible
    factor whenever quality falls below the threshold.  Raises
    ValidationFailedError (carrying the last score) when even the
    smallest factor cannot satisfy the service.
    """
    ordered = sorted(factors)
    if d_requested not in ordered:
        raise DomainError(f"requested factor {d_requested} not in admissible set {ordered}")
    core = QualityCore(svc, source, backend)
    accepted, seen = core.descend(reversed(ordered[: ordered.index(d_requested) + 1]), rng)
    if accepted is None:
        raise ValidationFailedError(
            f"service {svc.id}: even factor {ordered[0]} scores {seen[-1]:.6f} < threshold {svc.threshold}",
            quality=seen[-1],
        )
    return ValidationResult(accepted_d=accepted, quality=seen[-1], core=core)


def min_representation_search(
    svc: ServiceSpec,
    source: SemanticMap,
    factors: Sequence[int],
    backend: GenerationBackend,
    rng: np.random.Generator,
) -> int:
    """Largest admissible factor whose quality still meets the threshold.

    Scans descending because quality need not be monotone in the factor;
    the first qualifying factor in the scan is by construction the
    maximum one.
    """
    if not factors:
        raise DomainError("factor set must be non-empty")
    accepted, seen = QualityCore(svc, source, backend).descend(sorted(factors, reverse=True), rng)
    if accepted is None:
        raise ValidationFailedError(
            f"service {svc.id}: no factor in {sorted(factors)} reaches threshold {svc.threshold}",
            quality=max(seen),
        )
    return accepted
