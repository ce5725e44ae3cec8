"""Semantic extraction: turn a source image into the map a service transmits.

Desk-scale extractors are computed here (Canny edges, Sobel magnitude,
intensity quantization); heavyweight learned extractors (depth, pose,
learned edges) are supported only as precomputed PGM files located
through a ``{id}`` path template.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MissingMapError, ShapeError
from .image import BINARY, LABELS, MAX_LEVELS, SemanticMap, read_pgm, restore_kind


@dataclass(frozen=True)
class Canny:
    """Fractional-threshold Canny parameters.

    ``low`` and ``high`` are fractions of the maximum gradient magnitude,
    so edge sets are invariant under positive affine intensity scaling.
    """

    low: float = 0.1
    high: float = 0.2
    sigma: float = 1.4

    def __post_init__(self):
        if not 0.0 < self.low < self.high <= 1.0:
            raise DomainError(f"need 0 < low < high <= 1, got low={self.low} high={self.high}")
        if self.sigma <= 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class SobelMagnitude:
    """Soft edge map: Sobel gradient magnitude rescaled to [0, 1]."""


@dataclass(frozen=True)
class QuantizeSegmentation:
    """Intensity quantization into K levels, a stand-in for learned segmentation."""

    levels: int

    def __post_init__(self):
        if not 2 <= self.levels <= MAX_LEVELS:
            raise DomainError(f"level count must lie in [2, {MAX_LEVELS}], got {self.levels}")


@dataclass(frozen=True)
class ExternalMap:
    """Precomputed map loaded from ``template`` with ``{id}`` substituted."""

    template: str

    def __post_init__(self):
        if "{id}" not in self.template:
            raise DomainError(f"template must contain '{{id}}', got {self.template!r}")


ExtractorKind = Canny | SobelMagnitude | QuantizeSegmentation | ExternalMap


def extractor_label(kind: ExtractorKind) -> str:
    """Stable comma-free name used in CSV output and tie-breaking."""
    if isinstance(kind, Canny):
        return f"canny(low={kind.low};high={kind.high};sigma={kind.sigma})"
    if isinstance(kind, SobelMagnitude):
        return "sobel"
    if isinstance(kind, QuantizeSegmentation):
        return f"quantize(k={kind.levels})"
    if isinstance(kind, ExternalMap):
        return f"external({kind.template})"
    raise DomainError(f"unknown extractor kind {kind!r}")


def _edge_padded(arr: np.ndarray, ry: int, rx: int) -> np.ndarray:
    """arr with ry rows and rx columns of clamped border on each side.

    Slice ``[ry + dy : ry + dy + h, rx + dx : rx + dx + w]`` of the result
    is arr shifted by (dy, dx) with border coordinates clamped, for any
    |dy| <= ry and |dx| <= rx, even when the pad is wider than arr.
    """
    return np.pad(arr, ((ry, ry), (rx, rx)), mode="edge")


def _gaussian_blur(arr: np.ndarray, sigma: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1)
    weights = np.exp(-(offsets.astype(float) ** 2) / (2.0 * sigma * sigma))
    weights /= weights.sum()
    h, w = arr.shape
    # Separable passes with per-axis clamping equal the 2D product kernel.
    # Taps are added in offset order, starting from zero.
    term = np.empty_like(arr)
    out = np.zeros_like(arr)
    padded = _edge_padded(arr, 0, radius)
    for k in range(offsets.size):
        out += np.multiply(padded[:, k : k + w], weights[k], out=term)
    final = np.zeros_like(arr)
    padded = _edge_padded(out, radius, 0)
    for k in range(offsets.size):
        final += np.multiply(padded[k : k + h], weights[k], out=term)
    return final


def _sobel_gradients(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Paired differences keep flat regions at exactly zero gradient.  gx
    # smooths the column differences of three adjacent rows, gy the row
    # differences of three adjacent columns.
    padded = _edge_padded(arr, 1, 1)
    gx = _smooth_121(padded[:, 2:] - padded[:, :-2], axis=0)
    gy = _smooth_121(padded[2:] - padded[:-2], axis=1)
    return gx, gy


def _smooth_121(diff: np.ndarray, axis: int) -> np.ndarray:
    """d[-1] + 2 d[0] + d[1] over neighbouring slices of diff along axis, summed in that order."""
    if axis == 0:
        out = diff[:-2] + diff[1:-1] * 2.0
        out += diff[2:]
    else:
        out = diff[:, :-2] + diff[:, 1:-1] * 2.0
        out += diff[:, 2:]
    return out


_SECTOR_NEIGHBORS = ((0, 1), (1, 1), (1, 0), (1, -1))


def canny(image: SemanticMap, params: Canny = Canny()) -> SemanticMap:
    """Binary edge map via blur, Sobel, non-maximum suppression, hysteresis.

    Stages: Gaussian blur (radius ceil(3*sigma), clamped borders), 3x3
    Sobel gradients, direction quantized to 4 sectors, keep-if->= NMS
    along the gradient, double threshold at low/high fractions of the
    maximum magnitude, then 8-connected hysteresis from strong pixels.
    """
    if min(image.width, image.height) < 5:
        raise DomainError(f"canny needs min dimension >= 5, got {image.width}x{image.height}")
    blurred = _gaussian_blur(image.pixels, params.sigma)
    gx, gy = _sobel_gradients(blurred)
    mag = np.hypot(gx, gy)
    gmax = mag.max()
    if gmax == 0.0:
        return SemanticMap(np.zeros_like(mag), kind=BINARY)

    # Direction modulo 180 degrees.  Adding 180 to the negative angles is
    # what % 180 computes for them; -180 and 180 (0 under %) and -0.0 all
    # fall in sector 0 either way.
    deg = np.degrees(np.arctan2(gy, gx))
    np.add(deg, 180.0, out=deg, where=deg < 0.0)
    bands = [(deg >= lo) & (deg < lo + 45.0) for lo in (22.5, 67.5, 112.5)]
    sectors = [~(bands[0] | bands[1] | bands[2]), *bands]

    h, w = mag.shape
    padded = _edge_padded(mag, 1, 1)
    keep = np.zeros(mag.shape, dtype=bool)
    for in_sector, (dy, dx) in zip(sectors, _SECTOR_NEIGHBORS):
        fwd = padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
        bwd = padded[1 - dy : 1 - dy + h, 1 - dx : 1 - dx + w]
        keep |= in_sector & (mag >= fwd) & (mag >= bwd)
    nms = np.where(keep, mag, 0.0)

    strong = nms >= params.high * gmax
    weak = nms >= params.low * gmax
    edges = strong.copy()
    frontier = strong
    while frontier.any():
        # 3x3 dilation as a row pass then a column pass; the centre term
        # adds only pixels already in edges.
        padded = _edge_padded(frontier, 1, 1)
        rows = padded[:, :-2] | padded[:, 1:-1]
        rows |= padded[:, 2:]
        reach = rows[:-2] | rows[1:-1]
        reach |= rows[2:]
        newly = reach & weak & ~edges
        edges |= newly
        frontier = newly
    return SemanticMap(edges.astype(np.float64), kind=BINARY)


def sobel_magnitude(image: SemanticMap) -> SemanticMap:
    """Gradient magnitude rescaled by its maximum; all-flat input gives zeros."""
    if min(image.width, image.height) < 3:
        raise DomainError(f"sobel needs min dimension >= 3, got {image.width}x{image.height}")
    gx, gy = _sobel_gradients(image.pixels)
    mag = np.hypot(gx, gy)
    gmax = mag.max()
    if gmax == 0.0:
        return SemanticMap(np.zeros_like(mag))
    return SemanticMap(mag / gmax)


def quantize_segmentation(image: SemanticMap, levels: int) -> SemanticMap:
    """Quantize intensities into K levels on the grid {0/(K-1), ..., 1}."""
    return restore_kind(image.pixels, LABELS, levels)


def external_map(template: str, image_id: str) -> SemanticMap:
    """Load the precomputed PGM at ``template`` with ``{id}`` substituted."""
    path = template.replace("{id}", image_id)
    if not os.path.exists(path):
        raise MissingMapError(f"external semantic map not found: {path}")
    return read_pgm(path)


def extract(kind: ExtractorKind, image: SemanticMap, image_id: str | None = None) -> SemanticMap:
    """Run the extractor ``kind`` on ``image``; external maps need ``image_id``."""
    if isinstance(kind, Canny):
        return canny(image, kind)
    if isinstance(kind, SobelMagnitude):
        return sobel_magnitude(image)
    if isinstance(kind, QuantizeSegmentation):
        return quantize_segmentation(image, kind.levels)
    if isinstance(kind, ExternalMap):
        if image_id is None:
            raise DomainError("external extractor needs an image id")
        loaded = external_map(kind.template, image_id)
        if (loaded.width, loaded.height) != (image.width, image.height):
            raise ShapeError(
                f"external map for {image_id!r} is {loaded.width}x{loaded.height}, "
                f"source image is {image.width}x{image.height}"
            )
        return loaded
    raise DomainError(f"unknown extractor kind {kind!r}")
