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
from .image import _VALUE_BAND, BINARY, LABELS, MAX_LEVELS, SemanticMap, read_pgm, restore_kind

# Largest Canny sigma: the blur has 2 ceil(3 sigma) + 1 taps, and its
# scratch buffers grow with the radius.
MAX_SIGMA = 100.0


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
        if not 0.0 < self.sigma <= MAX_SIGMA:
            raise DomainError(f"sigma must lie in (0, {MAX_SIGMA}], got {self.sigma}")


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


def _new_rows(i: int, n: int, halo: int, h: int) -> tuple[int, int, int]:
    """(start, lo, hi) for a stage whose band buffer holds rows i-halo..i+n+halo.

    Buffer row 0 is image row start, and image rows lo..hi are the ones
    the band at row i (of n rows) computes: all of them in the first
    band, and after it those past the rows the band before carried over.
    """
    start = i - halo
    return start, max(start if i == 0 else i + halo, 0), min(i + n + halo, h)


def _fill_border_rows(buf: np.ndarray, start: int, h: int) -> None:
    """Rows of buf above or below the image get a copy of its first or last row.

    Row j of buf is image row start + j, and the image rows in it are filled.
    """
    if start < 0:
        buf[:-start] = buf[-start]
    if start + len(buf) > h:
        buf[h - start :] = buf[h - 1 - start]


def _carve(flat: np.ndarray, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Arrays of the given shapes laid end to end from the start of flat."""
    out, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[at : at + size].reshape(shape))
        at += size
    return out


def _tap_sum(views: list[np.ndarray], weights: np.ndarray, t: np.ndarray, acc: np.ndarray, out: np.ndarray) -> None:
    """out = 0.0 + weights[0] views[0] + weights[1] views[1] + ..., added in that order.

    Sums in acc, which may be out; the last addition writes to out.  t
    holds each product.
    """
    np.add(np.multiply(views[0], weights[0], out=t), 0.0, out=acc)
    for view, weight in zip(views[1:-1], weights[1:-1]):
        acc += np.multiply(view, weight, out=t)
    np.add(acc, np.multiply(views[-1], weights[-1], out=t), out=out)


def _gradient_bands(pixels: np.ndarray, sigma: float | None):
    """Sobel gradients of pixels, Gaussian-blurred first if sigma is given, one band of rows at a time.

    Yields (i, gx, gy, mag) per band of rows i..i+n: gx and gy of the
    band's rows, and mag, their np.hypot, for rows i-1..i+n+1 and with a
    column either side, rows and columns past the border being copies of
    the border.  The arrays are overwritten by the next band.

    Every stage computes a pixel as a whole-array pass would: the blur's
    x then y pass (radius ceil(3 sigma), taps added in offset order to
    0.0), then d[-1] + 2 d[0] + d[1] over paired differences, in that
    order.  Each stage keeps its band's rows plus a halo of the rows its
    next stage reads beyond them: ceil(3 sigma) + 2 rows of the x pass, 2
    of the blurred rows and 1 of the gradients.  Rows are clamped at the
    image's border only, and each band carries over the rows it shares
    with the next, so every row of every stage is computed once.
    """
    h, w = pixels.shape
    band = min(max(1, _VALUE_BAND // w), h)
    pitch = w + 2
    # gx and gy, mag, and the (blurred) source rows, each with its halo.
    shapes = [(2, band + 2, pitch), (band + 2, pitch), (band + 4, pitch)]
    # Temporaries, used by one stage at a time: the differences, or the blur's.
    size = (band + 3) * pitch
    if sigma is not None:
        radius = math.ceil(3.0 * sigma)
        offsets = np.arange(-radius, radius + 1)
        weights = np.exp(-(offsets.astype(float) ** 2) / (2.0 * sigma * sigma))
        weights /= weights.sum()
        halo = radius + 2
        shapes.append((band + 2 * halo, w))  # the x pass
        size = max(size, (band + halo) * (2 * w + 2 * radius))
    # One allocation holds every buffer: separate arrays, all freed together
    # at the end of a call, can be returned to the system, and a small image
    # would then page-fault them in again on every call.
    block = np.empty(sum(math.prod(shape) for shape in shapes) + size)
    grad, mag, src, *rest = _carve(block, *shapes)
    across = rest[0] if rest else None
    scratch = block[-size:]
    for i in range(0, h, band):
        n = min(band, h - i)
        if i:
            # The rows shared with the band before sit at the end of its buffers.
            grad[:, :2] = grad[:, band : band + 2]
            mag[:2] = mag[band : band + 2]
            src[:4] = src[band : band + 4]
            if sigma is not None:
                across[: 2 * halo] = across[band : band + 2 * halo]
        if sigma is not None:
            start, lo, hi = _new_rows(i, n, halo, h)
            if lo < hi:
                m = hi - lo
                part, t = _carve(scratch, (m, w + 2 * radius), (m, w))
                part[:, radius : radius + w] = pixels[lo:hi]
                part[:, :radius] = part[:, radius : radius + 1]
                part[:, radius + w :] = part[:, radius + w - 1 : radius + w]
                out = across[lo - start : hi - start]
                _tap_sum([part[:, k : k + w] for k in range(len(weights))], weights, t, out, out)
            _fill_border_rows(across[: n + 2 * halo], start, h)
        start, lo, hi = _new_rows(i, n, 2, h)
        if lo < hi:
            m = hi - lo
            out = src[lo - start : hi - start]
            if sigma is None:
                out[:, 1 : w + 1] = pixels[lo:hi]
            else:
                # Summed in contiguous rows; only the last addition writes
                # into the column-padded ones.
                acc, t = _carve(scratch, (m, w), (m, w))
                top = lo - radius - (i - halo)
                views = [across[top + k : top + k + m] for k in range(len(weights))]
                _tap_sum(views, weights, t, acc, out[:, 1 : w + 1])
            out[:, 0] = out[:, 1]
            out[:, w + 1] = out[:, w]
        _fill_border_rows(src[: n + 4], start, h)
        start, lo, hi = _new_rows(i, n, 1, h)
        if lo < hi:
            m = hi - lo
            # The differences and their sums run over rows laid end to end,
            # so every operand is contiguous: position r * pitch + c is
            # column c of row r for c < w, and the two wrapped positions
            # after it are finite and never read.
            rows = src[lo - 1 - (i - 2) : hi + 1 - (i - 2)].reshape(-1)
            k = m * pitch - 2
            gx = grad[0, lo - start : hi - start].reshape(-1)[:k]
            gy = grad[1, lo - start : hi - start].reshape(-1)[:k]
            dx = np.subtract(rows[2:], rows[:-2], out=scratch[: len(rows) - 2])
            np.multiply(dx[pitch : pitch + k], 2.0, out=gx)
            np.add(dx[:k], gx, out=gx)
            gx += dx[2 * pitch : 2 * pitch + k]
            dy = np.subtract(rows[2 * pitch :], rows[: -2 * pitch], out=scratch[: m * pitch])
            np.multiply(dy[1 : k + 1], 2.0, out=gy)
            np.add(dy[:k], gy, out=gy)
            gy += dy[2 : k + 2]
            out = mag[lo - start : hi - start]
            np.hypot(grad[0, lo - start : hi - start, :w], grad[1, lo - start : hi - start, :w], out=out[:, 1 : w + 1])
            out[:, 0] = out[:, 1]
            out[:, w + 1] = out[:, w]
        _fill_border_rows(mag[: n + 2], start, h)
        yield i, grad[0, 1 : n + 1, :w], grad[1, 1 : n + 1, :w], mag[: n + 2]


_SECTOR_NEIGHBORS = ((0, 1), (1, 1), (1, 0), (1, -1))


def canny(image: SemanticMap, params: Canny = Canny()) -> SemanticMap:
    """Binary edge map via blur, Sobel, non-maximum suppression, hysteresis.

    Stages: Gaussian blur (radius ceil(3*sigma), clamped borders), 3x3
    Sobel gradients, direction quantized to 4 sectors, keep-if->= NMS
    along the gradient, double threshold at low/high fractions of the
    maximum magnitude, then 8-connected hysteresis from strong pixels.
    All stages up to the NMS run one band of rows at a time
    (_suppress_non_maxima), and the maximum magnitude is the largest of
    the bands' maxima.
    """
    if min(image.width, image.height) < 5:
        raise DomainError(f"canny needs min dimension >= 5, got {image.width}x{image.height}")
    h, w = image.shape
    band = min(max(1, _VALUE_BAND // w), h)
    kept, gmax = _suppress_non_maxima(image.pixels, params.sigma, band)
    if gmax == 0.0:
        return SemanticMap._adopt(np.zeros((h, w), np.uint8), BINARY)

    # Every pixel the NMS did not keep has magnitude 0, which reaches a threshold only if it is 0.
    strong, weak = (np.full((h, w), 0.0 >= t * gmax) for t in (params.high, params.low))
    for i, (at, values) in zip(range(0, h, band), kept):
        for passed, t in ((strong, params.high), (weak, params.low)):
            passed[i : i + band].reshape(-1)[np.compress(values >= t * gmax, at)] = True
    del kept  # freed before the hysteresis buffers are allocated
    # 8-connected growth from the strong pixels through the weak ones: a
    # 3x3 dilation as a row pass then a column pass over a zero border,
    # which reaches what clamping the border would.
    edges = frontier = strong
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    rows = np.empty((h + 2, w), dtype=bool)
    reach = np.empty((h, w), dtype=bool)
    while frontier.any():
        padded[1:-1, 1:-1] = frontier
        np.logical_or(padded[:, :-2], padded[:, 1:-1], out=rows)
        rows |= padded[:, 2:]
        np.logical_or(rows[:-2], rows[1:-1], out=reach)
        reach |= rows[2:]
        reach &= weak
        frontier = np.greater(reach, edges, out=reach)  # reach & ~edges
        edges |= frontier
    return SemanticMap._adopt(edges.view(np.uint8), BINARY)


def _suppress_non_maxima(pixels: np.ndarray, sigma: float, band: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], float]:
    """canny's stages up to the NMS, over ``band`` rows at a time (see _gradient_bands).

    Returns, per band, the flat positions within the band of the pixels
    the NMS keeps with a positive magnitude and their magnitudes, and the
    maximum magnitude.
    """
    h, w = pixels.shape
    angles = np.empty((band, w))
    turn = np.empty((band, w))
    flags = np.empty((8, band, w), dtype=bool)
    kept = []
    gmax = 0.0
    for i, gx, gy, mag in _gradient_bands(pixels, sigma):
        n = len(gx)
        gmax = max(gmax, mag[1:-1].max())
        # Direction modulo 180 degrees.  Adding 180 to the negative angles
        # (and 0 to the others) is what % 180 computes for them; -180 and
        # 180 (0 under %) and -0.0 all fall in sector 0 either way.
        deg = np.arctan2(gy, gx, out=angles[:n])
        np.degrees(deg, out=deg)
        past = flags[:4, :n]
        sector, ge, ge_back, keep = flags[4:, :n]
        deg += np.multiply(np.less(deg, 0.0, out=sector), 180.0, out=turn[:n])
        # With past[k] = deg >= 22.5 + 45 k, sector s in 1..3 is
        # past[s-1] & ~past[s], and sector 0 is ~past[0] | past[3].
        for k in range(4):
            np.greater_equal(deg, 22.5 + 45.0 * k, out=past[k])
        core = mag[1 : n + 1, 1 : w + 1]
        keep.fill(False)
        for s, (dy, dx) in enumerate(_SECTOR_NEIGHBORS):
            if s:
                np.greater(past[s - 1], past[s], out=sector)
            else:
                np.less_equal(past[0], past[3], out=sector)
            np.greater_equal(core, mag[1 + dy : 1 + dy + n, 1 + dx : 1 + dx + w], out=ge)
            np.greater_equal(core, mag[1 - dy : 1 - dy + n, 1 - dx : 1 - dx + w], out=ge_back)
            ge &= ge_back
            ge &= sector
            keep |= ge
        keep &= np.greater(core, 0.0, out=ge)
        at = np.flatnonzero(keep).astype(np.int32)
        np.copyto(deg, core)  # contiguous, for the gather
        kept.append((at, deg.reshape(-1).take(at)))
    return kept, gmax


def sobel_magnitude(image: SemanticMap) -> SemanticMap:
    """Gradient magnitude rescaled by its maximum; all-flat input gives zeros.

    The magnitudes are computed one band of rows at a time (see
    _gradient_bands) into one image-sized array, which is divided in
    place by the largest of the bands' maxima.
    """
    if min(image.width, image.height) < 3:
        raise DomainError(f"sobel needs min dimension >= 3, got {image.width}x{image.height}")
    h, w = image.shape
    out = np.empty((h, w))
    gmax = 0.0
    for i, gx, _, mag in _gradient_bands(image.pixels, None):
        n = len(gx)
        gmax = max(gmax, mag[1:-1].max())
        out[i : i + n] = mag[1 : n + 1, 1 : w + 1]
    if gmax != 0.0:
        out /= gmax
    return SemanticMap._adopt(out)


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
