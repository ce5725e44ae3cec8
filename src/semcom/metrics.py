"""Normalized similarity scores between a reference map and its reconstruction.

Every metric maps to [0, 1] with 1 meaning an exact match:

    mse   q = 1 - mean((a - b)^2)
    psnr  q = min(10 log10(1 / mse), cap) / cap, with q = 1 when mse = 0
    ssim  mean over all sliding windows of the standard SSIM ratio, clamped
    vi    q = 1 - VI / (2 ln K) on K-level quantizations, clamped

A map scored against itself (the same object) is an exact match: ``score``
returns 1.0 for it without computing, after the same argument checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, TooSmallError
from .image import BINARY, LABELS, MAX_LEVELS, SOFT, SemanticMap, _level_floor


@dataclass(frozen=True)
class MseQuality:
    pass


@dataclass(frozen=True)
class PsnrQuality:
    cap_db: float = 50.0

    def __post_init__(self):
        if not (math.isfinite(self.cap_db) and self.cap_db > 0.0):
            raise DomainError(f"cap must be finite and positive, got {self.cap_db}")


# SSIM stabilising constants (0.01 L)^2 and (0.03 L)^2 with L = 1.  Both are
# positive, so a flat window's ratio is c1 c2 / (c1 c2) rather than 0/0.
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


@dataclass(frozen=True)
class SsimQuality:
    window: int = 8

    def __post_init__(self):
        if self.window < 2:
            raise DomainError(f"window must be >= 2, got {self.window}")


@dataclass(frozen=True)
class ViQuality:
    levels: int

    def __post_init__(self):
        if not 2 <= self.levels <= MAX_LEVELS:
            raise DomainError(f"level count must lie in [2, {MAX_LEVELS}], got {self.levels}")


MetricKind = MseQuality | PsnrQuality | SsimQuality | ViQuality


def metric_label(kind: MetricKind) -> str:
    """Stable comma-free name used in CSV output and tie-breaking."""
    if isinstance(kind, MseQuality):
        return "mse"
    if isinstance(kind, PsnrQuality):
        return f"psnr(cap={kind.cap_db})"
    if isinstance(kind, SsimQuality):
        return f"ssim(w={kind.window})"
    if isinstance(kind, ViQuality):
        return f"vi(k={kind.levels})"
    raise DomainError(f"unknown metric kind {kind!r}")


def _check_shapes(a: SemanticMap, b: SemanticMap) -> None:
    if a.pixels.shape != b.pixels.shape:
        raise ShapeError(f"resolution mismatch: {a.width}x{a.height} vs {b.width}x{b.height}")


def _mean_squared_difference(a: SemanticMap, b: SemanticMap) -> float:
    """mean((a - b) ** 2), squaring the difference in place; numpy's ``** 2`` is the same multiply."""
    _check_shapes(a, b)
    diff = a.pixels - b.pixels
    np.multiply(diff, diff, out=diff)
    return float(np.mean(diff))


def mse_quality(a: SemanticMap, b: SemanticMap) -> float:
    return 1.0 - _mean_squared_difference(a, b)


def psnr_quality(a: SemanticMap, b: SemanticMap, cap_db: float = 50.0) -> float:
    mse = _mean_squared_difference(a, b)
    if mse == 0.0:
        return 1.0
    return min(10.0 * math.log10(1.0 / mse), cap_db) / cap_db


# Elements of one plane's rows that ssim_quality builds per band of output
# rows: the band buffers of two SOFT maps, with five float64 planes, hold
# about 4 MB at window 8 on a 1024-pixel-wide map.
_BAND = 1 << 14


def _check_window(a: SemanticMap, w: int) -> None:
    if a.width < w or a.height < w:
        raise TooSmallError(f"both dimensions must be >= window {w}, got {a.width}x{a.height}")


def ssim_quality(a: SemanticMap, b: SemanticMap, params: SsimQuality = SsimQuality()) -> float:
    """Mean SSIM over all w x w windows (Wang et al., IEEE TIP 13(4), 2004).

    Each map is scored on a plane: a SOFT map's own values, or the levels
    l = rint(v (K - 1)) of a map on a K-level grid, BINARY (K = 2) or
    LABELS. The planes x, y and xy, and the square of each map that is not
    BINARY (a 0/1 level is its own square), are built one band of output
    rows at a time. Their window sums are summed down the columns and then
    along the rows by doubling (``_window_sums``), and each mean is its
    sum divided by w*w times its plane's scale, rounded once: 1 for a SOFT
    map and K - 1 for a grid map, their product for xy and their squares
    for x^2 and y^2. When either map is SOFT the planes are float64, and
    the sums round in the doubling order, which no band edge changes. Two
    grid maps' planes take the smallest unsigned dtype that holds the
    largest window sum, w*w max(Kx - 1, Ky - 1)^2, so every sum is exact.
    Only the ratio map is image-sized, and one ``np.mean`` over all of it
    keeps numpy's pairwise summation, so the score has the same bits as
    the whole-array form.
    """
    _check_shapes(a, b)
    w = params.window
    _check_window(a, w)
    height, width = a.pixels.shape
    ratio = np.empty((height - w + 1, width - w + 1))
    band = min(max(1, _BAND // width), len(ratio))
    sx, sy = (m.levels - 1 if m.kind == LABELS else 1 for m in (a, b))
    # Planes x, y and xy, then the square of each map that is not BINARY, and
    # the row of ``means`` that each plane's means fill.
    squared = [i for i, m in enumerate((a, b)) if m.kind != BINARY]
    scales = [sx, sy, sx * sy] + [(sx, sy)[i] ** 2 for i in squared]
    rows = [0, 1, 2] + [3 + i for i in squared]
    # Two grid maps' window sums reach w*w max(sx, sy)^2, and the smallest
    # unsigned dtype that holds it keeps every sum exact: for two BINARY maps,
    # uint8 up to w = 15, uint16 up to 255, then uint32. With K <= 255 and w
    # at most the map's side, a sum passes 2^53 only beyond about 373,000
    # pixels a side.
    dtype = np.float64 if SOFT in (a.kind, b.kind) else np.min_scalar_type(w * w * max(sx, sy) ** 2)
    planes = np.empty((len(scales), (band + w - 1) * width), dtype)
    # float scratch for the levels of a map with more than two levels
    scaled = np.empty(planes.shape[1]) if max(sx, sy) > 1 else None
    # Window (r, c) is at position r * width + c; the positions past the last
    # window of a row wrap into the next row, are finite, and never reach
    # ``ratio``.
    means = np.empty((5, band * width))
    scratch = np.empty(band * width)
    for i in range(0, len(ratio), band):
        n = min(band, len(ratio) - i)
        v = planes[:, : (n + w - 1) * width]
        for j, (src, s) in enumerate(((a.pixels, sx), (b.pixels, sy))):
            src = src[i : i + n + w - 1].reshape(-1)
            if s > 1:
                np.rint(np.multiply(src, s, out=scaled[: src.size]), out=v[j], casting="unsafe")
            else:
                np.copyto(v[j], src, casting="unsafe")
        np.multiply(v[0], v[1], out=v[2])
        for j, p in enumerate(squared, 3):
            np.multiply(v[p], v[p], out=v[j])
        k = (n - 1) * width + ratio.shape[1]
        sums = _window_sums(_window_sums(v, w, width, n * width), w, 1, k)
        m = means[:, :k]
        for row, total, scale in zip(rows, sums, scales):
            np.divide(total, w * w * scale, out=m[row])
        for j in {0, 1} - set(squared):
            m[3 + j] = m[j]
        _ssim_ratio(means[:, : n * width], scratch, ratio[i : i + n])
    return min(max(float(np.mean(ratio)), 0.0), 1.0)


def _window_sums(v: np.ndarray, w: int, step: int, k: int) -> np.ndarray:
    """Sums of w entries ``step`` apart in each row of v, at its first k positions.

    Sums of widths 1, 2, 4, ... come from doubling, each the sum of two of
    the width before, and the ones for the set bits of w are added in,
    lowest bit first, so the cost grows with log w. Integer sums are exact
    while the dtype holds them; float sums round in this order, which is
    the same at every position. Overwrites v.
    """
    spare = np.empty_like(v)
    total, offset, span = None, 0, 1
    while True:
        if w & span:
            sums = v[:, offset * step : offset * step + k]
            if total is None:
                # Later doublings overwrite v, so only the last set bit's sums are kept as a view.
                total = sums if span == w else sums.copy()
            else:
                total += sums
            offset += span
        if 2 * span > w:
            return total
        size = v.shape[1] - span * step
        v, spare = np.add(v[:, :size], v[:, span * step :], out=spare[:, :size]), v
        span *= 2


def _ssim_ratio(means: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """Write the SSIM ratio of the rows of windows in ``out`` from their means, overwriting them.

    means[0..4] hold the window means of x, y, xy, x^2 and y^2 for len(out)
    rows of the image, window (r, c) at position r * width + c.
    """
    n, ow = out.shape
    width = means.shape[1] // n
    k = (n - 1) * width + ow
    mx, my, cov, vx, vy = means[:, :k]
    t = scratch[:k]
    # ((2 mx my + c1)(2 cov + c2)) / ((mx^2 + my^2 + c1)(vx + vy + c2))
    # with sample (not Bessel-corrected) second moments, each factor
    # evaluated in that left-to-right order. The xy, x^2 and y^2 means
    # turn into cov, vx and vy in place.
    np.multiply(mx, my, out=t)
    cov -= t
    np.multiply(2.0, mx, out=t)
    t *= my
    t += SSIM_C1
    cov *= 2.0
    cov += SSIM_C2
    cov *= t
    mx *= mx
    vx -= mx
    my *= my
    vy -= my
    mx += my
    mx += SSIM_C1
    vx += vy
    vx += SSIM_C2
    mx *= vx
    grid = means.reshape(5, n, width)[:, :, :ow]
    np.divide(grid[2], grid[0], out=out)


# Pixels of each map vi_quality bins at a time.
_VI_BAND = 1 << 15


def vi_quality(a: SemanticMap, b: SemanticMap, levels: int) -> float:
    """Variation-of-information score on K-level quantizations, in nats.

    The joint histogram of the two maps' levels is counted one band of
    _VI_BAND pixels at a time into one integer count vector, so it holds
    the same counts as a histogram of the whole maps.
    """
    _check_shapes(a, b)
    x, y = a.pixels.reshape(-1), b.pixels.reshape(-1)
    n = x.size
    band = min(n, _VI_BAND)
    bx, by = np.empty(band), np.empty(band)
    counts = 0  # the first band's histogram replaces it; _level_floor checks levels first
    for i in range(0, n, band):
        m = min(band, n - i)
        # Levels are whole numbers below K, so K la + lb is exact in float64.
        la = _level_floor(x[i : i + m], levels, out=bx[:m])
        la *= levels
        la += _level_floor(y[i : i + m], levels, out=by[:m])
        counts += np.bincount(la.astype(np.intp), minlength=levels * levels)
    joint = counts.reshape(levels, levels) / n

    def entropy(p: np.ndarray) -> float:
        nz = p[p > 0.0]
        return float(-np.sum(nz * np.log(nz)))

    hx = entropy(joint.sum(axis=1))
    hy = entropy(joint.sum(axis=0))
    hxy = entropy(joint.ravel())
    mutual = hx + hy - hxy
    vi = hx + hy - 2.0 * mutual
    return min(max(1.0 - vi / (2.0 * math.log(levels)), 0.0), 1.0)


def score(kind: MetricKind, a: SemanticMap, b: SemanticMap) -> float:
    """Dispatch to the metric variant; all scores lie in [0, 1].

    When ``a is b`` the score is an exact match, 1.0, returned without
    computing once the arguments have passed the metric's checks (SSIM
    still rejects a map smaller than its window).
    """
    if not isinstance(kind, MetricKind):
        raise DomainError(f"unknown metric kind {kind!r}")
    if a is b:
        if isinstance(kind, SsimQuality):
            _check_window(a, kind.window)
        return 1.0
    if isinstance(kind, MseQuality):
        return mse_quality(a, b)
    if isinstance(kind, PsnrQuality):
        return psnr_quality(a, b, kind.cap_db)
    if isinstance(kind, SsimQuality):
        return ssim_quality(a, b, kind)
    return vi_quality(a, b, kind.levels)
