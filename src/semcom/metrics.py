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
from .image import BINARY, LABELS, MAX_LEVELS, SemanticMap, _level_floor


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


# Elements of one moment's rows that ssim_quality builds per band of output
# rows: with five moments, the float path's band buffers hold 2 to 3 MB at
# window 8, whatever the image size.
_BAND = 1 << 14


def _check_window(a: SemanticMap, w: int) -> None:
    if a.width < w or a.height < w:
        raise TooSmallError(f"both dimensions must be >= window {w}, got {a.width}x{a.height}")


def ssim_quality(a: SemanticMap, b: SemanticMap, params: SsimQuality = SsimQuality()) -> float:
    """Mean SSIM over all w x w windows (Wang et al., IEEE TIP 13(4), 2004).

    The window means come from integral images of the five moments x, y,
    xy, x^2 and y^2, built one band of output rows at a time. Each step
    repeats the whole-array arithmetic in its order: column sums
    S_r = S_(r-1) + v_r from the first row itself, a running sum along
    each row, then the four-term window sum over w*w. Only the ratio map
    is image-sized, and one ``np.mean`` over all of it keeps numpy's
    pairwise summation, so the score has the same bits as the whole-array
    form.

    Two maps on level grids, BINARY (K = 2) or LABELS (K levels), are
    scored from exact integer window sums instead. Pixel v of a K-level
    map is level l = rint(v (K - 1)), and each band's rows of lx, ly and
    lx ly, plus lx^2 and ly^2 for a map with K > 2 (a 0/1 level is its
    own square), are cast to the smallest unsigned dtype that holds the
    largest window sum, w*w max(Kx - 1, Ky - 1)^2. Their window sums are
    summed down the columns and then along the rows by doubling, exact in
    any order, and each mean is its sum divided by w*w times its plane's
    level scale, (Kx - 1), (Ky - 1), (Kx - 1)(Ky - 1), (Kx - 1)^2 or
    (Ky - 1)^2, rounded once. Both paths share the ratio arithmetic. For
    two BINARY maps every divisor is w*w and every float sum above is an
    exact integer, so both paths give the same bits. For a LABELS map the
    float sums round, and its scores differ from the float path's in their
    last digits.
    """
    _check_shapes(a, b)
    w = params.window
    _check_window(a, w)
    height, width = a.pixels.shape
    ratio = np.empty((height - w + 1, width - w + 1))
    band = min(max(1, _BAND // width), len(ratio))
    sx, sy = _level_scale(a), _level_scale(b)
    # K <= 255 and w <= the map's side: a window sum passes 2^53 only beyond about 373,000 pixels a side
    if sx and sy:
        _grid_ssim_rows(a.pixels, sx, b.pixels, sy, w, band, ratio)
    else:
        _float_ssim_rows(a.pixels, b.pixels, w, band, ratio)
    return min(max(float(np.mean(ratio)), 0.0), 1.0)


def _level_scale(a: SemanticMap) -> int | None:
    """K - 1 for a map on the K-level grid: 1 for BINARY, levels - 1 for LABELS; None for SOFT."""
    if a.kind == BINARY:
        return 1
    if a.kind == LABELS:
        return a.levels - 1
    return None


def _float_ssim_rows(x: np.ndarray, y: np.ndarray, w: int, band: int, ratio: np.ndarray) -> None:
    """Fill ``ratio`` with the SSIM of every window, from float integral images."""
    oh, ow = ratio.shape
    width = x.shape[1]
    span = width + 1
    # cs[1:] holds the running column sums of a band's source rows, the
    # moments side by side in each row, and cs[0] those of the row before.
    cs = np.empty((band + w, 5, width))
    # g[m] holds rows of moment m's integral image, zero in column 0; the
    # first w rows of each band are the last w of the band before.
    g = np.zeros((5, band + w, span))
    flat = g.reshape(5, -1)
    # Window means and ratio terms run over each plane's rows laid end to
    # end, so every operand is contiguous: position r * span + c is window
    # (r, c) for c < ow, and the wrapped positions past ow are finite and
    # never read.
    means = np.empty((5, band * span))
    # The ratio terms' scratch lies clear of cs[0], in rows free once in g.
    scratch = cs.reshape(-1)[-band * span :]
    top, src = 1, 0  # next integral row to fill, and the source row it comes from
    for i in range(0, oh, band):
        n = min(band, oh - i)
        end = i + n + w - 1
        rows = cs[1 : 1 + end - src]
        xs, ys = x[src:end], y[src:end]
        rows[:, 0] = xs
        rows[:, 1] = ys
        np.multiply(xs, ys, out=rows[:, 2])
        np.multiply(xs, xs, out=rows[:, 3])
        np.multiply(ys, ys, out=rows[:, 4])
        for r in range(1 if src else 2, len(rows) + 1):
            np.add(cs[r - 1], cs[r], out=cs[r])
        cs[0] = rows[-1]
        np.cumsum(rows, axis=2, out=g[:, top : n + w, 1:].transpose(1, 0, 2))
        # (c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]) / (w * w) for each
        # plane's integral image c, in that order.
        k = (n - 1) * span + ow
        below = w * span
        m = means[:, :k]
        np.subtract(flat[:, below + w : below + w + k], flat[:, w : w + k], out=m)
        m -= flat[:, below : below + k]
        m += flat[:, :k]
        m /= w * w
        g[:, :w] = g[:, n : n + w]
        top, src = w, end
        _ssim_ratio(means, scratch, n, span, ratio[i : i + n])


def _grid_ssim_rows(x: np.ndarray, sx: int, y: np.ndarray, sy: int, w: int, band: int, ratio: np.ndarray) -> None:
    """Fill ``ratio`` with the SSIM of every window of two maps on level grids, from integer window sums.

    sx and sy are the maps' level scales K - 1, and pixel v is level rint(v s).
    """
    oh, ow = ratio.shape
    width = x.shape[1]
    # Planes lx, ly and lx ly, then the square of each map with more than two
    # levels, and the row of ``means`` that each plane's means fill.
    squared = [i for i, s in enumerate((sx, sy)) if s > 1]
    scales = [sx, sy, sx * sy] + [(sx, sy)[i] ** 2 for i in squared]
    rows = [0, 1, 2] + [3 + i for i in squared]
    # Window sums reach w*w max(sx, sy)^2, and the smallest unsigned dtype
    # that holds it keeps every sum exact: for two BINARY maps, uint8 up to
    # w = 15, uint16 up to 255, then uint32.
    planes = np.empty((len(scales), (band + w - 1) * width), np.min_scalar_type(w * w * max(sx, sy) ** 2))
    # float scratch for the levels of a map with more than two levels
    scaled = np.empty(planes.shape[1]) if squared else None
    # As in the float path, window (r, c) is at position r * width + c; the
    # positions past ow wrap into the next row and hold sums no larger than
    # the largest, which never reach ``ratio``.
    means = np.empty((5, band * width))
    scratch = np.empty(band * width)
    for i in range(0, oh, band):
        n = min(band, oh - i)
        v = planes[:, : (n + w - 1) * width]
        for j, (src, s) in enumerate(((x, sx), (y, sy))):
            src = src[i : i + n + w - 1].reshape(-1)
            if s > 1:
                np.rint(np.multiply(src, s, out=scaled[: src.size]), out=v[j], casting="unsafe")
            else:
                np.copyto(v[j], src, casting="unsafe")
        np.multiply(v[0], v[1], out=v[2])
        for j, p in enumerate(squared, 3):
            np.multiply(v[p], v[p], out=v[j])
        k = (n - 1) * width + ow
        sums = _window_sums(_window_sums(v, w, width, n * width), w, 1, k)
        m = means[:, :k]
        for row, total, scale in zip(rows, sums, scales):
            np.divide(total, w * w * scale, out=m[row])
        for j in {0, 1} - set(squared):
            # a 0/1 level is its own square
            m[3 + j] = m[j]
        _ssim_ratio(means, scratch, n, width, ratio[i : i + n])


def _window_sums(v: np.ndarray, w: int, step: int, k: int) -> np.ndarray:
    """Sums of w entries ``step`` apart in each row of the unsigned array v, at its first k positions.

    Sums of widths 1, 2, 4, ... come from doubling, each the sum of two of
    the width before, and the one for each set bit of w is added in, so the
    cost grows with log w. Integer sums are exact in any order while the
    dtype holds them. Overwrites v.
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


def _ssim_ratio(means: np.ndarray, scratch: np.ndarray, n: int, stride: int, out: np.ndarray) -> None:
    """Write the SSIM ratio of n rows of windows to ``out`` from their means, overwriting them.

    means[0..4] hold the window means of x, y, xy, x^2 and y^2, window (r, c)
    at position r * stride + c.
    """
    ow = out.shape[1]
    k = (n - 1) * stride + ow
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
    grid = means[:, : n * stride].reshape(5, n, stride)[:, :, :ow]
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
