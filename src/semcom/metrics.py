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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, TooSmallError
from .image import _VALUE_BAND, BINARY, LABELS, MAX_LEVELS, SOFT, SemanticMap, _level_floor, _level_values


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
    if a.shape != b.shape:
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
    of a map on a K-level grid, BINARY (K = 2) or LABELS, copied from its
    grid. The five planes x, y, xy, x^2 and y^2 are built one band of
    output rows at a time. Their window sums are summed down the columns
    and then along the rows by doubling (``_window_sums``), and each mean
    is its sum divided by w*w times its plane's scale, rounded once: 1 for
    a SOFT map and K - 1 for a grid map, their product for xy and their
    squares for x^2 and y^2. When either map is SOFT the planes are
    float64, and the sums round in the doubling order, which no band edge
    changes. Two grid maps' planes take the smallest unsigned dtype that
    holds the largest window sum, w*w max(Kx - 1, Ky - 1)^2, so every sum
    is exact.

    Two BINARY maps' ratio depends only on the window's sums of x, y and
    xy, each at most w*w, so it is looked up in a table of ``_ssim_ratio``
    over the triples a window can have (``_binary_ratio_table``) when the
    map has at least (w*w + 1)^3 windows, one per triple in [0, w*w]^3:
    the table is then smaller than the ratio map, and its build is spread
    over that many windows; it then builds those three planes alone. Only
    the ratio map is image-sized, and one ``np.mean`` over all of it keeps
    numpy's pairwise summation, so the score has the same bits as the
    whole-array form.
    """
    _check_shapes(a, b)
    w = params.window
    _check_window(a, w)
    height, width = a.shape
    windows = (height - w + 1, width - w + 1)
    # built before the ratio map, so that its temporaries are freed first
    table = _binary_ratio_table(w) if a.kind == b.kind == BINARY and math.prod(windows) >= (w * w + 1) ** 3 else None
    ratio = np.empty(windows)
    band = min(max(1, _BAND // width), len(ratio))
    sx, sy = (m.levels - 1 if m.kind == LABELS else 1 for m in (a, b))
    # the planes x, y, xy, x^2 and y^2; the table reads the first three
    scales = (sx, sy, sx * sy, sx * sx, sy * sy)
    # Two grid maps' window sums reach w*w max(sx, sy)^2, and the smallest
    # unsigned dtype that holds it keeps every sum exact: for two BINARY maps,
    # uint8 up to w = 15, uint16 up to 255, then uint32. With K <= 255 and w
    # at most the map's side, a sum passes 2^53 only beyond about 373,000
    # pixels a side.
    dtype = np.float64 if SOFT in (a.kind, b.kind) else np.min_scalar_type(w * w * max(sx, sy) ** 2)
    planes = np.empty((3 if table is not None else 5, (band + w - 1) * width), dtype)
    spare = np.empty_like(planes)
    if table is not None:
        start, ratios = table
        index = np.empty(band * width, np.intp)
    else:
        # Window (r, c) is at position r * width + c; the positions past the
        # last window of a row wrap into the next row, are finite, and never
        # reach ``ratio``.
        means = np.empty((5, band * width))
        scratch = np.empty(band * width)
    for i in range(0, len(ratio), band):
        n = min(band, len(ratio) - i)
        v = planes[:, : (n + w - 1) * width]
        for j, m in enumerate((a, b)):
            src = m.pixels if m.grid is None else m.grid
            np.copyto(v[j], src[i : i + n + w - 1].reshape(-1))
        np.multiply(v[0], v[1], out=v[2])
        if table is None:
            np.multiply(v[:2], v[:2], out=v[3:])
        k = (n - 1) * width + ratio.shape[1]
        sums, free = _window_sums(v, w, width, n * width, spare)
        if table is not None:
            sums = _window_sums(sums, w, 1, k, free)[0]
            # each window's position in the table's ratios
            at = np.multiply(sums[0], w * w + 1, out=index[:k], dtype=np.intp)
            at += sums[1]
            np.take(start, at, out=at, mode="clip")
            at += sums[2]
            np.take(ratios, index[: n * width].reshape(n, width)[:, : ratio.shape[1]], out=ratio[i : i + n], mode="clip")
            continue
        # Each plane's means fill the row of ``means`` of the same index. Sums
        # of more than one set bit of w add up in those rows: exactly, for
        # integers below 2^53, and in the same order for floats.
        m = means[:, :k]
        sums = _window_sums(sums, w, 1, k, free, m)[0]
        for j, scale in enumerate(scales):
            np.divide(sums[j], w * w * scale, out=m[j])
        _ssim_ratio(means[:, : n * width], scratch, ratio[i : i + n])
    return min(max(float(np.mean(ratio)), 0.0), 1.0)


@functools.cache
def _binary_ratio_table(w: int) -> tuple[np.ndarray, np.ndarray]:
    """``_ssim_ratio`` of every possible w x w window of two BINARY maps, and where each one sits.

    A window has sums Sx and Sy of its two maps and Sxy of their product,
    with max(0, Sx + Sy - w*w) <= Sxy <= min(Sx, Sy); each mean is its
    sum divided by w*w, as ssim_quality divides it. Returns (start,
    ratios): the ratio of (Sx, Sy, Sxy) is ratios[start[Sx (w*w + 1) + Sy]
    + Sxy]. Built once per process and window size.
    """
    n = w * w
    side = n + 1
    pair = np.arange(side * side)
    x, y = np.divmod(pair, side)
    lo = np.maximum(x + y - n, 0)
    count = np.minimum(x, y) - lo + 1
    start = np.cumsum(count) - count - lo
    # every pair's triples, Sxy running up from lo
    pair = np.repeat(pair, count)
    xy = np.arange(len(pair)) - start[pair]
    x, y = np.divmod(pair, side)
    means = np.empty((5, len(pair)))
    for row, total in enumerate((x, y, xy, x, y)):
        np.divide(total, n, out=means[row])
    ratios = np.empty((1, len(pair)))
    _ssim_ratio(means, np.empty(len(pair)), ratios)
    # every caller shares the cached arrays
    start.setflags(write=False)
    ratios.setflags(write=False)
    return start, ratios[0]


def _window_sums(v: np.ndarray, w: int, step: int, k: int, spare: np.ndarray, out: np.ndarray | None = None) -> tuple:
    """Sums of w entries ``step`` apart in each row of v, at its first k positions.

    Sums of widths 1, 2, 4, ... come from doubling, each the sum of two of
    the width before, and the ones for the set bits of w are added in,
    lowest bit first, so the cost grows with log w. Integer sums are exact
    while the dtype holds them; float sums round in this order, which is
    the same at every position. The doublings alternate between v and
    ``spare``, which has v's rows and dtype and at least as many columns,
    and overwrite both. The sums of a single set bit are a view of one of
    them; sums of more are added up in ``out``, an array of v's rows and
    k columns, if given, else in a new array. Returns the sums, and
    whichever of v and ``spare`` does not hold them, with at least k
    columns.
    """
    total, offset, span = None, 0, 1
    while True:
        if w & span:
            sums = v[:, offset * step : offset * step + k]
            if total is None:
                # Later doublings overwrite v, so only the last set bit's sums are kept as a view.
                if span == w:
                    total = sums
                elif out is None:
                    total = sums.copy()
                else:
                    total = out
                    np.copyto(out, sums)
            else:
                total += sums
            offset += span
        if 2 * span > w:
            return total, spare
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


def vi_quality(a: SemanticMap, b: SemanticMap, levels: int) -> float:
    """Variation-of-information score on K-level quantizations, in nats.

    Each pixel's bin is quantize_levels' bin of its value. The pixels are
    counted by their pair of codes: a grid map's code is its level, and a
    SOFT map's its bin. The pairs are counted one band of _VALUE_BAND pixels
    at a time into one integer count vector, and each pair's count then
    goes to its pair of bins, so the joint histogram holds the same counts
    as a histogram of the whole maps' bins.
    """
    _check_shapes(a, b)
    (table_a, codes_a), (table_b, codes_b) = (_vi_codes(m, levels) for m in (a, b))
    ka, kb = len(table_a), len(table_b)
    index = np.empty(min(a.width * a.height, _VALUE_BAND), np.min_scalar_type(ka * kb - 1))
    pairs = 0  # the first band's histogram replaces it
    for ca, cb in zip(codes_a, codes_b):
        at = np.multiply(ca, kb, out=index[: len(ca)], dtype=index.dtype, casting="unsafe")
        np.add(at, cb, out=at, dtype=index.dtype, casting="unsafe")
        pairs += np.bincount(at, minlength=ka * kb)
    # counts are whole numbers far below 2^53, so the float weights sum them exactly
    counts = np.bincount((table_a[:, None] * levels + table_b).ravel(), weights=pairs, minlength=levels * levels)
    joint = counts.reshape(levels, levels) / (a.width * a.height)

    def entropy(p: np.ndarray) -> float:
        nz = p[p > 0.0]
        return float(-np.sum(nz * np.log(nz)))

    hx = entropy(joint.sum(axis=1))
    hy = entropy(joint.sum(axis=0))
    hxy = entropy(joint.ravel())
    mutual = hx + hy - hxy
    vi = hx + hy - 2.0 * mutual
    return min(max(1.0 - vi / (2.0 * math.log(levels)), 0.0), 1.0)


def _vi_codes(m: SemanticMap, levels: int):
    """The bin of each of ``m``'s codes, and a generator of its codes, _VALUE_BAND pixels at a time.

    A grid map's codes are its levels. A SOFT map's codes are its bins, as
    whole floats in a buffer the generator reuses, and its table is the
    identity.
    """
    if m.grid is not None:
        grid = m.grid.reshape(-1)
        table = _level_floor(_level_values(m), levels).astype(np.intp)
        return table, (grid[i : i + _VALUE_BAND] for i in range(0, grid.size, _VALUE_BAND))

    def bins():
        pixels = m.pixels.reshape(-1)
        scratch = np.empty(min(pixels.size, _VALUE_BAND))
        for i in range(0, pixels.size, _VALUE_BAND):
            part = pixels[i : i + _VALUE_BAND]
            yield _level_floor(part, levels, out=scratch[: part.size])

    return np.arange(levels), bins()


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
