"""Normalized similarity scores between a reference map and its reconstruction.

Every metric maps to [0, 1] with 1 meaning an exact match:

    mse   q = 1 - mean((a - b)^2)
    psnr  q = min(10 log10(1 / mse), cap) / cap, with q = 1 when mse = 0
    ssim  mean over all sliding windows of the standard SSIM ratio, clamped
    vi    q = 1 - VI / (2 ln K) on K-level quantizations, clamped
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, TooSmallError
from .image import SemanticMap, quantize_levels


@dataclass(frozen=True)
class MseQuality:
    pass


@dataclass(frozen=True)
class PsnrQuality:
    cap_db: float = 50.0

    def __post_init__(self):
        if self.cap_db <= 0.0:
            raise DomainError(f"cap must be positive, got {self.cap_db}")


@dataclass(frozen=True)
class SsimQuality:
    window: int = 8
    c1: float = 0.01**2  # (0.01 L)^2 with L = 1
    c2: float = 0.03**2

    def __post_init__(self):
        if self.window < 2:
            raise DomainError(f"window must be >= 2, got {self.window}")


@dataclass(frozen=True)
class ViQuality:
    levels: int

    def __post_init__(self):
        if self.levels < 2:
            raise DomainError(f"level count must be >= 2, got {self.levels}")


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


def mse_quality(a: SemanticMap, b: SemanticMap) -> float:
    _check_shapes(a, b)
    return 1.0 - float(np.mean((a.pixels - b.pixels) ** 2))


def psnr_quality(a: SemanticMap, b: SemanticMap, cap_db: float = 50.0) -> float:
    _check_shapes(a, b)
    mse = float(np.mean((a.pixels - b.pixels) ** 2))
    if mse == 0.0:
        return 1.0
    return min(10.0 * math.log10(1.0 / mse), cap_db) / cap_db


def _window_means(c: np.ndarray, w: int) -> np.ndarray:
    """Mean of every w x w sliding window (stride 1) via an integral image.

    ``c`` has a zero top row and left column and holds the values in its
    interior, which is turned into the integral image in place: summed
    down the columns first, then along the rows.
    """
    inner = c[1:, 1:]
    for i in range(1, inner.shape[0]):
        np.add(inner[i - 1], inner[i], out=inner[i])
    np.cumsum(inner, axis=1, out=inner)
    out = c[w:, w:] - c[:-w, w:]
    out -= c[w:, :-w]
    out += c[:-w, :-w]
    out /= w * w
    return out


def ssim_quality(a: SemanticMap, b: SemanticMap, params: SsimQuality = SsimQuality()) -> float:
    """Mean SSIM over all w x w windows (Wang et al., IEEE TIP 13(4), 2004)."""
    _check_shapes(a, b)
    w = params.window
    if a.width < w or a.height < w:
        raise TooSmallError(f"both dimensions must be >= window {w}, got {a.width}x{a.height}")
    x, y = a.pixels, b.pixels
    c1, c2 = params.c1, params.c2
    # One integral-image buffer serves all five window means; each product
    # is written straight into its interior.
    c = np.zeros((x.shape[0] + 1, x.shape[1] + 1))
    inner = c[1:, 1:]
    inner[...] = x
    mx = _window_means(c, w)
    inner[...] = y
    my = _window_means(c, w)
    np.multiply(x, y, out=inner)
    cov = _window_means(c, w)
    # ((2 mx my + c1)(2 cov + c2)) / ((mx^2 + my^2 + c1)(vx + vy + c2)) with
    # sample (not Bessel-corrected) second moments, each factor evaluated in
    # that left-to-right order; the buffer's interior is scratch until the
    # next product overwrites it.
    scratch = inner[: mx.shape[0], : mx.shape[1]]
    np.multiply(mx, my, out=scratch)
    cov -= scratch
    np.multiply(2.0, mx, out=scratch)
    scratch *= my
    scratch += c1
    cov *= 2.0
    cov += c2
    num = cov
    num *= scratch
    np.multiply(x, x, out=inner)
    vx = _window_means(c, w)
    mx *= mx
    vx -= mx
    np.multiply(y, y, out=inner)
    vy = _window_means(c, w)
    del c, inner, scratch
    my *= my
    vy -= my
    den = mx
    den += my
    den += c1
    vx += vy
    del vy
    vx += c2
    den *= vx
    num /= den
    return min(max(float(np.mean(num)), 0.0), 1.0)


def vi_quality(a: SemanticMap, b: SemanticMap, levels: int) -> float:
    """Variation-of-information score on K-level quantizations, in nats."""
    _check_shapes(a, b)
    la = quantize_levels(a.pixels, levels).ravel()
    lb = quantize_levels(b.pixels, levels).ravel()
    n = la.size
    la *= levels
    la += lb
    joint = np.bincount(la, minlength=levels * levels).reshape(levels, levels) / n

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
    """Dispatch to the metric variant; all scores lie in [0, 1]."""
    if isinstance(kind, MseQuality):
        return mse_quality(a, b)
    if isinstance(kind, PsnrQuality):
        return psnr_quality(a, b, kind.cap_db)
    if isinstance(kind, SsimQuality):
        return ssim_quality(a, b, kind)
    if isinstance(kind, ViQuality):
        return vi_quality(a, b, kind.levels)
    raise DomainError(f"unknown metric kind {kind!r}")
