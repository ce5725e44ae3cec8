"""Grayscale raster type, PGM file I/O, and resampling primitives.

A semantic map is a W x H grid of intensities in [0, 1].  Its ``kind``
records what the values mean: SOFT for free-form intensities, BINARY for
edge masks in {0, 1}, LABELS for K-level segmentations on the grid
{0/(K-1), ..., 1}.  Maps are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IoError, ParseError, ShapeError, TruncatedError

SOFT = "soft"
BINARY = "binary"
LABELS = "labels"

_KINDS = (SOFT, BINARY, LABELS)


@dataclass(frozen=True)
class Resolution:
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DomainError(f"resolution must be at least 1x1, got {self.width}x{self.height}")


@dataclass(frozen=True, eq=False)
class SemanticMap:
    """Immutable 2D intensity raster with values in [0, 1].

    ``pixels`` is row-major, shape (height, width), float64.  ``levels``
    is the label count K and is set only when kind is LABELS.
    """

    pixels: np.ndarray
    kind: str = SOFT
    levels: int | None = field(default=None)

    def __post_init__(self):
        arr = np.array(self.pixels, dtype=np.float64, copy=True, order="C")
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"pixels must be a non-empty 2D array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("pixel values must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise DomainError(f"pixel values must lie in [0, 1], got range [{arr.min()}, {arr.max()}]")
        if self.kind not in _KINDS:
            raise DomainError(f"unknown map kind {self.kind!r}")
        if self.kind == BINARY:
            if not np.all((arr == 0.0) | (arr == 1.0)):
                raise DomainError("binary map values must be exactly 0 or 1")
        if self.kind == LABELS:
            if self.levels is None or self.levels < 2:
                raise DomainError("labels map needs a level count K >= 2")
            residue = arr * (self.levels - 1)
            residue -= np.rint(residue)
            np.abs(residue, out=residue)
            if not np.all(residue <= 1e-9):
                raise DomainError(f"labels map values must lie on the {self.levels}-level grid")
        elif self.levels is not None:
            raise DomainError("levels is only meaningful for labels maps")
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def resolution(self) -> Resolution:
        return Resolution(self.width, self.height)


def quantize_levels(pixels: np.ndarray, k: int) -> np.ndarray:
    """Bin intensities in [0, 1] into integer levels 0..K-1.

    Bin edges sit at i/K; the value 1.0 is nudged down so it lands in the
    top bin instead of overflowing to K.
    """
    return _level_floor(pixels, k).astype(np.int64)


def _level_floor(pixels: np.ndarray, k: int) -> np.ndarray:
    """quantize_levels' bins as float64, computed in one buffer."""
    if k < 2:
        raise DomainError(f"level count must be >= 2, got {k}")
    bins = np.minimum(pixels, 1.0 - 1e-9)
    bins *= k
    return np.floor(bins, out=bins)


def restore_kind(pixels: np.ndarray, kind: str, levels: int | None) -> SemanticMap:
    """Coerce raw intensities back onto a kind's value set.

    Binary maps are re-thresholded at 0.5, labels maps re-quantized to
    their K-level grid, soft maps passed through unchanged.
    """
    if kind == BINARY:
        return SemanticMap(np.where(pixels >= 0.5, 1.0, 0.0), kind=BINARY)
    if kind == LABELS:
        grid = _level_floor(pixels, levels)
        grid /= levels - 1
        return SemanticMap(grid, kind=LABELS, levels=levels)
    return SemanticMap(pixels, kind=SOFT)


def read_pgm(path) -> SemanticMap:
    """Read a binary (P5) PGM file into a soft map, scaling by its maxval."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    pos = 0

    def skip_separators(pos: int) -> int:
        # PGM headers allow whitespace and '#' comment lines between tokens.
        while pos < len(data):
            c = data[pos : pos + 1]
            if c.isspace():
                pos += 1
            elif c == b"#":
                nl = data.find(b"\n", pos)
                if nl < 0:
                    raise ParseError("unterminated comment in header", offset=pos)
                pos = nl + 1
            else:
                break
        return pos

    def next_token(pos: int) -> tuple[bytes, int]:
        pos = skip_separators(pos)
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError("unexpected end of header", offset=start)
        return data[start:pos], pos

    if data[:2] != b"P5":
        raise ParseError(f"unsupported magic {data[:2]!r}, expected P5", offset=0)
    pos = 2

    fields = []
    for _ in range(3):
        token, pos = next_token(pos)
        if not token.isdigit():
            raise ParseError(f"expected integer header field, got {token!r}", offset=pos - len(token))
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ParseError(f"bad dimensions {width}x{height}", offset=2)
    if not 0 < maxval <= 65535:
        raise ParseError(f"maxval {maxval} out of range 1..65535", offset=pos)

    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ParseError("missing separator before payload", offset=pos)
    pos += 1

    two_byte = maxval > 255
    need = width * height * (2 if two_byte else 1)
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise TruncatedError(
            f"payload has {len(payload)} bytes, header {width}x{height} (maxval {maxval}) needs {need}"
        )
    raw = np.frombuffer(payload, dtype=">u2" if two_byte else np.uint8)
    return SemanticMap((raw / maxval).reshape(height, width))


def write_pgm(map: SemanticMap, path) -> None:
    """Write a map as binary PGM with maxval 255; values are rounded to 8 bits."""
    body = np.rint(map.pixels * 255.0).astype(np.uint8)
    header = f"P5\n{map.width} {map.height}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(body.tobytes())
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def box_downscale(map: SemanticMap, d: int) -> SemanticMap:
    """Shrink by integer factor d per dimension, averaging each d x d block.

    Output is ceil(W/d) x ceil(H/d); partial blocks at the right/bottom
    edges are averaged over the pixels actually present, so the output
    range and (for exact tilings) the mean are preserved.  Result is soft.
    """
    if d < 1:
        raise DomainError(f"downscale factor must be >= 1, got {d}")
    if d == 1:
        return SemanticMap(map.pixels)
    arr = map.pixels
    h, w = arr.shape
    row_idx = np.arange(0, h, d)
    col_idx = np.arange(0, w, d)
    sums = np.add.reduceat(np.add.reduceat(arr, row_idx, axis=0), col_idx, axis=1)
    row_counts = np.minimum(row_idx + d, h) - row_idx
    col_counts = np.minimum(col_idx + d, w) - col_idx
    return SemanticMap(sums / np.outer(row_counts, col_counts))


def bilinear_upscale(map: SemanticMap, target: Resolution) -> SemanticMap:
    """Resample to the target resolution with corner-aligned bilinear interpolation."""
    arr = map.pixels
    h, w = arr.shape
    th, tw = target.height, target.width
    if (th, tw) == (h, w):
        # Every sample falls on a source pixel with zero weight on its neighbour.
        return map if map.kind == SOFT else SemanticMap(arr)

    def sample_coords(n_in: int, n_out: int) -> np.ndarray:
        if n_out == 1 or n_in == 1:
            return np.zeros(n_out)
        return np.arange(n_out) * ((n_in - 1) / (n_out - 1))

    ys = sample_coords(h, th)
    xs = sample_coords(w, tw)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]

    # Lerp form keeps constants exact and stays inside [min, max].  Each
    # source row is lerped along x once; gathering rows y0 and y1 of that
    # gives the same top and bottom rows as gathering the four corners.
    left = arr[:, x0]
    rows = arr[:, x1]
    rows -= left
    rows *= fx
    rows += left
    top = rows[y0]
    out = rows[y1]
    out -= top
    out *= fy
    out += top
    return SemanticMap(out)


def downscaled_resolution(width: int, height: int, d: int) -> Resolution:
    """Resolution produced by box_downscale at factor d."""
    if d < 1:
        raise DomainError(f"downscale factor must be >= 1, got {d}")
    return Resolution(math.ceil(width / d), math.ceil(height / d))
