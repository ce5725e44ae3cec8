"""Grayscale raster type, PGM file I/O, and resampling primitives.

A semantic map is a W x H grid of intensities in [0, 1].  Its ``kind``
records what the values mean: SOFT for free-form intensities, BINARY for
edge masks in {0, 1}, LABELS for K-level segmentations on the grid
{0/(K-1), ..., 1}.  Maps are immutable after construction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParseError, ShapeError, TruncatedError
from .files import read_bytes, write_atomic

SOFT = "soft"
BINARY = "binary"
LABELS = "labels"

# Largest level count K of a quantizer or a labels metric: the payload
# header stores K in one byte.
MAX_LEVELS = 255

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
        _check_pixels(arr, self.kind, self.levels)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray, kind: str = SOFT, levels: int | None = None) -> SemanticMap:
        """A map that keeps ``arr`` itself, after the constructor's checks.

        ``arr`` is made read-only, not copied, so nothing may write to it
        afterwards: a producer hands over the fresh array it built, or a
        map's own read-only pixels.  A ``ShapeError`` rejects an ``arr``
        that is not C-contiguous and a ``DomainError`` one whose dtype is
        not float64, before the constructor's checks run.
        """
        if not arr.flags.c_contiguous:
            raise ShapeError("an adopted array must be C-contiguous")
        if arr.dtype != np.float64:
            raise DomainError(f"an adopted array must be float64, got {arr.dtype}")
        _check_pixels(arr, kind, levels)
        arr.setflags(write=False)
        map = object.__new__(cls)
        for name, value in (("pixels", arr), ("kind", kind), ("levels", levels)):
            object.__setattr__(map, name, value)
        return map

    def __reduce__(self):
        # rebuilt through _adopt, so an unpickled map passes every check and is read-only
        return _unpickle_map, (self.pixels, self.kind, self.levels)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def resolution(self) -> Resolution:
        return Resolution(self.width, self.height)


def _unpickle_map(pixels: np.ndarray, kind: str, levels: int | None) -> SemanticMap:
    # a read-only array, or one over a buffer it does not own (pickle protocol 5), is copied first
    if not (pixels.flags.writeable and pixels.flags.owndata):
        pixels = pixels.copy()
    return SemanticMap._adopt(pixels, kind, levels)


# Values of a map's pixels that SemanticMap's checks scan at a time: a
# band and the grid check's two float64 buffers of its size take 768 KB,
# which fits a core's L2 cache.
_CHECK_BAND = 1 << 15


def _check_pixels(arr: np.ndarray, kind: str, levels: int | None) -> None:
    """Raise the first of SemanticMap's checks that a C-ordered float64 ``arr`` of ``kind`` fails.

    Each check scans ``arr`` in bands of _CHECK_BAND values, and its
    verdict is the whole array's; the checks keep their order.
    """
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"pixels must be a non-empty 2D array, got shape {arr.shape}")
    flat = arr.reshape(-1)
    bands = [flat[i : i + _CHECK_BAND] for i in range(0, flat.size, _CHECK_BAND)]
    in_range = True
    for band in bands:
        lo, hi = band.min(), band.max()
        # min and max propagate NaN, so both are finite exactly when every value is.
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("pixel values must be finite")
        in_range = in_range and lo >= 0.0 and hi <= 1.0
    if not in_range:
        raise DomainError(f"pixel values must lie in [0, 1], got range [{arr.min()}, {arr.max()}]")
    if kind not in _KINDS:
        raise DomainError(f"unknown map kind {kind!r}")
    if kind == BINARY:
        if not all(np.all((band == 0.0) | (band == 1.0)) for band in bands):
            raise DomainError("binary map values must be exactly 0 or 1")
    if kind == LABELS:
        if levels is None or levels < 2:
            raise DomainError("labels map needs a level count K >= 2")
        if levels > MAX_LEVELS:
            raise DomainError(f"labels map level count K must be <= {MAX_LEVELS}, got {levels}")
        if not _on_label_grid(bands, levels):
            raise DomainError(f"labels map values must lie on the {levels}-level grid")
    elif levels is not None:
        raise DomainError("levels is only meaningful for labels maps")


def _on_label_grid(bands: list[np.ndarray], levels: int) -> bool:
    """Whether every value v of ``bands`` has |v (K - 1) - rint(v (K - 1))| <= 1e-9 for K = levels."""
    residue = np.empty(bands[0].size)
    nearest = np.empty_like(residue)
    for band in bands:
        r = np.multiply(band, levels - 1, out=residue[: band.size])
        r -= np.rint(r, out=nearest[: band.size])
        np.abs(r, out=r)
        # max propagates NaN, so this fails exactly when some value fails the bound.
        if not r.max() <= 1e-9:
            return False
    return True


def quantize_levels(pixels: np.ndarray, k: int) -> np.ndarray:
    """Bin intensities in [0, 1] into integer levels 0..K-1.

    Bin edges sit at i/K; the value 1.0 is nudged down so it lands in the
    top bin instead of overflowing to K.
    """
    return _level_floor(pixels, k).astype(np.int64)


def _level_floor(pixels: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """quantize_levels' bins as float64, computed in one buffer: ``out`` if given, else a new one."""
    if k < 2:
        raise DomainError(f"level count must be >= 2, got {k}")
    bins = np.minimum(pixels, 1.0 - 1e-9, out=out)
    bins *= k
    return np.floor(bins, out=bins)


def restore_kind(pixels: np.ndarray, kind: str, levels: int | None) -> SemanticMap:
    """Coerce raw intensities back onto a kind's value set.

    Binary maps are re-thresholded at 0.5, labels maps re-quantized to
    their K-level grid, soft maps passed through unchanged.
    """
    if kind not in (BINARY, LABELS):
        return SemanticMap(pixels, kind=SOFT)
    arr = np.array(pixels, dtype=np.float64, order="C")
    _restore(arr, kind, levels)
    return SemanticMap._adopt(arr, kind, levels if kind == LABELS else None)


def _restore(arr: np.ndarray, kind: str, levels: int | None) -> None:
    """restore_kind's coercion of the float64 array ``arr``, in place; a soft ``arr`` is left as it is."""
    if kind == BINARY:
        np.greater_equal(arr, 0.5, out=arr)
    elif kind == LABELS:
        _level_floor(arr, levels, out=arr)
        arr /= levels - 1


# PGM headers allow whitespace and '#' comment lines between tokens.
_PGM_SEPARATORS = re.compile(rb"(?:\s|#[^\n]*\n)*")
_PGM_TOKEN = re.compile(rb"\S+")


def read_pgm(path) -> SemanticMap:
    """Read a binary (P5) PGM file into a soft map, scaling by its maxval."""
    data = read_bytes(path)
    if data[:2] != b"P5":
        raise ParseError(f"unsupported magic {data[:2]!r}, expected P5", offset=0)
    pos = 2

    fields = []
    for _ in range(3):
        start = _PGM_SEPARATORS.match(data, pos).end()
        if data[start : start + 1] == b"#":
            raise ParseError("unterminated comment in header", offset=start)
        token = _PGM_TOKEN.match(data, start)
        if token is None:
            raise ParseError("unexpected end of header", offset=start)
        if not token[0].isdigit():
            raise ParseError(f"expected integer header field, got {token[0]!r}", offset=start)
        fields.append(int(token[0]))
        pos = token.end()
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
    if len(data) - pos < need:
        raise TruncatedError(
            f"payload has {len(data) - pos} bytes, header {width}x{height} (maxval {maxval}) needs {need}"
        )
    raw = np.frombuffer(data, dtype=">u2" if two_byte else np.uint8, count=width * height, offset=pos)
    return SemanticMap._adopt((raw / maxval).reshape(height, width))


def write_pgm(map: SemanticMap, path) -> None:
    """Write a map as binary PGM with maxval 255; values are rounded to 8 bits."""
    body = np.rint(map.pixels * 255.0).astype(np.uint8)
    write_atomic(path, f"P5\n{map.width} {map.height}\n255\n".encode("ascii"), body)


def box_downscale(map: SemanticMap, d: int) -> SemanticMap:
    """Shrink by integer factor d per dimension, averaging each d x d block.

    Output is ceil(W/d) x ceil(H/d); partial blocks at the right/bottom
    edges are averaged over the pixels actually present, so the output
    range and (for exact tilings) the mean are preserved.  Result is soft;
    at d = 1 it is ``map`` itself, or a soft map over its read-only pixels.

    The block sums are those of ``np.add.reduceat`` down the rows, then
    along the columns, bit for bit.  They mirror numpy's rule for a
    reduceat block: its first row (or column) plus numpy's pairwise sum
    of the rest (``_pairwise``).  They are formed one band of output rows
    at a time, so the only full-size buffer is the output.
    ``tests/test_image.py::test_box_downscale_bits_equal_reduceat`` pins
    the bytes against the ``reduceat`` form, so a numpy release that
    changes its summation order fails there.
    """
    if d < 1:
        raise DomainError(f"downscale factor must be >= 1, got {d}")
    if d == 1:
        return map if map.kind == SOFT else SemanticMap._adopt(map.pixels)
    arr = map.pixels
    h, w = arr.shape
    sums = np.empty((-(-h // d), -(-w // d)))
    band = max(1, _BAND // w)
    for i in range(0, sums.shape[0], band):
        rows = _block_sums(arr[i * d : (i + band) * d], d)
        _block_sums(rows.T, d, out=sums[i : i + band].T)
    row_idx = np.arange(0, h, d)
    col_idx = np.arange(0, w, d)
    row_counts = np.minimum(row_idx + d, h) - row_idx
    col_counts = np.minimum(col_idx + d, w) - col_idx
    sums /= np.outer(row_counts, col_counts)
    return SemanticMap._adopt(sums)


# Elements of the row sums box_downscale holds for one band; no temporary is larger.
_BAND = 1 << 13


def _block_sums(arr: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum each run of d slices along axis 0 of ``arr`` (the last may be short), as ``np.add.reduceat``.

    reduceat starts each run from its first slice and adds numpy's
    pairwise sum of the others.  Full runs are summed here from strided
    views; a short last run is left to reduceat itself.
    """
    full = arr.shape[0] // d
    if out is None:
        out = np.empty((-(-arr.shape[0] // d),) + arr.shape[1:])
    if full:
        acc = out[:full]
        _pairwise([arr[k : full * d : d] for k in range(1, d)], acc)
        np.add(arr[: full * d : d], acc, out=acc)
    if full < out.shape[0]:
        np.add.reduceat(arr[full * d :], [0], axis=0, out=out[full:])
    return out


def _pairwise(terms: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of the same-shape arrays ``terms``, elementwise, into ``out``.

    Below 8 terms they are added in sequence (numpy starts from -0.0,
    which leaves the first term's bits unchanged).  Up to 128 terms,
    accumulator j sums terms j, j + 8, ... in sequence; the eight are
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and the
    terms past the last multiple of 8 added after.  Beyond 128 terms the
    sum splits in two at half the count, rounded down to a multiple of 8.
    """
    n = len(terms)
    if n < 8:
        np.copyto(out, terms[0])
        for t in terms[1:]:
            out += t
    elif n <= 128:
        stop = n - n % 8

        def r(j):
            acc = terms[j]
            for t in terms[j + 8 : stop : 8]:
                acc = acc + t
            return acc

        left = r(0) + r(1)
        left += r(2) + r(3)
        right = r(4) + r(5)
        right += r(6) + r(7)
        np.add(left, right, out=out)
        for t in terms[stop:]:
            out += t
    else:
        half = n // 2 - n // 2 % 8
        _pairwise(terms[:half], out)
        out += _pairwise(terms[half:], np.empty_like(out))
    return out


def bilinear_upscale(map: SemanticMap, target: Resolution) -> SemanticMap:
    """Resample to the target resolution with corner-aligned bilinear interpolation."""
    if (target.height, target.width) == map.pixels.shape:
        # Every sample falls on a source pixel with zero weight on its neighbour.
        return map if map.kind == SOFT else SemanticMap._adopt(map.pixels)
    return SemanticMap._adopt(_upscale(map.pixels, target.height, target.width, SOFT, None))


def _upscale(arr: np.ndarray, th: int, tw: int, kind: str, levels: int | None) -> np.ndarray:
    """``arr`` resampled to th x tw as bilinear_upscale does, then coerced onto ``kind`` as restore_kind does.

    The result is a new array; each band of its rows is restored
    (``_restore``) as soon as it is lerped, while it is in cache.
    """
    h, w = arr.shape

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
    # Each pass fills its result one band of rows at a time, and np.take
    # keeps every gather C-ordered.  The indices lie in range by
    # construction; mode="clip" lets np.take write into its ``out``
    # argument directly, where the default mode buffers the write.
    rows = np.empty((h, tw))
    band = max(1, _UPSCALE_BAND // tw)
    for i in range(0, h, band):
        part = rows[i : i + band]
        src = arr[i : i + band]
        left = np.take(src, x0, axis=1)
        np.take(src, x1, axis=1, out=part, mode="clip")
        part -= left
        part *= fx
        part += left
    out = np.empty((th, tw))
    for i in range(0, th, band):
        part = out[i : i + band]
        top = np.take(rows, y0[i : i + band], axis=0)
        np.take(rows, y1[i : i + band], axis=0, out=part, mode="clip")
        part -= top
        part *= fy[i : i + band]
        part += top
        _restore(part, kind, levels)
    return out


# Elements of the rows _upscale lerps at a time, in each of its two passes.
_UPSCALE_BAND = 1 << 15


def downscaled_resolution(width: int, height: int, d: int) -> Resolution:
    """Resolution produced by box_downscale at factor d."""
    if d < 1:
        raise DomainError(f"downscale factor must be >= 1, got {d}")
    return Resolution(math.ceil(width / d), math.ceil(height / d))
