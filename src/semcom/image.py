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
# The kinds whose maps store a uint8 grid of levels.
_GRID_KINDS = (BINARY, LABELS)

# Values a banded kernel handles at a time, here and in extractors and
# metrics: each kernel's buffers of this many values fit a core's L2 cache.
_VALUE_BAND = 1 << 15


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

    ``pixels`` is row-major, shape (height, width), float64 and read-only.
    ``levels`` is the label count K and is set only when kind is LABELS.

    A BINARY or LABELS map stores ``grid``: the level j of each pixel, a
    read-only, C-ordered uint8 array with every j < K (K = 2 for BINARY).
    Its ``pixels`` are j / (K - 1), built on their first request and kept,
    so every read returns the same array.  The constructor accepts grid
    input that is -0.0 or within 1e-9 of the grid, and stores the nearest
    level: such a map's pixels read back as j / (K - 1) exactly, with +0.0
    for -0.0.  A SOFT map's ``grid`` is None.
    """

    pixels: np.ndarray
    kind: str = SOFT
    levels: int | None = field(default=None)
    grid: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        # Only a soft map keeps these floats, so only a soft map needs them copied.
        copy = True if self.kind == SOFT else None
        self._keep(np.array(self.pixels, dtype=np.float64, copy=copy, order="C"))

    @classmethod
    def _adopt(cls, arr: np.ndarray, kind: str = SOFT, levels: int | None = None) -> SemanticMap:
        """A map that keeps ``arr`` itself, after the constructor's checks.

        ``arr`` is float64 pixels, or the uint8 ``grid`` of a BINARY or
        LABELS map, whose checks are that each level lies below K.  A grid
        map given float64 pixels keeps their levels, as the constructor
        does.  A kept ``arr`` is made read-only, not copied, so nothing may
        write to it afterwards: a producer hands over the fresh array it
        built, or a map's own read-only pixels or grid.  A ``ShapeError``
        rejects an ``arr`` that is not C-contiguous and a ``DomainError``
        one of another dtype, before the constructor's checks run.
        """
        if not arr.flags.c_contiguous:
            raise ShapeError("an adopted array must be C-contiguous")
        if arr.dtype != np.float64 and not (arr.dtype == np.uint8 and kind in _GRID_KINDS):
            allowed = "float64 or uint8" if kind in _GRID_KINDS else "float64"
            raise DomainError(f"an adopted array must be {allowed}, got {arr.dtype}")
        map = object.__new__(cls)
        object.__setattr__(map, "kind", kind)
        object.__setattr__(map, "levels", levels)
        map._keep(arr)
        return map

    def _keep(self, arr: np.ndarray) -> None:
        """Check the C-ordered ``arr``, then keep it as pixels or, for a grid map, keep its grid."""
        if arr.dtype == np.uint8:
            _check_grid(arr, self.kind, self.levels)
            grid = arr
        else:
            _check_pixels(arr, self.kind, self.levels)
            if self.kind == SOFT:
                arr.setflags(write=False)
                object.__setattr__(self, "pixels", arr)
                return
            # the nearest level of each value, which the checks put within 1e-9 of it
            grid = np.empty(arr.shape, np.uint8)
            flat, out = arr.reshape(-1), grid.reshape(-1)
            for i in range(0, flat.size, _VALUE_BAND):
                np.rint(flat[i : i + _VALUE_BAND] * (_grid_size(self) - 1), out=out[i : i + _VALUE_BAND], casting="unsafe")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        # a grid map's pixels are built from its grid when first read (__getattr__)
        self.__dict__.pop("pixels", None)

    def __getattr__(self, name):
        # Reached only for an attribute the map does not hold: a grid map's
        # pixels before their first read.
        grid = self.__dict__.get("grid")
        if name != "pixels" or grid is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        pixels = np.divide(grid, _grid_size(self) - 1, dtype=np.float64)
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)
        return pixels

    def __reduce__(self):
        # A grid map travels as its grid.  Either way it is rebuilt through
        # _adopt, so an unpickled map passes every check and is read-only.
        return _unpickle_map, (self.pixels if self.grid is None else self.grid, self.kind, self.levels)

    @property
    def width(self) -> int:
        return self.shape[1]

    @property
    def height(self) -> int:
        return self.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """(height, width), read without building a grid map's pixels."""
        return (self.pixels if self.grid is None else self.grid).shape

    @property
    def resolution(self) -> Resolution:
        return Resolution(self.width, self.height)


def _grid_size(map: SemanticMap) -> int:
    """K of a grid map: its levels, or 2 for a BINARY map."""
    return map.levels if map.kind == LABELS else 2


def _level_values(map: SemanticMap) -> np.ndarray:
    """The value j / (K - 1) of each level j of a grid map."""
    k = _grid_size(map)
    return np.arange(k) / (k - 1)


def _unpickle_map(pixels: np.ndarray, kind: str, levels: int | None) -> SemanticMap:
    # a read-only array, or one over a buffer it does not own (pickle protocol 5), is copied first
    if not (pixels.flags.writeable and pixels.flags.owndata):
        pixels = pixels.copy()
    return SemanticMap._adopt(pixels, kind, levels)


def _float_rows(map: SemanticMap, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rows start..stop of ``map``'s pixels, or of values equal to them.

    A view of a SOFT map's pixels or of a BINARY map's levels, which are
    its 0/1 values; else a LABELS map's floats, looked up from its levels
    into ``out`` if given.  A grid map is read through its levels whether
    or not its pixels were built.
    """
    if map.grid is None:
        return map.pixels[start:stop]
    rows = map.grid[start:stop]
    if map.kind == BINARY:
        return rows
    return np.take(_level_values(map), rows, out=None if out is None else out[: len(rows)], mode="clip")


def _check_pixels(arr: np.ndarray, kind: str, levels: int | None) -> None:
    """Raise the first of SemanticMap's checks that a C-ordered float64 ``arr`` of ``kind`` fails.

    Each check scans ``arr`` in bands of _VALUE_BAND values, and its
    verdict is the whole array's; the checks keep their order.
    """
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"pixels must be a non-empty 2D array, got shape {arr.shape}")
    flat = arr.reshape(-1)
    bands = [flat[i : i + _VALUE_BAND] for i in range(0, flat.size, _VALUE_BAND)]
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
    _check_level_count(kind, levels)
    if kind == LABELS and not _on_label_grid(bands, levels):
        raise DomainError(f"labels map values must lie on the {levels}-level grid")


def _check_level_count(kind: str, levels: int | None) -> None:
    """Raise unless ``levels`` is a LABELS map's K in [2, MAX_LEVELS], or None for another kind."""
    if kind == LABELS:
        if levels is None or levels < 2:
            raise DomainError("labels map needs a level count K >= 2")
        if levels > MAX_LEVELS:
            raise DomainError(f"labels map level count K must be <= {MAX_LEVELS}, got {levels}")
    elif levels is not None:
        raise DomainError("levels is only meaningful for labels maps")


def _check_grid(grid: np.ndarray, kind: str, levels: int | None) -> None:
    """Raise the first check a uint8 ``grid`` of a BINARY or LABELS map fails: its shape, its K, each level below K."""
    if grid.ndim != 2 or grid.shape[0] < 1 or grid.shape[1] < 1:
        raise ShapeError(f"pixels must be a non-empty 2D array, got shape {grid.shape}")
    _check_level_count(kind, levels)
    k, top = levels if kind == LABELS else 2, grid.max()
    if top >= k:
        raise DomainError(f"{kind} map levels must lie below {k}, got {top}")


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


def _lookup(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """table[codes] for the C-ordered integer ``codes``, as a new array of their shape.

    np.take converts its indices to intp, so it takes _VALUE_BAND codes at a time.
    """
    out = np.empty(codes.shape, table.dtype)
    flat, dst = codes.reshape(-1), out.reshape(-1)
    for i in range(0, flat.size, _VALUE_BAND):
        np.take(table, flat[i : i + _VALUE_BAND], out=dst[i : i + _VALUE_BAND], mode="clip")
    return out


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
    their K-level grid, and any other kind goes to the constructor as
    given, so ``kind`` and ``levels`` pass the constructor's checks or
    raise its ``DomainError``.  A grid map's levels are computed from the
    caller's values, read where they are and never written, one band of
    _VALUE_BAND values at a time, so its grid is the only array of the
    image's size that is built.
    """
    if kind not in _GRID_KINDS:
        return SemanticMap(pixels, kind=kind, levels=levels)
    _check_level_count(kind, levels)
    arr = np.asarray(pixels, dtype=np.float64)
    grid = np.empty(arr.shape, np.uint8)
    flat, out = arr.reshape(-1), grid.reshape(-1)
    scratch = np.empty(min(flat.size, _VALUE_BAND))
    for i in range(0, flat.size, _VALUE_BAND):
        band = flat[i : i + _VALUE_BAND]
        # min propagates NaN; a NaN or negative value bins below level 0
        if kind == LABELS and not band.min() >= 0.0:
            # the error that the checks of the restored floats give
            _check_pixels(_level_floor(arr, levels) / (levels - 1), kind, levels)
        _restore(band, kind, levels, out[i : i + band.size], scratch[: band.size])
    return SemanticMap._adopt(grid, kind, levels)


def _restore(arr: np.ndarray, kind: str, levels: int | None, out: np.ndarray, scratch: np.ndarray) -> None:
    """restore_kind's level of each value of the float64 ``arr`` of a grid ``kind``, into the uint8 ``out``.

    A LABELS ``kind`` bins ``arr`` in ``scratch``, a float64 array of its
    size that may be ``arr`` itself; ``levels`` then lies in [2,
    MAX_LEVELS] and no value of ``arr`` is NaN or negative.  A BINARY
    ``kind`` reads ``arr`` only.
    """
    if kind == BINARY:
        np.greater_equal(arr, 0.5, out=out)
    else:
        # _level_floor's bins, floored straight into ``out``
        bins = np.minimum(arr, 1.0 - 1e-9, out=scratch)
        bins *= levels
        np.floor(bins, out=out, casting="unsafe")


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
    at a time, so the only full-size buffer is the output.  A grid map
    gives each band from its grid, whether or not its pixels were read:
    a LABELS map its floats, and a BINARY map its uint8 levels, whose
    sums are whole numbers that every summation order gives exactly.
    ``tests/test_image.py::test_box_downscale_bits_equal_reduceat`` pins
    the bytes against the ``reduceat`` form, so a numpy release that
    changes its summation order fails there.
    """
    if d < 1:
        raise DomainError(f"downscale factor must be >= 1, got {d}")
    if d == 1:
        return map if map.kind == SOFT else SemanticMap._adopt(map.pixels)
    h, w = map.shape
    sums = np.empty((-(-h // d), -(-w // d)))
    band = max(1, _BAND // w)
    scratch = np.empty((min(band * d, h), w)) if map.kind == LABELS else None
    for i in range(0, sums.shape[0], band):
        rows = _block_sums(_float_rows(map, i * d, (i + band) * d, scratch), d)
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
    if (target.height, target.width) == map.shape:
        # Every sample falls on a source pixel with zero weight on its neighbour.
        return map if map.kind == SOFT else SemanticMap._adopt(map.pixels)
    return SemanticMap._adopt(_upscale(map.pixels, target.height, target.width, SOFT, None))


def _upscale(arr: np.ndarray, th: int, tw: int, kind: str, levels: int | None) -> np.ndarray:
    """``arr`` resampled to th x tw as bilinear_upscale does, then coerced onto ``kind`` as restore_kind does.

    ``arr`` holds float64 pixels, or payload bytes b (uint8) that stand for
    b / 255.  The result is a new array: float64 pixels for a SOFT
    ``kind``, else the uint8 grid.  It is built one band of output rows at
    a time, from the source rows that band reads; a grid kind's band is
    lerped into a band buffer and restored (``_restore``) from it while it
    is in cache.
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
    # source row is lerped along x once, into a buffer that holds the rows
    # the current band reads and is refilled, from the first of them, as
    # the bands move down; gathering rows y0 and y1 of that gives the same
    # top and bottom rows as gathering the four corners.  np.take keeps
    # every gather C-ordered.  The indices lie in range by construction;
    # mode="clip" lets np.take write into its ``out`` argument directly,
    # where the default mode buffers the write.
    band = max(1, _VALUE_BAND // tw)
    starts = np.arange(0, th, band)
    # the source rows lo..hi that each band of output rows reads
    los, his = y0[starts], y1[np.minimum(starts + band, th) - 1] + 1
    # y0 and y1 as rows of each band's span
    offsets = np.repeat(los, band)[:th]
    y0, y1 = y0 - offsets, y1 - offsets
    rows = np.empty((int((his - los).max()) + band, tw))
    first = last = 0  # rows holds source rows first..last
    grid = kind in _GRID_KINDS
    out = np.empty((th, tw), np.uint8 if grid else np.float64)
    lerped = np.empty((min(band, th), tw)) if grid else out
    for i, lo, hi in zip(starts.tolist(), los.tolist(), his.tolist()):
        if hi > last:
            kept = max(last - lo, 0)
            rows[:kept] = rows[lo - first : last - first]
            first, last = lo, min(h, lo + len(rows))
            src = arr[lo + kept : last]
            if src.dtype == np.uint8:
                src = src / 255.0
            part = rows[kept : last - lo]
            left = np.take(src, x0, axis=1)
            np.take(src, x1, axis=1, out=part, mode="clip")
            part -= left
            part *= fx
            part += left
        across = rows[lo - first : hi - first]
        part = lerped[: min(band, th - i)] if grid else out[i : i + band]
        top = np.take(across, y0[i : i + band], axis=0)
        np.take(across, y1[i : i + band], axis=0, out=part, mode="clip")
        part -= top
        part *= fy[i : i + band]
        part += top
        if grid:
            _restore(part, kind, levels, out[i : i + band], part)
    return out


def downscaled_resolution(width: int, height: int, d: int) -> Resolution:
    """Resolution produced by box_downscale at factor d."""
    if d < 1:
        raise DomainError(f"downscale factor must be >= 1, got {d}")
    return Resolution(math.ceil(width / d), math.ceil(height / d))
