"""Every producer of a full-size map hands its own fresh array to the map.

A map's pixels are read-only, and no map shares memory with an array its
caller passed in or can still write, except ``box_downscale(m, 1)`` and a
same-size ``bilinear_upscale``, which are soft maps over ``m``'s own
read-only pixels.  A BINARY or LABELS map keeps its uint8 levels, and its
pixels are built from them on their first read, with the bits of the
float64 maps its producer first built.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

import semcom.generation
from semcom.codec import decode, encode
from semcom.errors import DomainError
from semcom.extractors import Canny, QuantizeSegmentation, SobelMagnitude, canny, quantize_segmentation, sobel_magnitude
from semcom.generation import QualityCore, ServiceSpec
from semcom.image import (
    BINARY,
    LABELS,
    SOFT,
    Resolution,
    SemanticMap,
    bilinear_upscale,
    box_downscale,
    read_pgm,
    restore_kind,
)
from semcom.metrics import MseQuality
from semcom.rng import stream

from _reference import legacy_canny, legacy_decode, legacy_restore_kind

_VALUES = np.random.default_rng(61).random((13, 17))


def kind_maps():
    """A soft, a binary and a 4-level labels map over _VALUES."""
    return [
        SemanticMap(_VALUES),
        SemanticMap((_VALUES > 0.5).astype(float), kind=BINARY),
        SemanticMap(np.floor(_VALUES * 4) / 3, kind=LABELS, levels=4),
    ]


def held(m):
    """The arrays a map holds: its pixels, and a grid map's uint8 levels."""
    return (m.pixels,) if m.grid is None else (m.pixels, m.grid)


def assert_own_read_only(m, *caller_arrays):
    assert not m.pixels.flags.writeable
    assert m.pixels.flags.c_contiguous and m.pixels.dtype == np.float64
    if m.grid is not None:
        assert not m.grid.flags.writeable
        assert m.grid.flags.c_contiguous and m.grid.dtype == np.uint8
    for arr in caller_arrays:
        for own in held(m):
            assert not np.shares_memory(own, arr)


def test_read_pgm_keeps_the_quotient_it_computed(tmp_path):
    path = tmp_path / "img.pgm"
    data = (_VALUES * 255).astype(np.uint8)
    path.write_bytes(b"P5\n17 13\n255\n" + data.tobytes())
    m = read_pgm(path)
    assert_own_read_only(m, data)
    owner = m.pixels
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    # the base chain ends in an array of its own, not in the file's bytes
    assert owner.base is None and owner.flags.owndata


@pytest.mark.parametrize("extract", [canny, sobel_magnitude, lambda m: quantize_segmentation(m, 4)])
def test_an_extractor_keeps_a_new_array_and_leaves_the_image_alone(extract):
    image = SemanticMap(_VALUES)
    before = image.pixels.tobytes()
    out = extract(image)
    assert_own_read_only(out, image.pixels)
    assert image.pixels.tobytes() == before


@pytest.mark.parametrize("kind, levels", [(SOFT, None), (BINARY, None), (LABELS, 4)])
def test_restore_kind_copies_the_callers_array_once(kind, levels):
    arr = _VALUES.copy()
    m = restore_kind(arr, kind, levels)
    expected = m.pixels.tobytes()
    assert_own_read_only(m, arr)
    arr[...] = 0.75  # on no kind's grid, so a shared buffer would change the map
    assert m.pixels.tobytes() == expected
    assert arr.flags.writeable


def test_restore_kind_of_a_transposed_array_keeps_a_c_ordered_copy():
    m = restore_kind(_VALUES.T, LABELS, 4)
    assert m.pixels.flags.c_contiguous and m.grid.flags.c_contiguous
    assert m.pixels.tobytes() == restore_kind(np.ascontiguousarray(_VALUES.T), LABELS, 4).pixels.tobytes()


@pytest.mark.parametrize("d", [2, 3, 13])
def test_box_downscale_keeps_its_sums(d):
    for m in kind_maps():
        assert_own_read_only(box_downscale(m, d), *held(m))


def test_box_downscale_at_1_and_a_same_size_upscale_build_no_array():
    for m in kind_maps():
        for out in (box_downscale(m, 1), bilinear_upscale(m, m.resolution)):
            assert out.kind == SOFT and out.levels is None
            assert out is m if m.kind == SOFT else out.pixels is m.pixels
            assert not out.pixels.flags.writeable


def test_an_upscale_keeps_a_new_array():
    for m in kind_maps():
        assert_own_read_only(bilinear_upscale(m, Resolution(30, 20)), *held(m))


@pytest.mark.parametrize("extractor", [SobelMagnitude(), Canny(), QuantizeSegmentation(4)], ids=["soft", "binary", "labels"])
def test_a_noisy_reconstruction_keeps_the_noise_array(monkeypatch, extractor):
    core = QualityCore(ServiceSpec(id="n", extractor=extractor, metric=MseQuality(), sigma_gen=0.2), SemanticMap(_VALUES))
    recon = core.reference
    scored = []
    original = semcom.generation.score

    def capture(metric, reference, received):
        scored.append(received)
        return original(metric, reference, received)

    monkeypatch.setattr(semcom.generation, "score", capture)
    core.score_reconstruction(recon, stream(3, "gen"))
    (noisy,) = scored
    assert (noisy.kind, noisy.levels) == (recon.kind, recon.levels)
    assert_own_read_only(noisy, *held(recon), *held(core.semantic))
    # the sum, clip and restore in place give restore_kind's map of the clipped sum
    expected = np.clip(recon.pixels + stream(3, "gen").normal(0.0, 0.2, recon.pixels.shape), 0.0, 1.0)
    assert noisy.pixels.tobytes() == restore_kind(expected, recon.kind, recon.levels).pixels.tobytes()


def unchecked_map(pixels, kind, levels=None):
    """A map over ``pixels`` that skipped every check, as a tampered pickle could describe one."""
    smap = object.__new__(SemanticMap)
    for name, value in (("pixels", pixels), ("kind", kind), ("levels", levels)):
        object.__setattr__(smap, name, value)
    return smap


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("index", range(3), ids=["soft", "binary", "labels"])
def test_a_map_survives_pickling_equal_and_read_only(index, protocol):
    smap = kind_maps()[index]
    loaded = pickle.loads(pickle.dumps(smap, protocol=protocol))
    assert type(loaded) is SemanticMap
    assert (loaded.kind, loaded.levels) == (smap.kind, smap.levels)
    assert loaded.pixels.tobytes() == smap.pixels.tobytes()
    assert loaded.pixels.dtype == np.float64 and loaded.pixels.flags.c_contiguous
    assert not loaded.pixels.flags.writeable
    if smap.grid is not None:
        assert_grid_storage(loaded, smap.pixels)
        assert loaded.grid.tobytes() == smap.grid.tobytes()


@pytest.mark.parametrize("index", range(3), ids=["soft", "binary", "labels"])
def test_an_unpickled_map_owns_its_pixels_when_its_buffer_came_from_outside(index):
    smap = kind_maps()[index]
    buffers = []
    data = pickle.dumps(smap, protocol=5, buffer_callback=buffers.append)
    writable = [bytearray(buffer.raw()) for buffer in buffers]
    loaded = pickle.loads(data, buffers=writable)
    for buffer in writable:
        buffer[:] = bytes(len(buffer))
    assert loaded.pixels.tobytes() == smap.pixels.tobytes()
    assert not loaded.pixels.flags.writeable


@pytest.mark.parametrize(
    "pixels, kind, levels, message",
    [
        (_VALUES * 2.0, SOFT, None, "must lie in \\[0, 1\\]"),
        (_VALUES, BINARY, None, "exactly 0 or 1"),
        (np.floor(_VALUES * 4) / 3 * 0.99 + 0.005, LABELS, 4, "4-level grid"),
    ],
    ids=["soft out of range", "binary off {0, 1}", "labels off the grid"],
)
def test_a_pickled_map_that_fails_a_check_fails_to_load(pixels, kind, levels, message):
    data = pickle.dumps(unchecked_map(pixels, kind, levels))
    with pytest.raises(DomainError, match=message):
        pickle.loads(data)


def test_a_pickled_grid_with_a_level_at_k_fails_to_load():
    for kind, levels, top in ((BINARY, None, 2), (LABELS, 4, 4)):
        smap = unchecked_map(None, kind, levels)
        object.__setattr__(smap, "grid", np.full((3, 4), top, dtype=np.uint8))
        with pytest.raises(DomainError, match=f"levels must lie below {top}"):
            pickle.loads(pickle.dumps(smap))


# --- the storage of a grid map: uint8 levels, float64 pixels built on their first read --------


def assert_grid_storage(m, expected):
    """``m`` keeps read-only uint8 levels, and its pixels are ``expected``'s bits, read-only, the same array on every read."""
    assert m.grid.dtype == np.uint8 and m.grid.flags.c_contiguous and not m.grid.flags.writeable
    pixels = m.pixels
    assert pixels is m.pixels
    assert pixels.dtype == np.float64 and pixels.flags.c_contiguous and not pixels.flags.writeable
    assert pixels.tobytes() == expected.tobytes()


# A 40 x 45 image of smooth waves plus noise, with edges for canny to find.
_WAVES = np.add.outer(np.sin(np.arange(40) / 3.0), np.cos(np.arange(45) / 5.0)) / 4 + 0.5
_IMAGE = SemanticMap(np.clip(_WAVES + 0.1 * np.random.default_rng(62).random(_WAVES.shape), 0.0, 1.0))


@pytest.mark.parametrize("image", [SemanticMap(_VALUES), _IMAGE], ids=["13x17", "40x45"])
def test_canny_keeps_levels_whose_pixels_are_the_float_edge_maps(image):
    assert_grid_storage(canny(image), legacy_canny(image).pixels)


@pytest.mark.parametrize("k", [2, 4, 8, 255])
def test_quantize_keeps_levels_whose_pixels_are_the_float_bins(k):
    assert_grid_storage(quantize_segmentation(_IMAGE, k), legacy_restore_kind(_IMAGE.pixels, LABELS, k).pixels)


@pytest.mark.parametrize("kind, levels", [(BINARY, None), (LABELS, 3), (LABELS, 255)])
def test_restore_kind_keeps_levels_whose_pixels_are_the_float_restore(kind, levels):
    assert_grid_storage(restore_kind(_VALUES, kind, levels), legacy_restore_kind(_VALUES, kind, levels).pixels)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 10])
def test_decode_keeps_levels_whose_pixels_are_the_float_decode(d):
    for m in (canny(_IMAGE), quantize_segmentation(_IMAGE, 4), quantize_segmentation(_IMAGE, 255)):
        payload = encode(m, d)
        assert_grid_storage(decode(payload), legacy_decode(payload).pixels)


@pytest.mark.parametrize("extractor", [Canny(), QuantizeSegmentation(4)], ids=["binary", "labels"])
def test_a_noisy_restore_keeps_levels_whose_pixels_are_the_float_restore(monkeypatch, extractor):
    core = QualityCore(ServiceSpec(id="n", extractor=extractor, metric=MseQuality(), sigma_gen=0.2), _IMAGE)
    recon = core.reference
    scored = []
    original = semcom.generation.score

    def capture(metric, reference, received):
        scored.append(received)
        return original(metric, reference, received)

    monkeypatch.setattr(semcom.generation, "score", capture)
    core.score_reconstruction(recon, stream(4, "gen"))
    noise = stream(4, "gen").normal(0.0, 0.2, recon.pixels.shape)
    assert_grid_storage(scored[0], legacy_restore_kind(np.clip(recon.pixels + noise, 0.0, 1.0), recon.kind, recon.levels).pixels)


@pytest.mark.parametrize("extractor", [Canny(), QuantizeSegmentation(4)], ids=["binary", "labels"])
def test_a_grid_map_is_read_through_its_levels_after_its_pixels_are_read(extractor):
    # Other floats in place of the kept pixels change nothing that reads the map through its levels.
    svc = ServiceSpec(id="n", extractor=extractor, metric=MseQuality(), sigma_gen=0.2)
    core = QualityCore(svc, _IMAGE)
    ref = core.reference
    m, fresh = (SemanticMap._adopt(ref.grid.copy(), ref.kind, ref.levels) for _ in range(2))
    other = 1.0 - m.pixels
    other.setflags(write=False)
    object.__setattr__(m, "pixels", other)
    for d in (2, 3, 10):
        assert encode(m, d).payload == encode(fresh, d).payload, d
    for seed in (4, 5):
        scored = core.score_reconstruction(m, stream(seed, "gen"))
        assert scored.hex() == core.score_reconstruction(fresh, stream(seed, "gen")).hex()


def test_the_constructor_keeps_the_nearest_level_of_grid_input():
    # -0.0, and values within 1e-9 of the grid, read back on the grid
    binary = SemanticMap(np.array([[-0.0, 1.0], [0.0, -0.0]]), kind=BINARY)
    assert_grid_storage(binary, np.array([[0.0, 1.0], [0.0, 0.0]]))
    near = np.array([[0.5 + 4e-10, 1.0 - 4e-10], [-0.0, 0.5 - 4e-10]])
    assert_grid_storage(SemanticMap(near, kind=LABELS, levels=3), np.array([[0.5, 1.0], [0.0, 0.5]]))


def retained(fn, *args):
    """``fn(*args)`` and the bytes it allocated that are still allocated while its result is held."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def image_1024():
    rng = np.random.default_rng(63)
    y, x = np.mgrid[0:1024, 0:1024] / 1024.0
    base = 0.5 + 0.25 * np.sin(6 * np.pi * x) * np.cos(4 * np.pi * y) + 0.12 * np.sin(64 * np.pi * (x + y))
    return SemanticMap(np.clip(base + rng.normal(0.0, 0.02, base.shape), 0.0, 1.0))


@pytest.mark.parametrize("produce", ["canny", "decode"])
def test_a_1024_grid_map_holds_one_byte_a_pixel_until_its_pixels_are_read(image_1024, produce):
    if produce == "canny":
        m, held_bytes = retained(canny, image_1024)
    else:
        m, held_bytes = retained(decode, encode(quantize_segmentation(image_1024, 4), 4))
    size = 1024 * 1024
    assert size <= held_bytes < 1.05 * size
    _, built = retained(lambda: m.pixels)
    assert 8 * size <= built < 8.05 * size
