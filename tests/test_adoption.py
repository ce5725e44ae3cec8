"""Every producer of a full-size map hands its own fresh array to the map.

A map's pixels are read-only, and no map shares memory with an array its
caller passed in or can still write, except ``box_downscale(m, 1)`` and a
same-size ``bilinear_upscale``, which are soft maps over ``m``'s own
read-only pixels.
"""

import pickle

import numpy as np
import pytest

import semcom.generation
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

_VALUES = np.random.default_rng(61).random((13, 17))


def kind_maps():
    """A soft, a binary and a 4-level labels map over _VALUES."""
    return [
        SemanticMap(_VALUES),
        SemanticMap((_VALUES > 0.5).astype(float), kind=BINARY),
        SemanticMap(np.floor(_VALUES * 4) / 3, kind=LABELS, levels=4),
    ]


def assert_own_read_only(m, *caller_arrays):
    assert not m.pixels.flags.writeable
    assert m.pixels.flags.c_contiguous and m.pixels.dtype == np.float64
    for arr in caller_arrays:
        assert not np.shares_memory(m.pixels, arr)


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
    assert m.pixels.flags.c_contiguous
    assert m.pixels.tobytes() == restore_kind(np.ascontiguousarray(_VALUES.T), LABELS, 4).pixels.tobytes()


@pytest.mark.parametrize("d", [2, 3, 13])
def test_box_downscale_keeps_its_sums(d):
    for m in kind_maps():
        assert_own_read_only(box_downscale(m, d), m.pixels)


def test_box_downscale_at_1_and_a_same_size_upscale_build_no_array():
    for m in kind_maps():
        for out in (box_downscale(m, 1), bilinear_upscale(m, m.resolution)):
            assert out.kind == SOFT and out.levels is None
            assert out is m if m.kind == SOFT else out.pixels is m.pixels
            assert not out.pixels.flags.writeable


def test_an_upscale_keeps_a_new_array():
    for m in kind_maps():
        assert_own_read_only(bilinear_upscale(m, Resolution(30, 20)), m.pixels)


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
    assert_own_read_only(noisy, recon.pixels, core.semantic.pixels)
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
