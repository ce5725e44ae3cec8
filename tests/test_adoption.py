"""Every producer of a full-size map hands its own fresh array to the map.

A map's pixels are read-only, and no map shares memory with an array its
caller passed in or can still write, except ``box_downscale(m, 1)`` and a
same-size ``bilinear_upscale``, which are soft maps over ``m``'s own
read-only pixels.
"""

import numpy as np
import pytest

import semcom.generation
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
