"""Shared synthetic images, random allocation instances, a memory probe, a CPU-count patch and a call log for the tests."""

import os
import tracemalloc

import numpy as np

from semcom.allocator import AllocationInstance
from semcom.channel import ChannelConfig
from semcom.codec import encoded_cost
from semcom.extractors import Canny, QuantizeSegmentation, SobelMagnitude
from semcom.generation import ServiceSpec
from semcom.image import SemanticMap
from semcom.metrics import MseQuality, PsnrQuality, SsimQuality, ViQuality


def traced_peak(fn, *args):
    """Bytes ``fn(*args)`` allocates at its peak, beyond what was allocated before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def use_cpus(monkeypatch, n):
    """Make the process see ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def logged(path, fn, describe):
    """``fn``, appending ``<pid> <describe(*args)>`` to ``path`` on every call; the log survives a fork."""

    def counted(*args, **kwargs):
        with open(path, "a") as log:
            log.write(f"{os.getpid()} {describe(*args, **kwargs)}\n")
        return fn(*args, **kwargs)

    return counted


def forbidden_fork():
    """os.fork for a run that must start no process."""
    raise AssertionError("a one-worker run forked")


def vertical_step(size=16, at=None):
    arr = np.zeros((size, size))
    arr[:, (at if at is not None else size // 2) :] = 1.0
    return SemanticMap(arr)


def horizontal_step(size=16, at=None):
    arr = np.zeros((size, size))
    arr[(at if at is not None else size // 2) :, :] = 1.0
    return SemanticMap(arr)


def diagonal(size=16):
    arr = np.zeros((size, size))
    for y in range(size):
        arr[y, y + 1 :] = 1.0
    return SemanticMap(arr)


def filled_square(size=16, side=None):
    side = side if side is not None else size // 3
    lo = (size - side) // 2
    arr = np.zeros((size, size))
    arr[lo : lo + side, lo : lo + side] = 1.0
    return SemanticMap(arr)


def gradient(size=16, horizontal=True):
    ramp = np.linspace(0.0, 1.0, size)
    arr = np.tile(ramp, (size, 1))
    return SemanticMap(arr if horizontal else arr.T)


def gradient_with_square(size=16):
    arr = np.tile(np.linspace(0.0, 0.6, size), (size, 1)).copy()
    lo = size // 4
    arr[lo : lo + size // 3, lo : lo + size // 3] = 1.0
    return SemanticMap(arr)


EXTRACTOR_CHOICES = [Canny(), SobelMagnitude(), QuantizeSegmentation(4)]
METRIC_CHOICES = [MseQuality(), PsnrQuality(), SsimQuality(), ViQuality(4)]


def synthetic_image(rng, size=16):
    makers = [vertical_step, horizontal_step, diagonal, filled_square, gradient, gradient_with_square]
    maker = makers[int(rng.integers(len(makers)))]
    return maker(size)


def random_instance(rng, max_services=3, max_factors=4, size=16):
    """Random small instance with a budget drawn between the extreme costs."""
    n_services = int(rng.integers(1, max_services + 1))
    n_factors = int(rng.integers(2, max_factors + 1))
    pool = [1, 2, 3, 4, 6, 8, 10]
    factors = tuple(sorted(rng.choice(pool, size=n_factors, replace=False).tolist()))
    services = []
    images = []
    for s in range(n_services):
        services.append(
            ServiceSpec(
                id=f"svc{s}",
                extractor=EXTRACTOR_CHOICES[int(rng.integers(len(EXTRACTOR_CHOICES)))],
                metric=METRIC_CHOICES[int(rng.integers(len(METRIC_CHOICES)))],
                weight=float(rng.uniform(0.5, 2.0)),
            )
        )
        images.append(synthetic_image(rng, size))
    cheapest = sum(encoded_cost(img.width, img.height, factors[-1]) for img in images)
    dearest = sum(encoded_cost(img.width, img.height, factors[0]) for img in images)
    budget = int(np.ceil(cheapest + rng.random() * (dearest - cheapest)))
    return AllocationInstance(
        services=tuple(services),
        images=tuple(images),
        factors=factors,
        channel=ChannelConfig(budget_bytes=budget),
    )


def noisy_instance(image_shift=0):
    """Three services, one with generation noise, over factors (1, 2, 4) and a 900-byte budget."""
    services = (
        ServiceSpec(id="edges", extractor=SobelMagnitude(), metric=SsimQuality()),
        ServiceSpec(id="regions", extractor=QuantizeSegmentation(4), metric=ViQuality(4), weight=2.0),
        ServiceSpec(id="gen", extractor=SobelMagnitude(), metric=PsnrQuality(), sigma_gen=0.05),
    )
    images = (diagonal(24), filled_square(24, 8 + image_shift), gradient_with_square(24))
    return AllocationInstance(
        services=services, images=images, factors=(1, 2, 4), channel=ChannelConfig(budget_bytes=900)
    )
