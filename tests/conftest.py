import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_map(rng, width, height):
    from semcom.image import SemanticMap

    return SemanticMap(rng.random((height, width)))


@pytest.fixture
def make_random_map():
    return random_map


@pytest.fixture
def forks(monkeypatch):
    """The processes forked in this process."""
    calls = []
    real_fork = os.fork

    def counted():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture
def extract_calls(monkeypatch):
    """Record (extractor, image) of every extraction made through the program's modules."""
    import semcom.cli
    import semcom.generation

    calls = []
    original = semcom.generation.extract

    def counted(kind, image, image_id=None):
        calls.append((repr(kind), id(image)))
        return original(kind, image, image_id=image_id)

    for module in (semcom.generation, semcom.cli):
        monkeypatch.setattr(module, "extract", counted)
    return calls
