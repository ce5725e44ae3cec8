"""Any byte string handed to a file or wire-format parser parses or raises a SemcomError.

Inputs are valid files with a few bytes overwritten, valid files cut
short, with bytes deleted or inserted, and plain random bytes. An exception of any other type fails
the property, since the CLI turns only SemcomError into an exit code.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semcom.codec import encode, parse_payload, serialize_payload
from semcom.config import load_config
from semcom.errors import SemcomError
from semcom.image import SemanticMap, read_pgm, write_pgm
from semcom.qnet import Mlp, load_qnet, save_qnet

CONFIG = """[services]
a.extractor = quantize(k=4)
a.metric = vi(k=4)
a.image = {image}
a.threshold = 0.5
a.d = 2
b.extractor = canny(low=0.1;high=0.2;sigma=1.4)
b.metric = ssim(window=2)
b.image = {image}

[channel]
budget_bytes = 1000
bit_flip_prob = 0.01
seed = 7

[factors]
d = 1,2,4

[dqn]
episodes = 5
hidden = 8,8
batch = 4

[output]
dir = {out}
"""

PARSERS = {
    "read_pgm": read_pgm,
    "parse_payload": lambda path: parse_payload(path.read_bytes()),
    "load_qnet": load_qnet,
    "load_config": load_config,
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One valid input per parser, as bytes, and a directory to write mutants into."""
    d = tmp_path_factory.mktemp("hostile")
    rng = np.random.default_rng(3)
    image = SemanticMap(rng.random((5, 6)))
    write_pgm(image, d / "image.pgm")
    save_qnet(Mlp([1, 2, 1], rng), d / "agent.bin")
    seeds = {
        "read_pgm": (d / "image.pgm").read_bytes(),
        "parse_payload": serialize_payload(encode(image, 4)),
        "load_qnet": (d / "agent.bin").read_bytes(),
        "load_config": CONFIG.format(image=d / "image.pgm", out=d / "out").encode(),
    }
    return d, seeds


def positions(size: int):
    """An index into ``size`` bytes; half of them in the first 32, where every format keeps its header."""
    return st.one_of(st.integers(0, min(size, 32)), st.integers(0, size)).map(lambda i: min(i, size))


@st.composite
def overwritten(draw, seed: bytes):
    """``seed`` with up to three bytes replaced: every field keeps its length."""
    out = bytearray(seed)
    for _ in range(draw(st.integers(1, 3))):
        out[min(draw(positions(len(out))), len(out) - 1)] = draw(st.integers(0, 255))
    return bytes(out)


@st.composite
def resized(draw, seed: bytes):
    """``seed`` after up to three truncations, deletions or insertions."""
    out = bytearray(seed)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(positions(len(out)))
        op = draw(st.sampled_from(("truncate", "delete", "insert")))
        if op == "truncate":
            del out[i:]
        elif op == "delete":
            del out[i : i + draw(st.integers(1, 32))]
        else:
            out[i:i] = draw(st.binary(min_size=1, max_size=8))
    return bytes(out)


def parses_or_raises_a_semcom_error(valid_files, parser, data):
    path = valid_files[0] / f"mutant_{parser}"
    path.write_bytes(data)
    try:
        PARSERS[parser](path)
    except SemcomError:
        pass


@pytest.mark.parametrize("parser", PARSERS)
@given(data=st.data())
def test_overwritten_bytes_parse_or_raise_a_semcom_error(valid_files, parser, data):
    parses_or_raises_a_semcom_error(valid_files, parser, data.draw(overwritten(valid_files[1][parser])))


@pytest.mark.parametrize("parser", PARSERS)
@given(data=st.data())
def test_resized_inputs_parse_or_raise_a_semcom_error(valid_files, parser, data):
    parses_or_raises_a_semcom_error(valid_files, parser, data.draw(resized(valid_files[1][parser])))


@pytest.mark.parametrize("parser", PARSERS)
@given(data=st.binary(max_size=64))
def test_random_bytes_parse_or_raise_a_semcom_error(valid_files, parser, data):
    parses_or_raises_a_semcom_error(valid_files, parser, data)


@pytest.mark.parametrize("parser", PARSERS)
def test_the_unmutated_inputs_parse(valid_files, parser):
    d, seeds = valid_files
    path = d / f"valid_{parser}"
    path.write_bytes(seeds[parser])
    PARSERS[parser](path)
