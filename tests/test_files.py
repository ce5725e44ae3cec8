import os
import re

import numpy as np
import pytest

from semcom import files
from semcom.errors import IoError
from semcom.image import SemanticMap, write_pgm
from semcom.qnet import Mlp, load_qnet, save_qnet


def write_small_pgm(path):
    write_pgm(SemanticMap(np.full((3, 2), 0.5)), path)


def write_small_qnet(path):
    save_qnet(Mlp([2, 3, 2], np.random.default_rng(4)), path)


WRITERS = [
    pytest.param(write_small_pgm, id="write_pgm"),
    pytest.param(write_small_qnet, id="save_qnet"),
    pytest.param(lambda path: files.write_atomic(path, b"new"), id="write_atomic"),
]


def test_write_atomic_writes_its_chunks_in_order(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"a longer previous content")
    files.write_atomic(target, b"ab", np.arange(3, dtype=np.uint8).reshape(1, 3), memoryview(b"z"))
    assert target.read_bytes() == b"ab\x00\x01\x02z"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_a_fortran_ordered_parameter_is_saved_row_major(tmp_path):
    net = Mlp([2, 3, 2], np.random.default_rng(4))
    net.weights[0] = np.asfortranarray(net.weights[0])
    save_qnet(net, tmp_path / "agent.bin")
    back = load_qnet(tmp_path / "agent.bin")
    for a, b in zip(net.weights + net.biases, back.weights + back.biases):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("write", WRITERS)
def test_a_failed_rename_keeps_the_previous_file(tmp_path, monkeypatch, write):
    target = tmp_path / "out"
    target.write_bytes(b"previous")

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(files.os, "replace", fail)
    with pytest.raises(IoError, match=re.escape(f"cannot write {target}: rename refused")):
        write(target)
    assert target.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("write", WRITERS)
def test_a_symlink_to_a_device_is_left_alone(tmp_path, write):
    link = tmp_path / "out"
    link.symlink_to(os.devnull)
    with pytest.raises(IoError, match=re.escape(f"cannot write {link}: not a regular file")):
        write(link)
    assert os.readlink(link) == os.devnull
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("write", WRITERS)
def test_a_directory_target_is_left_alone(tmp_path, write):
    (tmp_path / "out" / "inner").mkdir(parents=True)
    with pytest.raises(IoError, match="cannot write .*: not a regular file"):
        write(tmp_path / "out")
    assert os.listdir(tmp_path) == ["out"]
    assert os.listdir(tmp_path / "out") == ["inner"]


def test_a_symlink_to_a_regular_file_is_replaced_not_written_through(tmp_path):
    target = tmp_path / "target.bin"
    target.write_bytes(b"keep")
    link = tmp_path / "link.bin"
    link.symlink_to(target)
    files.write_atomic(link, b"new")
    assert not link.is_symlink()
    assert link.read_bytes() == b"new"
    assert target.read_bytes() == b"keep"


def test_a_failed_temporary_write_is_an_io_error(tmp_path):
    with pytest.raises(IoError, match="cannot write .*missing"):
        files.write_atomic(tmp_path / "missing" / "out.bin", b"x")
    assert os.listdir(tmp_path) == []


def test_read_bytes_failures_are_io_errors(tmp_path):
    with pytest.raises(IoError, match="cannot read"):
        files.read_bytes(tmp_path / "missing.bin")
    with pytest.raises(IoError, match="cannot read"):
        files.read_bytes(tmp_path)
