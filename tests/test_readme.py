"""README.md's examples work as written.

Every ```python block runs, so the Library section tracks the signatures,
and the ```ini block loads with the [dqn] values DqnConfig defaults to and
runs each command with the external maps the Config file section names.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from semcom.allocator import DqnConfig
from semcom.cli import main
from semcom.config import load_config
from semcom.image import SemanticMap, write_pgm

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
(INI_BLOCK,) = re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def write_config_block(tmp_path, pixels, extra=()):
    """Write the ini block as exp.cfg with each image it names, and each extra path, holding ``pixels``."""
    for image in [*re.findall(r"^\w+\.image\s*=\s*(\S+)", INI_BLOCK, flags=re.M), *extra]:
        (tmp_path / image).parent.mkdir(parents=True, exist_ok=True)
        write_pgm(SemanticMap(pixels), tmp_path / image)
    (tmp_path / "exp.cfg").write_text(INI_BLOCK, encoding="utf-8")


def test_readme_config_block_loads_with_the_dqn_defaults(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config_block(tmp_path, np.zeros((4, 4)))
    config = load_config(tmp_path / "exp.cfg")
    assert [entry.spec.id for entry in config.services] == ["edges", "depth"]
    assert dataclasses.replace(config.dqn, seed=DqnConfig().seed) == DqnConfig()


def test_readme_config_block_sweeps_only_with_an_external_map_for_every_image(tmp_path, monkeypatch, capsys):
    # sweep scores the external pair on both images, so it needs the map of
    # edges' image as well; allocate and pipeline score each service on its own.
    monkeypatch.chdir(tmp_path)
    pixels = np.random.default_rng(16).random((16, 16))
    write_config_block(tmp_path, pixels, extra=["maps/depth.pgm"])
    assert main(["sweep", "--config", "exp.cfg"]) == 2
    assert "maps/edges.pgm" in capsys.readouterr().err
    assert main(["allocate", "--config", "exp.cfg", "--solver", "greedy"]) == 0
    assert main(["pipeline", "--config", "exp.cfg"]) == 0
    write_pgm(SemanticMap(pixels), tmp_path / "maps/edges.pgm")
    assert main(["sweep", "--config", "exp.cfg"]) == 0
