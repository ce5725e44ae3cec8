"""README.md's examples work as written.

Every ```python block runs, so the Library section tracks the signatures,
and the ```ini block loads with the [dqn] values DqnConfig defaults to.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from semcom.allocator import DqnConfig
from semcom.config import load_config
from semcom.image import SemanticMap, write_pgm

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})


def test_readme_config_block_loads_with_the_dqn_defaults(tmp_path, monkeypatch):
    (block,) = re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    monkeypatch.chdir(tmp_path)
    for image in re.findall(r"^\w+\.image\s*=\s*(\S+)", block, flags=re.M):
        (tmp_path / image).parent.mkdir(parents=True, exist_ok=True)
        write_pgm(SemanticMap(np.zeros((4, 4))), tmp_path / image)
    (tmp_path / "exp.cfg").write_text(block, encoding="utf-8")
    config = load_config(tmp_path / "exp.cfg")
    assert [entry.spec.id for entry in config.services] == ["edges", "depth"]
    assert dataclasses.replace(config.dqn, seed=DqnConfig().seed) == DqnConfig()
