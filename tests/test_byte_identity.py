"""Every workflow writes the same bytes with its banded kernels as with their whole-array oracles.

Each command runs through ``cli.main`` twice on small generated inputs,
with every band constant set to a small odd value, so that the inputs
cross many band edges: once as shipped, and once with each banded kernel
and ``transmit`` replaced by its oracle from ``_reference`` in every
``semcom`` module that binds it.  Every output file, exit code, stdout
and stderr must match byte for byte; manifests are compared without
their start and finish timestamps.
"""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

import semcom.channel
import semcom.codec
import semcom.extractors
import semcom.image
import semcom.metrics
from semcom import cli
from semcom.channel import TransmitResult
from semcom.codec import cost_bytes
from semcom.image import BINARY, LABELS
from semcom.metrics import SsimQuality

import _reference
from _fixtures import logged


def oracle_transmit(payload, cfg, rng):
    """channel.transmit through reference_transmit's literal loop over the gaps between flips."""
    delivered, flipped = _reference.reference_transmit(payload, cfg.bit_flip_prob, rng)
    return TransmitResult(dataclasses.replace(payload, payload=delivered), cost_bytes(payload), flipped)


def oracle_ssim_quality(a, b, params=SsimQuality()):
    """ssim_quality through the integer window-sum oracle for two maps on level grids, else the doubling one."""
    if a.kind in (BINARY, LABELS) and b.kind in (BINARY, LABELS):
        return _reference.reference_grid_ssim_quality(a, b, params)
    return _reference.reference_window_ssim_quality(a, b, params)


# (defining module, kernel name, oracle)
ORACLES = [
    (semcom.extractors, "canny", _reference.legacy_canny),
    (semcom.extractors, "sobel_magnitude", _reference.legacy_sobel_magnitude),
    (semcom.image, "box_downscale", _reference.reference_box_downscale),
    (semcom.codec, "decode", _reference.legacy_decode),
    (semcom.metrics, "ssim_quality", oracle_ssim_quality),
    (semcom.metrics, "vi_quality", _reference.legacy_vi_quality),
    (semcom.channel, "transmit", oracle_transmit),
]

# Elements per band (gaps per batch for the channel): odd, and a few rows
# of the 61- to 96-pixel-wide maps, so that bands end mid-map.
BANDS = [
    (semcom.extractors, "_VALUE_BAND", 251),
    (semcom.image, "_BAND", 199),
    (semcom.image, "_VALUE_BAND", 211),
    (semcom.metrics, "_BAND", 233),
    (semcom.metrics, "_VALUE_BAND", 127),
    (semcom.channel, "_GAP_BATCH", 37),
]

COMMANDS = [
    ["sweep"],
    *(["allocate", "--solver", solver] for solver in ("dqn", "exhaustive", "greedy", "random")),
    ["pipeline"],
]


def semcom_modules():
    return [module for name, module in sorted(sys.modules.items()) if name.split(".")[0] == "semcom"]


def bindings(targets):
    """(module, global name) of every semcom module global that is one of ``targets`` or holds one."""
    found = []
    for module in semcom_modules():
        for name, value in vars(module).items():
            members = value.values() if isinstance(value, dict) else value if isinstance(value, (list, tuple, set)) else ()
            if any(v is t for v in (value, *members) for t in targets):
                found.append((module.__name__, name))
    return found


def swap_in_oracles(monkeypatch, log) -> None:
    """Bind each kernel's oracle wherever a semcom module binds the kernel, logging each call to ``log``.

    The log is a file, so the calls made in forked workers are counted too.
    """
    kernels = [getattr(module, name) for module, name, _ in ORACLES]
    for (module, name, oracle), kernel in zip(ORACLES, kernels):
        counted = logged(log, oracle, lambda *args, _name=name, **kwargs: _name)
        bound = [(m, attr) for m in semcom_modules() for attr, value in vars(m).items() if value is kernel]
        assert (module, name) in bound, f"{module.__name__}.{name} is not the kernel's own binding"
        for m, attr in bound:
            monkeypatch.setattr(m, attr, counted)
    assert bindings(kernels) == [], "a semcom module still holds a banded kernel"


def write_inputs(tmp_path):
    """Two noisy sinusoid images of ragged sizes and a five-service config over odd factors."""
    paths = []
    for index, (width, height) in enumerate([(67, 61), (96, 64)]):
        rng = np.random.default_rng([2024, index])
        y, x = np.mgrid[0:height, 0:width] / 32.0
        base = 0.5 + 0.3 * np.sin(2.0 * x + rng.uniform(0, 6)) * np.cos(3.0 * y + rng.uniform(0, 6))
        pixels = np.clip(base + rng.normal(0.0, 0.05, base.shape), 0.0, 1.0)
        path = tmp_path / f"img{index}.pgm"
        path.write_bytes(b"P5\n%d %d\n255\n" % (width, height) + np.rint(pixels * 255).astype(np.uint8).tobytes())
        paths.append(path)
    a, b = paths
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"""[services]
edges.extractor = canny(sigma=1.1)
edges.metric = ssim(window=7)
edges.image = {a}
edges.threshold = 0.3
grad.extractor = sobel
grad.metric = psnr
grad.image = {b}
grad.sigma_gen = 0.05
grad.threshold = 0.5
seg.extractor = quantize(k=5)
seg.metric = vi(k=5)
seg.image = {b}
seg.threshold = 0.6
seg.weight = 2.0
lab.extractor = quantize(k=8)
lab.metric = ssim(window=5)
lab.image = {a}
lab.threshold = 0.5
soft.extractor = sobel
soft.metric = ssim(window=6)
soft.image = {b}
soft.threshold = 0.4
[channel]
budget_bytes = 6000
bit_flip_prob = 0.003
seed = 5
[factors]
d = 1,2,3,5
[dqn]
episodes = 40
warmup = 8
batch = 4
hidden = 8
[output]
dir = {tmp_path / 'out'}
"""
    )
    return cfg


def run_all(cfg, capsys):
    """Exit code, stdout, stderr and output files of every command, each run into an empty directory."""
    runs = {}
    out = cfg.parent / "out"
    for argv in COMMANDS:
        code = cli.main([argv[0], "--config", str(cfg), *argv[1:]])
        std = capsys.readouterr()
        files = {}
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            if path.name.endswith("_manifest.txt"):
                data = b"".join(line for line in data.splitlines(True) if not line.startswith((b"started:", b"finished:")))
            files[path.name] = data
            path.unlink()
        runs[" ".join(argv)] = (code, std.out, std.err, files)
    return runs


def test_every_output_byte_matches_the_whole_array_oracles(tmp_path, monkeypatch, capsys):
    for module, name, value in BANDS:
        assert hasattr(module, name)
        monkeypatch.setattr(module, name, value)
    cfg = write_inputs(tmp_path)
    shipped = run_all(cfg, capsys)

    log = tmp_path / "oracles.log"
    swap_in_oracles(monkeypatch, log)
    oracle = run_all(cfg, capsys)

    calls = Counter(line.split(" ")[1] for line in log.read_text().splitlines())
    assert set(calls) == {name for _, name, _ in ORACLES}, "an oracle never ran"
    assert shipped.keys() == oracle.keys()
    for command in shipped:
        code, out, err, files = shipped[command]
        assert (code, out, err) == oracle[command][:3], command
        assert files.keys() == oracle[command][3].keys(), command
        for name in files:
            assert files[name] == oracle[command][3][name], f"{command}: {name}"
    # the pipeline wrote payloads and the DQN a checkpoint, so the comparison covers them
    assert any(name.endswith("_payload.bin") for name in shipped["pipeline"][3])
    assert "dqn_agent.bin" in shipped["allocate --solver dqn"][3]
