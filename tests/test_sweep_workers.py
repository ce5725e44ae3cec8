"""Sweeps in forked worker processes write what the in-process loop writes."""

import multiprocessing
import os

import pytest

from semcom.cli import main
from semcom.extractors import Canny, QuantizeSegmentation, SobelMagnitude
from semcom.generation import Surrogate
from semcom.image import write_pgm
from semcom.metrics import MseQuality, SsimQuality, ViQuality
from semcom.pairing import select_pair, sweep_candidates, sweep_curve

from _fixtures import diagonal, forbidden_fork, gradient_with_square, use_cpus

FACTORS = [1, 2, 4, 8]


def sweep_config(tmp_path, seg_metric="vi(k=4)", peak_extractor="sobel"):
    """Four pairs over two 32x32 images: a binary (canny), a soft (sobel) and a labels map."""
    paths = {name: tmp_path / f"{name}.pgm" for name in ("diag", "mixed")}
    write_pgm(diagonal(32), paths["diag"])
    write_pgm(gradient_with_square(32), paths["mixed"])
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"""
[services]
edges.extractor = canny
edges.metric = ssim(window=4)
edges.image = {paths['diag']}
seg.extractor = quantize(k=4)
seg.metric = {seg_metric}
seg.image = {paths['mixed']}
grad.extractor = sobel
grad.metric = mse
grad.image = {paths['mixed']}
peak.extractor = {peak_extractor}
peak.metric = psnr
peak.image = {paths['diag']}

[factors]
d = {",".join(map(str, FACTORS))}

[output]
dir = {tmp_path / 'out'}
"""
    )
    return cfg


def sweep_outputs(tmp_path, cfg):
    assert main(["sweep", "--config", str(cfg)]) == 0
    return [(tmp_path / "out" / name).read_bytes() for name in ("curves.csv", "pairing_report.csv")]


def test_pooled_and_one_cpu_sweeps_write_the_same_bytes(tmp_path, monkeypatch, forks):
    cfg = sweep_config(tmp_path)
    use_cpus(monkeypatch, 8)
    pooled = sweep_outputs(tmp_path, cfg)
    # one worker per pair, none left running
    assert len(forks) == 4
    assert multiprocessing.active_children() == []
    use_cpus(monkeypatch, 1)
    serial = sweep_outputs(tmp_path, cfg)
    assert len(forks) == 4
    assert pooled == serial
    assert len(pooled[0].splitlines()) == 1 + 4 * len(FACTORS)


def test_pooled_and_one_cpu_select_pair_give_the_same_winner(monkeypatch, forks):
    extractors = [Canny(), SobelMagnitude(), QuantizeSegmentation(4)]
    metrics = [SsimQuality(4), MseQuality(), ViQuality(4)]
    images = [diagonal(32), gradient_with_square(32)]
    winners = []
    for cpus in (2, 1):
        use_cpus(monkeypatch, cpus)
        winners.append(select_pair(extractors, metrics, images, FACTORS, Surrogate(), image_ids=["a", "b"]))
    # two workers for the nine pairs, then none
    assert len(forks) == 2
    assert winners[0] == winners[1]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("platform", ["one usable CPU", "no CPU set", "no fork", "one pair"])
def test_a_one_worker_sweep_runs_in_process(monkeypatch, platform):
    pairs = [(Canny(), SsimQuality(4)), (SobelMagnitude(), MseQuality())]
    images = [diagonal(32), gradient_with_square(32)]
    expected = [sweep_curve(e, m, images, FACTORS, Surrogate()) for e, m in pairs]
    use_cpus(monkeypatch, 4)
    if platform == "one usable CPU":
        use_cpus(monkeypatch, 1)
    elif platform == "no CPU set":
        monkeypatch.delattr(os, "sched_getaffinity")
    elif platform == "one pair":
        pairs, expected = pairs[:1], expected[:1]
    monkeypatch.setattr(os, "fork", forbidden_fork)
    if platform == "no fork":
        monkeypatch.delattr(os, "fork")
    assert sweep_candidates(pairs, images, FACTORS, Surrogate()) == expected


@pytest.mark.parametrize(
    "broken",
    [
        {"seg_metric": "ssim(window=64)"},
        {"peak_extractor": "external(template=missing/{id}.pgm)"},
    ],
    ids=["ssim window larger than the image", "missing external map"],
)
def test_a_pair_failing_in_a_worker_fails_the_sweep_as_in_process(tmp_path, monkeypatch, capsys, broken):
    cfg = sweep_config(tmp_path, **broken)
    runs = []
    for cpus in (8, 1):
        use_cpus(monkeypatch, cpus)
        code = main(["sweep", "--config", str(cfg)])
        manifest = (tmp_path / "out" / "sweep_manifest.txt").read_text().splitlines()
        runs.append((code, capsys.readouterr().err, [line for line in manifest if line.startswith(("status:", "error:"))]))
        assert multiprocessing.active_children() == []
    assert runs[0] == runs[1]
    code, err, status = runs[0]
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert status == ["status: error", err.rstrip("\n")]
