"""Pipelines that validate in forked worker processes write what the one-CPU loop writes."""

import io
import multiprocessing
import os
import pickle
import shutil

import pytest

from semcom.cli import main
from semcom.codec import decode, serialize_payload
from semcom.extractors import SobelMagnitude
from semcom.generation import ServiceSpec, Surrogate, validate_and_adjust
from semcom.image import SemanticMap, write_pgm
from semcom.metrics import PsnrQuality

from _fixtures import diagonal, forbidden_fork, gradient_with_square, use_cpus


def write_images(tmp_path):
    paths = {name: tmp_path / f"{name}.pgm" for name in ("diag", "mixed")}
    write_pgm(diagonal(32), paths["diag"])
    write_pgm(gradient_with_square(32), paths["mixed"])
    return paths


def pipeline_config(tmp_path, sigma_gen=0.0):
    """Six services over two 32x32 images on a noisy channel, in config order:

    - a: noise-free, ok;
    - b: noisy (``sigma_gen`` 0.05), placed between noise-free services;
    - c: fails validation, since no factor reaches 0.9999 without factor 1;
    - d: passes validation at d = 2 and scores below its threshold after the channel;
    - e: noise-free, ok;
    - f: noisy, so b's validation and scoring draws must come before f's.

    The delivered bytes exceed the budget. ``sigma_gen`` adds noise to every service but b and f.
    """
    paths = write_images(tmp_path)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"""
[services]
a.extractor = sobel
a.metric = mse
a.image = {paths['mixed']}
a.sigma_gen = {sigma_gen}
b.extractor = quantize(k=4)
b.metric = vi(k=4)
b.image = {paths['diag']}
b.sigma_gen = 0.05
c.extractor = canny
c.metric = ssim(window=4)
c.image = {paths['diag']}
c.threshold = 0.9999
c.sigma_gen = {sigma_gen}
d.extractor = sobel
d.metric = psnr
d.image = {paths['diag']}
d.threshold = 0.38
d.sigma_gen = {sigma_gen}
e.extractor = quantize(k=4)
e.metric = mse
e.image = {paths['mixed']}
e.sigma_gen = {sigma_gen}
f.extractor = sobel
f.metric = psnr
f.image = {paths['mixed']}
f.sigma_gen = 0.1

[channel]
budget_bytes = 300
bit_flip_prob = 0.01
seed = 5

[factors]
d = 2,4,8

[output]
dir = {tmp_path / 'out'}
"""
    )
    return cfg


def pipeline_run(tmp_path, cfg, capsys):
    """Exit code, stdout, stderr, every output file but the manifest, and the manifest without its times."""
    code = main(["pipeline", "--config", str(cfg)])
    assert multiprocessing.active_children() == []
    out = tmp_path / "out"
    manifest = (out / "pipeline_manifest.txt").read_text().splitlines()
    files = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
    del files["pipeline_manifest.txt"]
    shutil.rmtree(out)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, files, [l for l in manifest if not l.startswith(("started:", "finished:"))]


@pytest.mark.parametrize("cpus", [2, 8])
def test_pooled_and_one_cpu_pipelines_are_the_same_run(tmp_path, monkeypatch, capsys, forks, cpus):
    cfg = pipeline_config(tmp_path)
    use_cpus(monkeypatch, cpus)
    pooled = pipeline_run(tmp_path, cfg, capsys)
    # one worker per noise-free service (a, c, d and e), at most one per CPU
    assert len(forks) == min(4, cpus)
    use_cpus(monkeypatch, 1)
    serial = pipeline_run(tmp_path, cfg, capsys)
    assert len(forks) == min(4, cpus)
    assert pooled == serial

    code, _, err, files, manifest = serial
    assert code == 1
    statuses = [row.split(",")[:2] for row in files["pipeline_report.csv"].decode().splitlines()[1:]]
    assert statuses == [
        ["a", "ok"], ["b", "ok"], ["c", "validation_failed"], ["d", "below_threshold"], ["e", "ok"], ["f", "ok"]
    ]
    assert sorted(files) == [*(f"{s}_payload.bin" for s in "abdef"), "pipeline_report.csv"]
    assert err.startswith("service d: scores ") and "budget: delivered" in err
    assert "status: ok" in manifest and sum(line.startswith("  channel: ") for line in manifest) == 5


@pytest.mark.parametrize("broken", ["image", "payload"])
def test_an_error_at_service_two_fails_the_pipeline_as_in_process(tmp_path, monkeypatch, capsys, broken):
    # an unreadable image fails service two's validation in a worker; an unwritable
    # payload fails its delivery in this process, while service three may be validating
    paths = write_images(tmp_path)
    # exists, so the config loads, but cannot be read as a file
    (tmp_path / "unreadable.pgm").mkdir()
    two = tmp_path / "unreadable.pgm" if broken == "image" else paths["mixed"]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[services]\n"
        + "".join(
            f"{name}.extractor = sobel\n{name}.metric = mse\n{name}.image = {image}\n"
            for name, image in (("one", paths["diag"]), ("two", two), ("three", paths["mixed"]))
        )
        + f"[factors]\nd = 1,2,4\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    runs = []
    for cpus in (8, 1):
        use_cpus(monkeypatch, cpus)
        if broken == "payload":
            (tmp_path / "out" / "two_payload.bin").mkdir(parents=True)
        runs.append(pipeline_run(tmp_path, cfg, capsys))
    assert runs[0] == runs[1]
    code, out, err, files, manifest = runs[0]
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read " if broken == "image" else "error: cannot write ")
    assert err.count("\n") == 1
    assert sorted(files) == ["one_payload.bin"]
    assert manifest[manifest.index("status: error") :] == [
        "status: error",
        err.rstrip("\n"),
        "emitted:",
        f"  {tmp_path / 'out' / 'one_payload.bin'}",
    ]


@pytest.mark.parametrize("platform", ["one usable CPU", "no CPU set", "no fork", "no noise-free service"])
def test_a_pipeline_without_two_workers_starts_no_process(tmp_path, monkeypatch, capsys, platform):
    cfg = pipeline_config(tmp_path, sigma_gen=0.05 if platform == "no noise-free service" else 0.0)
    use_cpus(monkeypatch, 1)
    expected = pipeline_run(tmp_path, cfg, capsys)
    use_cpus(monkeypatch, 4)
    if platform == "one usable CPU":
        use_cpus(monkeypatch, 1)
    elif platform == "no CPU set":
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "fork", forbidden_fork)
    if platform == "no fork":
        monkeypatch.delattr(os, "fork")
    assert pipeline_run(tmp_path, cfg, capsys) == expected


class MapFreePickler(pickle.Pickler):
    """Fails on any SemanticMap in what it pickles."""

    def reducer_override(self, obj):
        assert not isinstance(obj, SemanticMap), "a map was pickled"
        return NotImplemented


def test_a_validation_crosses_a_process_boundary_as_two_payloads_and_no_map():
    svc = ServiceSpec(id="s", extractor=SobelMagnitude(), metric=PsnrQuality(), threshold=0.3)
    validation = validate_and_adjust(svc, diagonal(32), 8, [1, 2, 4, 8], Surrogate(), None)
    assert validation.accepted_d > 1
    data = io.BytesIO()
    MapFreePickler(data).dump(validation)
    loaded = pickle.loads(data.getvalue())
    assert (loaded.accepted_d, loaded.quality) == (validation.accepted_d, validation.quality)
    core = loaded.core
    assert core.svc == svc and core.source is None
    assert sorted(core._payloads) == [1, loaded.accepted_d]
    assert {"semantic", "reference"}.isdisjoint(vars(core))
    for d in (1, loaded.accepted_d):
        assert serialize_payload(core.payload(d)) == serialize_payload(validation.core.payload(d))
    # the reference is decoded again from factor 1's payload, to the same bits
    assert core.reference.pixels.tobytes() == validation.core.reference.pixels.tobytes()
    received = decode(core.payload(loaded.accepted_d))
    assert core.score_reconstruction(received, None) == validation.core.score_reconstruction(received, None)
