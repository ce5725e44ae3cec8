"""Pipelines that deliver each service in forked worker processes write what the one-CPU loop writes."""

import io
import multiprocessing
import os
import pickle
import shutil
import sys

import numpy as np
import pytest

from semcom.channel import transmit
from semcom.cli import _deliver, main
from semcom.codec import HEADER_BYTES, decode, encode, serialize_payload
from semcom.config import load_config
from semcom.extractors import extract
from semcom.image import SemanticMap, read_pgm, write_pgm
from semcom.metrics import score

from _fixtures import diagonal, forbidden_fork, gradient_with_square, logged, use_cpus


def write_images(tmp_path):
    paths = {name: tmp_path / f"{name}.pgm" for name in ("diag", "mixed")}
    write_pgm(diagonal(32), paths["diag"])
    write_pgm(gradient_with_square(32), paths["mixed"])
    return paths


# Each service's config lines, in the order pipeline_config writes them.
SERVICES = {
    "a": "extractor = sobel\nmetric = mse\nimage = {mixed}",
    "b": "extractor = quantize(k=4)\nmetric = vi(k=4)\nimage = {diag}\nsigma_gen = 0.05",
    "c": "extractor = canny\nmetric = ssim(window=4)\nimage = {diag}\nthreshold = 0.9999",
    "d": "extractor = sobel\nmetric = psnr\nimage = {diag}\nthreshold = 0.383",
    "e": "extractor = quantize(k=4)\nmetric = mse\nimage = {mixed}",
    "f": "extractor = sobel\nmetric = psnr\nimage = {mixed}\nsigma_gen = 0.1",
    "g": "extractor = sobel\nmetric = ssim(window=4)\nimage = {diag}\nsigma_gen = 0.2",
}


def pipeline_config(tmp_path, order="abcdef"):
    """The services named in ``order`` over two 32x32 images on a noisy channel; by default six:

    - a: noise-free, ok;
    - b: noisy (``sigma_gen`` 0.05), placed between noise-free services;
    - c: fails validation, since no factor reaches 0.9999 without factor 1;
    - d: passes validation at d = 2 and scores below its threshold after the channel;
    - e: noise-free, ok;
    - f: noisy, ok.

    g, noisy, is left out unless ``order`` names it. The default six deliver more bytes than the budget.
    """
    paths = write_images(tmp_path)
    services = "".join(
        f"{name}.{line}\n" for name in order for line in SERVICES[name].format(**paths).splitlines()
    )
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"""
[services]
{services}
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


def log_stages(monkeypatch, log):
    """Log each call of decode, encode, extract, transmit and score wherever a semcom module binds it."""
    modules = [module for name, module in list(sys.modules.items()) if name.split(".")[0] == "semcom"]
    for fn in (decode, encode, extract, transmit, score):
        counted = logged(log, fn, lambda *args, _name=fn.__name__, **kwargs: _name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


def logged_stages(log):
    """(pid, name) of every logged call, and the log emptied."""
    calls = [tuple(line.split(" ")) for line in log.read_text().splitlines()]
    log.unlink()
    return calls


@pytest.mark.parametrize("cpus", [2, 8])
def test_pooled_and_one_cpu_pipelines_are_the_same_run(tmp_path, monkeypatch, capsys, forks, cpus):
    cfg = pipeline_config(tmp_path)
    log = tmp_path / "stages.log"
    log_stages(monkeypatch, log)
    use_cpus(monkeypatch, cpus)
    pooled = pipeline_run(tmp_path, cfg, capsys)
    # one worker per service, at most one per CPU
    assert len(forks) == min(6, cpus)
    # the workers deliver every service: this process extracts, encodes, sends, decodes and scores nothing
    pooled_calls = logged_stages(log)
    assert {name for _, name in pooled_calls} == {"decode", "encode", "extract", "transmit", "score"}
    assert str(os.getpid()) not in {pid for pid, _ in pooled_calls}
    use_cpus(monkeypatch, 1)
    serial = pipeline_run(tmp_path, cfg, capsys)
    assert len(forks) == min(6, cpus)
    serial_calls = logged_stages(log)
    assert {pid for pid, _ in serial_calls} == {str(os.getpid())}
    assert sorted(name for _, name in pooled_calls) == sorted(name for _, name in serial_calls)
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


@pytest.mark.parametrize("cpus", [1, 8], ids=["one CPU", "pooled"])
def test_a_services_outputs_do_not_depend_on_the_other_services(tmp_path, monkeypatch, capsys, cpus):
    # reversed, with the noisy service g delivered between the others
    use_cpus(monkeypatch, cpus)
    runs = [pipeline_run(tmp_path, pipeline_config(tmp_path, order), capsys) for order in ("abcdef", "fedgcba")]
    reports, channels = [], []
    for _, _, _, files, manifest in runs:
        reports.append({row.split(",")[0]: row for row in files["pipeline_report.csv"].decode().splitlines()[1:]})
        channels.append({line.split()[1]: line for line in manifest if line.startswith("  channel: ")})
    assert sorted(reports[1]) == sorted(reports[0]) + ["g"]
    assert len(channels[0]) == 5 and "g_payload.bin" in runs[1][3]
    for service in "abcdef":
        assert reports[1][service] == reports[0][service], service
        assert runs[1][3].get(f"{service}_payload.bin") == runs[0][3].get(f"{service}_payload.bin"), service
    for service, line in channels[0].items():
        assert channels[1][service] == line, service


@pytest.mark.parametrize("broken", ["image", "payload"])
def test_an_error_at_service_two_fails_the_pipeline_as_in_process(tmp_path, monkeypatch, capsys, broken):
    # an unreadable image fails service two's validation in a worker; an unwritable
    # payload fails its write in this process, while service three may be delivering
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


@pytest.mark.parametrize("platform", ["one usable CPU", "no CPU set", "no fork", "one service"])
def test_a_pipeline_without_two_workers_starts_no_process(tmp_path, monkeypatch, capsys, platform):
    cfg = pipeline_config(tmp_path, "b" if platform == "one service" else "abcdef")
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


def test_a_delivery_crosses_a_process_boundary_as_its_row_flips_and_payload_bytes_and_no_map(tmp_path):
    config = load_config(pipeline_config(tmp_path, "d"))
    (entry,) = config.services
    delivered = _deliver(entry, config)
    data = io.BytesIO()
    MapFreePickler(data).dump(delivered)
    row, flipped_bits, payload = pickle.loads(data.getvalue())
    assert (row, flipped_bits, payload) == delivered
    assert row[:4] == ("d", "below_threshold", 2, len(payload)) and isinstance(row[4], float)
    # the payload the validation encoded at factor 2, with the flips the channel counted
    sent = serialize_payload(encode(extract(entry.spec.extractor, read_pgm(entry.image_path)), 2))
    assert len(sent) == len(payload) and sent[:HEADER_BYTES] == payload[:HEADER_BYTES]
    difference = np.bitwise_xor(np.frombuffer(sent, np.uint8), np.frombuffer(payload, np.uint8))
    assert type(flipped_bits) is int and flipped_bits == int(np.unpackbits(difference).sum()) > 0
