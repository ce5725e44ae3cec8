import builtins
import contextlib
import hashlib
import io
import os
import platform
import re
from collections import Counter
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semcom import files
from semcom.cli import main
from semcom.codec import encode, parse_payload
from semcom.config import load_config, parse_extractor, parse_metric
from semcom.errors import ConfigError, IoError
from semcom.extractors import Canny, ExternalMap, QuantizeSegmentation, SobelMagnitude, extract
from semcom.generation import Surrogate
from semcom.image import read_pgm, write_pgm
from semcom.metrics import MseQuality, PsnrQuality, SsimQuality, ViQuality
from semcom.pairing import fit_predictability, rank_reports, sweep_candidates
from semcom.rng import stream

from _fixtures import diagonal, filled_square, gradient, gradient_with_square, logged, use_cpus, vertical_step
from _reference import reference_transmit


def write_images(tmp_path):
    paths = {}
    for name, img in [
        ("diag", diagonal(24)),
        ("square", filled_square(24, 8)),
        ("grad", gradient(24)),
        ("step", vertical_step(24)),
    ]:
        p = tmp_path / f"{name}.pgm"
        write_pgm(img, p)
        paths[name] = p
    return paths


def write_config(tmp_path, body):
    p = tmp_path / "exp.cfg"
    p.write_text(body)
    return p


def base_config(tmp_path, paths, budget=10**6, seed=7, extra=""):
    return write_config(
        tmp_path,
        f"""
# two-service experiment
[services]
edges.extractor = sobel
edges.metric = ssim
edges.image = {paths['diag']}
edges.threshold = 0.0
regions.extractor = quantize(k=4)
regions.metric = vi(k=4)
regions.image = {paths['square']}
regions.weight = 2.0

[channel]
budget_bytes = {budget}
bit_flip_prob = 0.0
seed = {seed}

[factors]
d = 1,2,4,8

[dqn]
episodes = 40
warmup = 8
batch = 8

[output]
dir = {tmp_path / 'out'}
{extra}
""",
    )


def test_parse_extractor_and_metric_specs():
    assert parse_extractor("canny") == Canny()
    assert parse_extractor("canny(low=0.05;high=0.3;sigma=2.0)") == Canny(0.05, 0.3, 2.0)
    assert parse_extractor("quantize(k=6)") == QuantizeSegmentation(6)
    assert parse_extractor("external(template=maps/{id}.pgm)") == ExternalMap("maps/{id}.pgm")
    assert parse_extractor("SOBEL") == SobelMagnitude()
    assert parse_metric("mse") == MseQuality()
    assert parse_metric("psnr(cap=40)") == PsnrQuality(40.0)
    assert parse_metric("ssim(window=8)") == SsimQuality(8)
    assert parse_metric("vi(k=4)") == ViQuality(4)
    with pytest.raises(ConfigError):
        parse_extractor("hough")
    with pytest.raises(ConfigError):
        parse_metric("fid")


@pytest.mark.parametrize("spec", ["psnr(cap=inf)", "psnr(cap=nan)", "psnr(cap=-inf)", "psnr(cap=0)"])
def test_parse_metric_rejects_a_non_finite_or_non_positive_cap(spec):
    with pytest.raises(ConfigError, match="cap must be finite and positive"):
        parse_metric(spec)


@pytest.mark.parametrize(
    "spec, parse, message",
    [
        ("ssim(w=4)", parse_metric, "metric 'ssim' has unknown argument 'w'; valid arguments: window"),
        (
            "canny(lo=0.3)",
            parse_extractor,
            "extractor 'canny' has unknown argument 'lo'; valid arguments: low, high, sigma",
        ),
        ("psnr(cp=20)", parse_metric, "metric 'psnr' has unknown argument 'cp'; valid arguments: cap"),
        (
            "quantize(k=4, levels=9)",
            parse_extractor,
            "extractor 'quantize' has unknown argument 'levels'; valid arguments: k",
        ),
        ("sobel(k=3)", parse_extractor, "extractor 'sobel' has unknown argument 'k'; valid arguments: none"),
    ],
)
def test_an_unknown_extractor_or_metric_argument_is_a_config_error(spec, parse, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse(spec)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("canny(low)", "extractor canny: expected key=value argument, got 'low'"),
        ("canny(low=0.1", "unbalanced parentheses in 'canny(low=0.1'"),
        ("external", "extractor 'external' is missing argument 'template'"),
        ("quantize", "extractor 'quantize' is missing argument 'k'"),
    ],
)
def test_a_malformed_extractor_call_is_a_config_error(spec, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_extractor(spec)


def test_sweep_with_an_infinite_psnr_cap_is_a_config_error(tmp_path, capsys):
    cfg = small_two_service_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("a.metric = mse", "a.metric = psnr(cap=inf)"))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "cap must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "out" / "curves.csv").exists()


def test_level_counts_up_to_the_wire_format_limit_parse():
    assert parse_extractor("quantize(k=255)") == QuantizeSegmentation(255)
    assert parse_metric("vi(k=255)") == ViQuality(255)
    for spec in ("quantize(k=256)", "quantize(k=1)"):
        with pytest.raises(ConfigError, match=r"level count must lie in \[2, 255\]"):
            parse_extractor(spec)
    for spec in ("vi(k=256)", "vi(k=1)"):
        with pytest.raises(ConfigError, match=r"level count must lie in \[2, 255\]"):
            parse_metric(spec)


@pytest.mark.parametrize("command", ["sweep", "pipeline"])
@pytest.mark.parametrize(
    "old, new",
    [("b.extractor = sobel", "b.extractor = quantize(k=300)"), ("b.metric = ssim", "b.metric = vi(k=10000000)")],
    ids=["quantize-k300", "vi-k10000000"],
)
def test_a_level_count_above_the_wire_format_limit_is_a_config_error(tmp_path, capsys, command, old, new):
    cfg = small_two_service_config(tmp_path)
    cfg.write_text(cfg.read_text().replace(old, new))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "level count must lie in [2, 255]" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "curves.csv").exists()
    assert not (tmp_path / "out" / "pipeline_report.csv").exists()


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"[services]\na.extractor = sobel\xff\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err
    assert "Traceback" not in err


def test_load_config_round_trip(tmp_path):
    paths = write_images(tmp_path)
    cfg = load_config(base_config(tmp_path, paths))
    assert [e.spec.id for e in cfg.services] == ["edges", "regions"]
    assert cfg.factors == (1, 2, 4, 8)
    assert cfg.seed == 7
    assert cfg.services[1].spec.weight == 2.0
    assert cfg.dqn.episodes == 40


def test_load_config_rejects_missing_image(tmp_path):
    cfg = write_config(
        tmp_path,
        """
[services]
a.extractor = sobel
a.metric = mse
a.image = /nonexistent.pgm
""",
    )
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_load_config_rejects_bad_threshold(tmp_path):
    paths = write_images(tmp_path)
    cfg = write_config(
        tmp_path,
        f"""
[services]
a.extractor = sobel
a.metric = mse
a.image = {paths['diag']}
a.threshold = 1.5
""",
    )
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_extract_command(tmp_path):
    paths = write_images(tmp_path)
    out = tmp_path / "edges.pgm"
    code = main(["extract", "--in", str(paths["step"]), "--kind", "canny", "--out", str(out)])
    assert code == 0
    result = read_pgm(out)
    assert set(np.unique(result.pixels)) <= {0.0, 1.0}
    assert result.pixels.any()


def test_extract_unknown_kind_lists_valid(tmp_path, capsys):
    paths = write_images(tmp_path)
    code = main(["extract", "--in", str(paths["step"]), "--kind", "hough", "--out", str(tmp_path / "o.pgm")])
    assert code == 2
    err = capsys.readouterr().err
    assert "canny" in err and "sobel" in err


def test_extract_missing_input(tmp_path):
    code = main(["extract", "--in", str(tmp_path / "nope.pgm"), "--kind", "canny", "--out", str(tmp_path / "o.pgm")])
    assert code == 2


def test_usage_error_exit_code():
    assert main(["allocate", "--config", "x", "--solver", "simulated-annealing"]) == 2


def test_sweep_outputs(tmp_path):
    paths = write_images(tmp_path)
    cfg = base_config(tmp_path, paths)
    assert main(["sweep", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    curves = (out / "curves.csv").read_text().splitlines()
    assert curves[0] == "pair,factor,quality"
    # two pairs x four factors
    assert len(curves) == 1 + 2 * 4
    report = (out / "pairing_report.csv").read_text().splitlines()
    assert report[0] == "pair,r_squared,slope,spearman"
    assert len(report) == 3
    # winner (first row) has the maximum r_squared of the full scan
    r2 = [float(line.split(",")[1]) for line in report[1:]]
    assert r2[0] == max(r2)
    assert (out / "sweep_manifest.txt").exists()


def test_sweep_report_is_the_ranking_of_the_swept_candidates(tmp_path):
    paths = write_images(tmp_path)
    # a repeated pair on a third image, and a new pair on an image already named
    extra = f"""
[services]
again.extractor = sobel
again.metric = ssim
again.image = {paths['grad']}
edges2.extractor = canny
edges2.metric = mse
edges2.image = {paths['diag']}
"""
    cfg = base_config(tmp_path, paths, extra=extra)
    assert main(["sweep", "--config", str(cfg)]) == 0
    config = load_config(cfg)
    images = [read_pgm(paths[name]) for name in ("diag", "square", "grad")]
    pairs = [(SobelMagnitude(), SsimQuality()), (QuantizeSegmentation(4), ViQuality(4)), (Canny(), MseQuality())]
    curves = sweep_candidates(pairs, images, config.factors, Surrogate(), image_ids=["edges", "regions", "again"])
    reports = [fit_predictability(c) for c in curves]
    expected = [f"{r.pair_label},{r.r_squared!r},{r.slope!r},{r.spearman!r}" for r in rank_reports(reports)]
    assert (tmp_path / "out" / "pairing_report.csv").read_text().splitlines()[1:] == expected


def test_sweep_curves_are_noise_free_whatever_a_services_sigma_gen(tmp_path):
    paths = write_images(tmp_path)
    cfg = base_config(tmp_path, paths)
    plain = cfg.read_text()
    outputs = []
    for body in (plain, plain.replace("edges.threshold = 0.0", "edges.threshold = 0.0\nedges.sigma_gen = 0.3")):
        cfg.write_text(body)
        assert main(["sweep", "--config", str(cfg)]) == 0
        outputs.append([(tmp_path / "out" / name).read_bytes() for name in ("curves.csv", "pairing_report.csv")])
    assert load_config(cfg).services[0].spec.sigma_gen == 0.3
    assert outputs[0] == outputs[1]


def test_sweep_rerun_byte_identical(tmp_path):
    paths = write_images(tmp_path)
    cfg = base_config(tmp_path, paths)
    assert main(["sweep", "--config", str(cfg)]) == 0
    first = (tmp_path / "out" / "curves.csv").read_bytes()
    first_report = (tmp_path / "out" / "pairing_report.csv").read_bytes()
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "curves.csv").read_bytes() == first
    assert (tmp_path / "out" / "pairing_report.csv").read_bytes() == first_report


@pytest.mark.parametrize("solver", ["exhaustive", "greedy", "random"])
def test_allocate_single_row_solvers(tmp_path, solver):
    paths = write_images(tmp_path)
    cfg = base_config(tmp_path, paths)
    assert main(["allocate", "--config", str(cfg), "--solver", solver]) == 0
    lines = (tmp_path / "out" / "allocation.csv").read_text().splitlines()
    assert lines[0] == "solver,factors,reward,total_bytes,feasible"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == solver
    assert all(int(d) in (1, 2, 4, 8) for d in fields[1].split("|"))


def test_allocate_exhaustive_toy_matches_oracle(tmp_path):
    from semcom.allocator import exhaustive_oracle
    from semcom.cli import _build_instance
    from semcom.rng import stream

    paths = write_images(tmp_path)
    cfg_path = base_config(tmp_path, paths)
    assert main(["allocate", "--config", str(cfg_path), "--solver", "exhaustive"]) == 0
    line = (tmp_path / "out" / "allocation.csv").read_text().splitlines()[1]
    factors = tuple(int(d) for d in line.split(",")[1].split("|"))
    reward = float(line.split(",")[2])
    config = load_config(cfg_path)
    oracle = exhaustive_oracle(_build_instance(config), stream(config.seed, "gen"))
    assert factors == oracle.action
    assert reward == oracle.reward


def test_allocate_dqn_trace(tmp_path):
    paths = write_images(tmp_path)
    cfg = base_config(tmp_path, paths)
    assert main(["allocate", "--config", str(cfg), "--solver", "dqn"]) == 0
    out = tmp_path / "out"
    lines = (out / "dqn_trace.csv").read_text().splitlines()
    assert lines[0] == "episode,epsilon,reward,loss,action_index"
    assert len(lines) == 1 + 40
    # every cell parses as a plain number
    for line in lines[1:]:
        episode, epsilon, reward, loss, action = line.split(",")
        int(episode), float(epsilon), float(reward), float(loss), int(action)
    assert lines[1].startswith("0,1.0,")
    assert (out / "dqn_agent.bin").read_bytes()[:4] == b"DQN1"


def test_allocate_guard_exceeded_mentions_limit(tmp_path, capsys):
    paths = write_images(tmp_path)
    body = "\n[services]\n"
    for i in range(7):
        body += f"s{i}.extractor = sobel\ns{i}.metric = mse\ns{i}.image = {paths['diag']}\n"
    body += f"\n[factors]\nd = 1,2,4,8,10\n\n[output]\ndir = {tmp_path / 'out'}\n"
    cfg = write_config(tmp_path, body)
    assert main(["allocate", "--config", str(cfg), "--solver", "exhaustive"]) == 2
    assert "4096" in capsys.readouterr().err


def test_pipeline_report_and_payloads(tmp_path):
    paths = write_images(tmp_path)
    cfg = base_config(tmp_path, paths)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    lines = (out / "pipeline_report.csv").read_text().splitlines()
    assert lines[0] == "service,status,accepted_d,bytes,quality"
    assert len(lines) == 3
    for line in lines[1:]:
        service, status, accepted, nbytes, quality = line.split(",")
        assert status == "ok"
        payload = parse_payload((out / f"{service}_payload.bin").read_bytes())
        assert payload.factor == int(accepted)
        assert 0.0 <= float(quality) <= 1.0


def test_pipeline_d1_budget_arithmetic(tmp_path):
    paths = write_images(tmp_path)
    cfg = base_config(tmp_path, paths)
    body = cfg.read_text()
    body = body.replace("edges.threshold = 0.0", "edges.threshold = 0.0\nedges.d = 1")
    body = body.replace("regions.weight = 2.0", "regions.weight = 2.0\nregions.d = 1")
    cfg.write_text(body)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    lines = (tmp_path / "out" / "pipeline_report.csv").read_text().splitlines()[1:]
    total = sum(int(line.split(",")[3]) for line in lines)
    # both 24x24 services at d=1: bytes = sum(W*H) + 16 per service
    assert total == 2 * (24 * 24 + 16)
    for line in lines:
        assert float(line.split(",")[4]) == 1.0


def test_pipeline_partial_failure(tmp_path):
    paths = write_images(tmp_path)
    cfg = base_config(tmp_path, paths)
    body = cfg.read_text().replace(
        "edges.threshold = 0.0", "edges.threshold = 1.0\nedges.sigma_gen = 0.4"
    )
    cfg.write_text(body)
    assert main(["pipeline", "--config", str(cfg)]) == 1
    lines = (tmp_path / "out" / "pipeline_report.csv").read_text().splitlines()[1:]
    by_service = {line.split(",")[0]: line for line in lines}
    assert by_service["edges"].split(",")[1] == "validation_failed"
    assert by_service["regions"].split(",")[1] == "ok"


def test_pipeline_rerun_byte_identical(tmp_path):
    paths = write_images(tmp_path)
    cfg = base_config(tmp_path, paths, extra="")
    body = cfg.read_text().replace("bit_flip_prob = 0.0", "bit_flip_prob = 0.01")
    cfg.write_text(body)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    snapshot = {
        p: (out / p).read_bytes()
        for p in os.listdir(out)
        if p.endswith(".csv") or p.endswith(".bin")
    }
    assert main(["pipeline", "--config", str(cfg)]) == 0
    for name, data in snapshot.items():
        assert (out / name).read_bytes() == data, name


def small_two_service_config(tmp_path, extractor="sobel", budget=10**6):
    """64x64 two-service config, each service on its own image."""
    for name, img in [("a", diagonal(64)), ("b", filled_square(64, 20))]:
        write_pgm(img, tmp_path / f"{name}.pgm")
    return write_config(
        tmp_path,
        f"""
[services]
a.extractor = {extractor}
a.metric = mse
a.image = {tmp_path / 'a.pgm'}
b.extractor = {extractor}
b.metric = ssim
b.image = {tmp_path / 'b.pgm'}

[channel]
budget_bytes = {budget}
seed = 3

[factors]
d = 1,2,4,8

[output]
dir = {tmp_path / 'out'}
""",
    )


def test_sweep_finds_external_maps_by_service_name(tmp_path):
    (tmp_path / "maps").mkdir()
    write_pgm(gradient(64), tmp_path / "maps" / "a.pgm")
    write_pgm(vertical_step(64), tmp_path / "maps" / "b.pgm")
    cfg = small_two_service_config(tmp_path, extractor=f"external(template={tmp_path / 'maps'}/{{id}}.pgm)")
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert main(["sweep", "--config", str(cfg)]) == 0
    curves = (tmp_path / "out" / "curves.csv").read_text().splitlines()[1:]
    assert len(curves) == 2 * 4
    assert all(float(line.split(",")[2]) == 1.0 for line in curves if line.split(",")[1] == "1")


def test_pipeline_over_budget_is_a_domain_failure(tmp_path, capsys):
    cfg = small_two_service_config(tmp_path, budget=100)
    assert main(["pipeline", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "budget" in err and "100" in err
    out = tmp_path / "out"
    rows = (out / "pipeline_report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["ok", "ok"]
    total = sum(int(row.split(",")[3]) for row in rows)
    assert total > 100
    assert f"budget: total={total} feasible=False" in (out / "pipeline_manifest.txt").read_text()


def logged_calls(path, cpus):
    """The logged calls as ``pid, *fields``, after checking that every call ran where ``cpus`` puts it."""
    calls = [tuple(line.split(" ")) for line in path.read_text().splitlines()]
    # one CPU validates in this process, a pool only in its workers
    assert {pid == str(os.getpid()) for pid, *_ in calls} == {cpus == 1}
    return calls


POOLING = pytest.mark.parametrize("cpus", [1, 2], ids=["one CPU", "pooled"])


@POOLING
def test_pipeline_extracts_once_per_service(tmp_path, monkeypatch, cpus):
    import semcom.cli
    import semcom.generation

    use_cpus(monkeypatch, cpus)
    log = tmp_path / "extract.log"

    def described(kind, image, image_id=None):
        return f"{type(kind).__name__} {image_id}"

    counted = logged(log, semcom.generation.extract, described)
    for module in (semcom.generation, semcom.cli):
        monkeypatch.setattr(module, "extract", counted)
    cfg = base_config(tmp_path, write_images(tmp_path))
    cfg.write_text(cfg.read_text().replace("edges.threshold = 0.0", "edges.threshold = 0.999"))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    calls = [(kind, image_id) for _, kind, image_id in logged_calls(log, cpus)]
    assert len(calls) == len(set(calls)) == 2


@POOLING
def test_pipeline_encodes_each_service_once_per_factor_it_tries(tmp_path, monkeypatch, cpus):
    # The payload sent is the one the validation scan encoded for the accepted factor.
    import sys

    import semcom.codec

    use_cpus(monkeypatch, cpus)
    log = tmp_path / "encode.log"
    maps = []  # kept alive in each process, so that no two counted maps of one process share an id
    original = semcom.codec.encode

    def described(smap, d):
        maps.append(smap)
        return f"{id(smap)} {d}"

    counted = logged(log, original, described)
    for name, module in list(sys.modules.items()):
        if name.startswith("semcom") and getattr(module, "encode", None) is original:
            monkeypatch.setattr(module, "encode", counted)
    cfg = base_config(tmp_path, write_images(tmp_path))
    cfg.write_text(cfg.read_text().replace("edges.threshold = 0.0", "edges.threshold = 0.999"))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "pipeline_report.csv").read_text().splitlines()[1:]
    accepted = {row.split(",")[0]: int(row.split(",")[2]) for row in rows}
    assert accepted["edges"] < 8 and accepted["regions"] == 8  # edges stepped down, so it tried several factors
    # a map is its (pid, id): two workers may each hold a map at one address
    calls = Counter(((pid, smap), d) for pid, smap, d in logged_calls(log, cpus))
    assert set(calls.values()) == {1}
    assert len({smap for smap, _ in calls}) == 2
    # each service's factor-1 reference, and each factor its scan tried, from 8 down
    tried = {"edges": {1} | {d for d in (1, 2, 4, 8) if d >= accepted["edges"]}, "regions": {1, 8}}
    assert sorted(int(d) for _, d in calls) == sorted([*tried["edges"], *tried["regions"]])


def test_pipeline_shortfall_after_the_channel_is_a_domain_failure(tmp_path, capsys):
    write_pgm(gradient_with_square(64), tmp_path / "a.pgm")
    cfg = write_config(
        tmp_path,
        f"""
[services]
a.extractor = sobel
a.metric = psnr
a.image = {tmp_path / 'a.pgm'}
a.threshold = 0.9

[channel]
budget_bytes = 1000000
bit_flip_prob = 0.05
seed = 11

[factors]
d = 1,2,4

[output]
dir = {tmp_path / 'out'}
""",
    )
    assert main(["pipeline", "--config", str(cfg)]) == 1
    assert "below threshold 0.9" in capsys.readouterr().err
    out = tmp_path / "out"
    (row,) = (out / "pipeline_report.csv").read_text().splitlines()[1:]
    service, status, accepted, nbytes, quality = row.split(",")
    # validated noise-free at d = 1, then damaged by the channel
    assert (service, status, accepted, nbytes) == ("a", "below_threshold", "1", str(64 * 64 + 16))
    assert float(quality) < 0.9
    assert parse_payload((out / "a_payload.bin").read_bytes()).factor == 1
    assert f"budget: total={64 * 64 + 16} feasible=True" in (out / "pipeline_manifest.txt").read_text()


_COMMANDS = {
    "sweep": ["sweep"],
    "allocate-greedy": ["allocate", "--solver", "greedy"],
    "allocate-dqn": ["allocate", "--solver", "dqn"],
    "pipeline": ["pipeline"],
}


def run_command(name, cfg):
    command, *rest = _COMMANDS[name]
    return main([command, "--config", str(cfg), *rest])


@pytest.mark.parametrize("name", ["sweep", "allocate-greedy", "pipeline"])
def test_an_output_dir_below_a_regular_file_exits_2(tmp_path, capsys, name):
    cfg = base_config(tmp_path, write_images(tmp_path))
    (tmp_path / "blocker").write_text("")
    cfg.write_text(cfg.read_text().replace(f"dir = {tmp_path / 'out'}", f"dir = {tmp_path / 'blocker' / 'out'}"))
    assert run_command(name, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {tmp_path / 'blocker' / 'out'}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name, blocked",
    [
        ("sweep", "curves.csv"),
        ("sweep", "sweep_manifest.txt.tmp"),
        ("allocate-greedy", "allocation.csv"),
        ("allocate-dqn", "dqn_agent.bin"),
        ("pipeline", "edges_payload.bin"),
        ("pipeline", "pipeline_report.csv"),
    ],
)
def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys, name, blocked):
    cfg = base_config(tmp_path, write_images(tmp_path))
    # a directory where the command writes a file
    (tmp_path / "out" / blocked).mkdir(parents=True)
    assert run_command(name, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / 'out'}{os.sep}")
    assert "Traceback" not in err


_ALL_COMMANDS = [
    ["sweep"],
    *(["allocate", "--solver", solver] for solver in ("dqn", "exhaustive", "greedy", "random")),
    ["pipeline"],
]


@pytest.mark.parametrize("argv", _ALL_COMMANDS, ids=lambda argv: "-".join(argv[::2]))
def test_a_run_leaves_no_temporary_files(tmp_path, argv):
    cfg = base_config(tmp_path, write_images(tmp_path))
    command, *rest = argv
    assert main([command, "--config", str(cfg), *rest]) == 0
    names = os.listdir(tmp_path / "out")
    assert f"{command}_manifest.txt" in names
    assert not [n for n in names if n.endswith(".tmp")]
    assert "status: ok\n" in (tmp_path / "out" / f"{command}_manifest.txt").read_text()


def test_a_failed_rename_keeps_the_previous_outputs(tmp_path, capsys, monkeypatch):
    cfg = base_config(tmp_path, write_images(tmp_path))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(files.os, "replace", fail)
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}{os.sep}") and "rename refused" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def manifest_fields(path):
    """The manifest's ``key: value`` lines as a dict, and its emitted entries as a list."""
    head, _, emitted = path.read_text().partition("emitted:\n")
    fields = dict(line.split(": ", 1) for line in head.splitlines())
    return fields, [line.strip() for line in emitted.splitlines()]


# the diverging updates overflow, and numpy warns before the check after training raises
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverged_dqn_run_leaves_a_manifest_with_its_error(tmp_path, capsys):
    cfg = base_config(tmp_path, write_images(tmp_path))
    cfg.write_text(cfg.read_text().replace("episodes = 40\n", "episodes = 200\nlr = 1000\n"))
    assert main(["allocate", "--config", str(cfg), "--solver", "dqn"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == ["allocate_manifest.txt"]
    fields, emitted = manifest_fields(out / "allocate_manifest.txt")
    assert fields["command"] == "allocate" and fields["finished"]
    assert fields["status"] == "error"
    assert f"error: {fields['error']}\n" == err
    assert emitted == []


def test_a_pipeline_that_cannot_write_a_payload_leaves_a_manifest_of_what_it_wrote(tmp_path, capsys):
    cfg = base_config(tmp_path, write_images(tmp_path))
    out = tmp_path / "out"
    (out / "regions_payload.bin").mkdir(parents=True)
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'regions_payload.bin'}: ")
    fields, emitted = manifest_fields(out / "pipeline_manifest.txt")
    assert fields["status"] == "error"
    assert f"error: {fields['error']}\n" == err
    assert emitted == [str(out / "edges_payload.bin")]
    assert not [n for n in os.listdir(out) if n.endswith(".tmp")]


def test_a_manifest_that_cannot_be_written_after_an_error_keeps_the_first_error(tmp_path, capsys):
    cfg = base_config(tmp_path, write_images(tmp_path))
    out = tmp_path / "out"
    (out / "edges_payload.bin").mkdir(parents=True)
    (out / "pipeline_manifest.txt").mkdir()
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'edges_payload.bin'}: ")
    assert err.count("\n") == 1 and "pipeline_manifest" not in err
    assert sorted(os.listdir(out)) == ["edges_payload.bin", "pipeline_manifest.txt"]


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def manifest_head(command, cfg):
    """The lines every manifest of ``command`` on ``cfg`` starts with; the two times read "-"."""
    version = re.search(r'^version = "(.+)"$', PYPROJECT.read_text(), re.M).group(1)
    return [
        f"command: {command}",
        f"config: {cfg}",
        f"config_sha256: {hashlib.sha256(cfg.read_bytes()).hexdigest()}",
        "seed: 7",
        f"versions: semcom={version} numpy={np.__version__} python={platform.python_version()}",
        "started: -",
        "finished: -",
    ]


def manifest_lines(path):
    """The manifest's lines, with its start and finish times checked and replaced by "-"."""
    lines = path.read_text().splitlines()
    times = [datetime.fromisoformat(line.split(": ", 1)[1]) for line in lines[5:7]]
    assert [line.split(": ")[0] for line in lines[5:7]] == ["started", "finished"]
    assert times[0].tzinfo is not None and times[0] <= times[1]
    return [*lines[:5], "started: -", "finished: -", *lines[7:]]


def test_a_pipeline_manifest_holds_exactly_its_lines_in_order(tmp_path):
    cfg = base_config(tmp_path, write_images(tmp_path))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert manifest_lines(out / "pipeline_manifest.txt") == [
        *manifest_head("pipeline", cfg),
        "status: ok",
        "emitted:",
        f"  {out / 'edges_payload.bin'}",
        f"  {out / 'regions_payload.bin'}",
        f"  {out / 'pipeline_report.csv'}",
        "  channel: service=edges bytes=25 flipped_bits=0",
        "  channel: service=regions bytes=25 flipped_bits=0",
        "  budget: total=50 feasible=True",
    ]


# the diverging updates overflow, and numpy warns before the check after training raises
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failed_dqn_manifest_holds_exactly_its_lines_in_order(tmp_path):
    cfg = base_config(tmp_path, write_images(tmp_path))
    cfg.write_text(cfg.read_text().replace("episodes = 40\n", "episodes = 200\nlr = 1000\n"))
    assert main(["allocate", "--config", str(cfg), "--solver", "dqn"]) == 2
    assert manifest_lines(tmp_path / "out" / "allocate_manifest.txt") == [
        *manifest_head("allocate", cfg),
        "status: error",
        "error: training diverged to non-finite Q-network weights at learning rate 1000.0",
        "emitted:",
    ]


@pytest.mark.parametrize("p", [0.0, 0.2])
def test_the_pipeline_manifest_records_each_services_flipped_bits(tmp_path, p):
    paths = write_images(tmp_path)
    cfg = base_config(tmp_path, paths)
    cfg.write_text(cfg.read_text().replace("bit_flip_prob = 0.0", f"bit_flip_prob = {p}"))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    rows = [line.split(",") for line in (out / "pipeline_report.csv").read_text().splitlines()[1:]]
    _, emitted = manifest_fields(out / "pipeline_manifest.txt")
    config = load_config(cfg)
    expected = []
    for entry, (service, status, d, nbytes, _) in zip(config.services, rows):
        assert (service, status) == (entry.spec.id, "ok")
        payload = encode(extract(entry.spec.extractor, read_pgm(entry.image_path)), int(d))
        # each service's flips come from its own channel stream
        delivered, flipped = reference_transmit(payload, p, stream(config.seed, f"channel/{service}"))
        assert parse_payload((out / f"{service}_payload.bin").read_bytes()).payload == delivered
        expected.append(f"channel: service={service} bytes={nbytes} flipped_bits={flipped}")
    assert emitted[-3:-1] == expected
    assert emitted[-1].startswith("budget: ")
    flips = [int(line.rsplit("=", 1)[1]) for line in expected]
    assert sum(flips) > 0 if p else flips == [0, 0]


@pytest.mark.parametrize(
    "section, line, valid",
    [
        ("services", "edges.treshold = 0.9999", "extractor, metric, image, threshold, weight, sigma_gen, d"),
        ("channel", "bugdet_bytes = 10", "budget_bytes, bit_flip_prob, seed"),
        ("factors", "ds = 1,2", "d"),
        ("dqn", "episode = 3", "episodes, lr, epsilon_min, batch, hidden, warmup"),
        ("output", "directory = elsewhere", "dir"),
    ],
    ids=["services", "channel", "factors", "dqn", "output"],
)
def test_an_unknown_config_key_is_a_config_error(tmp_path, capsys, section, line, valid):
    cfg = base_config(tmp_path, write_images(tmp_path))
    text = cfg.read_text()
    assert f"[{section}]\n" in text
    cfg.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    with pytest.raises(ConfigError, match=re.escape(f"unknown key {line.split(' = ')[0]!r} in [{section}]")):
        load_config(cfg)
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(f"valid keys: {valid}")
    assert not (tmp_path / "out").exists()


_NAME_RULE = "must be one or more of A-Z, a-z, 0-9, '_' and '-'"


@pytest.mark.parametrize("name", ["{tmp}/esc", "/", "a,b", "a b", ""], ids=["absolute", "slash", "comma", "space", "empty"])
def test_a_service_name_outside_the_name_rule_is_a_config_error(tmp_path, capsys, name):
    # A path as a name used to write its payload outside the output directory, and a comma
    # gave its pipeline_report.csv row a sixth field.
    cfg = base_config(tmp_path, write_images(tmp_path))
    key = f"{name.format(tmp=tmp_path)}.extractor"
    cfg.write_text(cfg.read_text().replace("edges.extractor", key))
    name = key.split(".", 1)[0]
    with pytest.raises(ConfigError, match=re.escape(f"service name {name!r} {_NAME_RULE}")):
        load_config(cfg)
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert f"service name {name!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not Path(f"{name}_payload.bin").exists()


def test_a_service_name_of_letters_digits_underscores_and_hyphens_loads(tmp_path):
    cfg = base_config(tmp_path, write_images(tmp_path))
    cfg.write_text(cfg.read_text().replace("edges.", "Edge_map-2."))
    assert [entry.spec.id for entry in load_config(cfg).services] == ["Edge_map-2", "regions"]


@pytest.mark.parametrize(
    "section, line, message",
    [
        ("channel", "seed = 3", "duplicate key 'seed'"),
        ("services", "edges.metric = mse", "duplicate field 'edges.metric'"),
    ],
    ids=["channel-key", "service-field"],
)
def test_a_repeated_config_key_is_a_config_error(tmp_path, section, line, message):
    cfg = base_config(tmp_path, write_images(tmp_path))
    text = cfg.read_text().replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    cfg.write_text(text)
    key = line.split(" = ")[0]
    lineno = max(i for i, row in enumerate(text.splitlines(), start=1) if row.startswith(f"{key} = "))
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}:{lineno}: {message}")):
        load_config(cfg)


@pytest.mark.parametrize("name", _COMMANDS)
@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("services", "edges.extractor", "canny(sigma=nan)", "sigma must lie in (0, 100.0], got nan"),
        ("services", "edges.extractor", "canny(sigma=1e308)", "sigma must lie in (0, 100.0], got 1e+308"),
        ("services", "edges.metric", "ssim(w=4)", "unknown argument 'w'; valid arguments: window"),
        ("services", "regions.weight", "nan", "weight must be finite and positive, got nan"),
        ("services", "regions.weight", "inf", "weight must be finite and positive, got inf"),
        ("services", "edges.sigma_gen", "nan", "generation noise must be finite and >= 0, got nan"),
        ("dqn", "hidden", "0", "hidden layer sizes must be >= 1, got (0,)"),
        ("dqn", "hidden", "8,0", "hidden layer sizes must be >= 1, got (8, 0)"),
        ("dqn", "hidden", "-4", "hidden layer sizes must be >= 1, got (-4,)"),
        ("dqn", "batch", "-1", "batch must be >= 1, got -1"),
        ("dqn", "warmup", "-1", "warmup must be >= 0, got -1"),
        ("dqn", "hidden", "4097", "hidden layer sizes and batch must be <= 4096, got (4097,) and 8"),
        ("dqn", "batch", "4097", "hidden layer sizes and batch must be <= 4096, got (64, 64) and 4097"),
        ("dqn", "episodes", "99999999999999999999", "episodes must lie in [1, 1000000], got 99999999999999999999"),
        ("dqn", "epsilon_min", "-1", "epsilon_min must lie in (0, 1], got -1.0"),
        ("dqn", "epsilon_min", "0", "epsilon_min must lie in (0, 1], got 0.0"),
        ("dqn", "epsilon_min", "2", "epsilon_min must lie in (0, 1], got 2.0"),
        ("dqn", "lr", "nan", "learning rate must be finite and positive, got nan"),
        ("factors", "d", "1,2,300", "factors must be integers in [1, 255], got '1,2,300'"),
        ("channel", "seed", "-1", "seed must be >= 0, got -1"),
    ],
)
def test_a_hostile_config_value_exits_2_before_any_work(tmp_path, capsys, name, section, key, value, message):
    cfg = base_config(tmp_path, write_images(tmp_path))
    text, line = cfg.read_text(), f"{key} = {value}"
    if re.search(rf"^{re.escape(key)} = ", text, re.M):
        text = re.sub(rf"^{re.escape(key)} = .*$", lambda _: line, text, flags=re.M)
    else:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    cfg.write_text(text)
    assert run_command(name, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# the diverging updates overflow, and numpy warns before the check after training raises
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "lr, message",
    [
        ("1e3", "non-finite"),
        # finite weights whose greedy Q-values reach about 4e33, with rewards in [-1, 1]
        ("5", "Q-values of magnitude"),
    ],
)
def test_allocate_dqn_that_diverges_exits_2_and_writes_no_agent(tmp_path, capsys, lr, message):
    cfg = base_config(tmp_path, write_images(tmp_path))
    cfg.write_text(cfg.read_text().replace("episodes = 40\n", f"episodes = 200\nlr = {lr}\n"))
    assert main(["allocate", "--config", str(cfg), "--solver", "dqn"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out" / "dqn_trace.csv").exists()
    assert not (tmp_path / "out" / "dqn_agent.bin").exists()


@pytest.mark.parametrize("solver", ["exhaustive", "greedy", "random", "dqn"])
def test_allocate_with_weights_that_sum_to_infinity_exits_2(tmp_path, capsys, solver):
    cfg = base_config(tmp_path, write_images(tmp_path))
    text = cfg.read_text().replace("regions.weight = 2.0", "regions.weight = 1e308\nedges.weight = 1e308")
    cfg.write_text(text)
    assert main(["allocate", "--config", str(cfg), "--solver", solver]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sum of the service weights must be finite" in err
    assert not [p for p in (tmp_path / "out").iterdir() if p.suffix in (".csv", ".bin")]


def test_fewer_episodes_than_the_default_warmup_exit_2_before_any_work(tmp_path, capsys):
    """Training would never start, and the run would write an untrained agent."""
    cfg = base_config(tmp_path, write_images(tmp_path))
    cfg.write_text(cfg.read_text().replace("episodes = 40\nwarmup = 8\n", "episodes = 5\n"))
    assert main(["allocate", "--config", str(cfg), "--solver", "dqn"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: bad [dqn] settings: warmup 64 exceeds the 5 episodes\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["gamma", "sync", "buffer"])
def test_the_former_dqn_keys_gamma_sync_and_buffer_are_rejected(tmp_path, capsys, key):
    """A one-step agent has nothing to discount or sync and replays every episode, so no key sets anything."""
    cfg = base_config(tmp_path, write_images(tmp_path))
    cfg.write_text(cfg.read_text().replace("[dqn]\n", f"[dqn]\n{key} = 1\n"))
    with pytest.raises(ConfigError, match=re.escape(f"unknown key {key!r} in [dqn]")):
        load_config(cfg)
    assert main(["allocate", "--config", str(cfg), "--solver", "dqn"]) == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith("valid keys: episodes, lr, epsilon_min, batch, hidden, warmup")
    assert not (tmp_path / "out").exists()


def test_load_config_reads_its_file_once_and_hashes_those_bytes(tmp_path, monkeypatch):
    cfg = base_config(tmp_path, write_images(tmp_path))
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    config = load_config(cfg)
    monkeypatch.undo()
    assert opened == [str(cfg)]
    assert config.config_hash() == hashlib.sha256(cfg.read_bytes()).hexdigest()


def test_a_missing_config_is_an_io_error_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(IoError, match=re.escape(f"cannot read {missing}: ")):
        load_config(missing)
    assert main(["sweep", "--config", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


def test_config_lines_split_as_in_text_mode(tmp_path):
    """\\r\\n and \\r end a line; \\x0b, \\x85 and \\u2028 stay inside the value."""
    write_pgm(diagonal(16), tmp_path / "a.pgm")
    cfg = tmp_path / "exp.cfg"
    body = (
        f"[services]\r\na.extractor = sobel\r\na.metric = mse\ra.image = {tmp_path / 'a.pgm'}\n"
        "[channel]\rseed = 5\r\n[output]\ndir = out\x0bx\x85y\u2028z\n"
    )
    cfg.write_bytes(body.encode("utf-8"))
    config = load_config(cfg)
    assert config.seed == 5
    assert config.output_dir == "out\x0bx\x85y\u2028z"
    with open(cfg, encoding="utf-8") as fh:
        assert len(fh.readlines()) == 8
    cfg.write_bytes(body.replace("seed = 5", "seed 5").encode("utf-8"))
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}:6: expected key = value")):
        load_config(cfg)


FUZZ_CONFIG = """[services]
a.extractor = quantize(k=4)
a.metric = vi(k=4)
a.image = {image}
a.threshold = 0.5
a.weight = 2.0
a.sigma_gen = 0.05
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
episodes = 8
lr = 0.01
epsilon_min = 0.1
batch = 4
hidden = 8,8
warmup = 4

[output]
dir = {out}
"""
HOSTILE_VALUES = ["", "nan", "inf", "-inf", "-1", "0", "2.5", "1e308", "abc", "(", "k="]
# keys that size an allocation: drawn only from values of at most 64, to keep each example fast
SIZE_KEYS = {"hidden", "batch", "episodes"}


@st.composite
def mutated(draw, value: str):
    """``value`` with one character inserted, deleted or replaced."""
    i = draw(st.integers(0, len(value)))
    char = draw(st.sampled_from("0123456789.,;-e(=)"))
    op = draw(st.sampled_from(("insert", "delete", "replace")))
    if op == "insert":
        return value[:i] + char + value[i:]
    return value[:i] + ("" if op == "delete" else char) + value[i + 1 :]


@st.composite
def hostile_config(draw, body: str) -> str:
    """``body`` with the value of one key, other than the output dir, replaced by a hostile one."""
    lines = body.splitlines()
    index = draw(st.sampled_from([i for i, line in enumerate(lines) if " = " in line and not line.startswith("dir")]))
    key, value = lines[index].split(" = ", 1)
    new = draw(st.one_of(st.sampled_from(HOSTILE_VALUES), mutated(value)))
    if key in SIZE_KEYS:
        assume(all(int(n) <= 64 for n in re.findall(r"\d+", new)))
    lines[index] = f"{key} = {new}"
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    write_pgm(gradient_with_square(8), d / "image.pgm")
    return d


# the CLI does not run with -W error, so numpy's warnings on a hostile value only print
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40)
@given(data=st.data())
def test_every_command_on_a_hostile_config_value_exits_0_1_or_2_without_a_traceback(fuzz_dir, data):
    """A hostile value is a result, a domain failure or an error line, never a traceback."""
    body = data.draw(hostile_config(FUZZ_CONFIG.format(image=fuzz_dir / "image.pgm", out=fuzz_dir / "out")))
    cfg = fuzz_dir / "fuzz.cfg"
    cfg.write_text(body)
    for name in _COMMANDS:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = run_command(name, cfg)
        err = stderr.getvalue()
        assert code in (0, 1, 2), (name, code)
        assert "Traceback" not in err, name
        if code == 2:
            assert err.startswith("error: "), (name, err)


def test_every_command_on_the_unmutated_fuzz_config_exits_0(fuzz_dir):
    """The fuzz mutates one value of a config that loads, so each exit 2 it sees comes from that value."""
    cfg = fuzz_dir / "unmutated.cfg"
    cfg.write_text(FUZZ_CONFIG.format(image=fuzz_dir / "image.pgm", out=fuzz_dir / "unmutated-out"))
    for name in _COMMANDS:
        assert run_command(name, cfg) == 0, name
