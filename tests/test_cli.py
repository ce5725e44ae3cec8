import os

import numpy as np
import pytest

from semcom.cli import main
from semcom.codec import parse_payload
from semcom.config import load_config, parse_extractor, parse_metric
from semcom.errors import ConfigError
from semcom.extractors import Canny, ExternalMap, QuantizeSegmentation, SobelMagnitude
from semcom.image import read_pgm, write_pgm
from semcom.metrics import MseQuality, PsnrQuality, SsimQuality, ViQuality

from _fixtures import diagonal, filled_square, gradient, gradient_with_square, vertical_step


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


def test_load_config_round_trip(tmp_path):
    paths = write_images(tmp_path)
    cfg = load_config(base_config(tmp_path, paths))
    assert [e.spec.id for e in cfg.services] == ["edges", "regions"]
    assert cfg.factors == (1, 2, 4, 8)
    assert cfg.seed == 7
    assert cfg.services[1].spec.weight == 2.0
    assert cfg.episodes == 40


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
    from semcom.generation import Surrogate
    from semcom.rng import stream

    paths = write_images(tmp_path)
    cfg_path = base_config(tmp_path, paths)
    assert main(["allocate", "--config", str(cfg_path), "--solver", "exhaustive"]) == 0
    line = (tmp_path / "out" / "allocation.csv").read_text().splitlines()[1]
    factors = tuple(int(d) for d in line.split(",")[1].split("|"))
    reward = float(line.split(",")[2])
    config = load_config(cfg_path)
    oracle = exhaustive_oracle(_build_instance(config), Surrogate(), stream(config.seed, "gen"))
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


def test_pipeline_extracts_once_per_service(tmp_path, extract_calls):
    cfg = base_config(tmp_path, write_images(tmp_path))
    cfg.write_text(cfg.read_text().replace("edges.threshold = 0.0", "edges.threshold = 0.999"))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert len(extract_calls) == len(set(extract_calls)) == 2


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
