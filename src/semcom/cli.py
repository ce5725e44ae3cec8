"""Command-line entry point.

Subcommands: extract (one map through an extractor), sweep (response
curves and the pairing report), allocate (one solver on the configured
instance), pipeline (extract, validate, transmit, decode, score per
service).  All outputs are CSV or binary artifacts in the configured
output directory; reruns with the same config are byte-identical.

Exit codes: 0 success, 1 a domain failure (a service failed validation,
scored below its threshold after the channel, or the delivered bytes
exceed the budget), 2 usage or config errors, unreadable inputs and
unwritable outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .allocator import (
    AllocationInstance,
    dqn_train,
    exhaustive_oracle,
    greedy_allocate,
    random_allocate,
)
from .channel import budget_check, transmit
from .codec import decode, encode, serialize_payload
from .config import ExperimentConfig, RunManifest, load_config, parse_extractor
from .errors import IoError, SemcomError, ValidationFailedError
from .extractors import extract, extractor_label
from .files import write_atomic
from .generation import Surrogate, validate_and_adjust
from .image import read_pgm, write_pgm
from .metrics import metric_label
from .pairing import fit_predictability, rank_reports, sweep_candidates
from .qnet import save_qnet
from .rng import stream


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header), *(",".join(_cell(v) for v in row) for row in rows)]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _start_manifest(command: str, config: ExperimentConfig) -> RunManifest:
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {config.output_dir}: {exc}") from exc
    return RunManifest(command=command, config=config, started_at=_now())


def _finish_manifest(manifest: RunManifest, config: ExperimentConfig, name: str) -> None:
    manifest.finished_at = _now()
    manifest.write(os.path.join(config.output_dir, name))


def cmd_extract(args) -> int:
    kind = parse_extractor(args.kind)
    image = read_pgm(getattr(args, "in"))
    image_id = os.path.splitext(os.path.basename(getattr(args, "in")))[0]
    write_pgm(extract(kind, image, image_id=image_id), args.out)
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    manifest = _start_manifest("sweep", config)

    # each image goes by the id of the first service naming it, as in allocate and pipeline
    first_ids = {}
    for entry in config.services:
        first_ids.setdefault(entry.image_path, entry.spec.id)
    images = [read_pgm(p) for p in first_ids]
    ids = list(first_ids.values())

    # one candidate per distinct (extractor, metric) label, in first-appearance order
    pairs = {}
    for entry in config.services:
        label = (extractor_label(entry.spec.extractor), metric_label(entry.spec.metric))
        pairs.setdefault(label, (entry.spec.extractor, entry.spec.metric))
    rng = stream(config.seed, "gen")
    curves = sweep_candidates(list(pairs.values()), images, config.factors, Surrogate(), rng, image_ids=ids)
    reports = [fit_predictability(curve) for curve in curves]

    curves_path = os.path.join(config.output_dir, "curves.csv")
    _write_csv(
        curves_path,
        ["pair", "factor", "quality"],
        [(r.pair_label, d, q) for r, c in zip(reports, curves) for d, q in zip(c.factors, c.qualities)],
    )
    manifest.record(curves_path)

    report_path = os.path.join(config.output_dir, "pairing_report.csv")
    _write_csv(
        report_path,
        ["pair", "r_squared", "slope", "spearman"],
        [(r.pair_label, r.r_squared, r.slope, r.spearman) for r in rank_reports(reports)],
    )
    manifest.record(report_path)
    _finish_manifest(manifest, config, "sweep_manifest.txt")
    return 0


def _build_instance(config: ExperimentConfig) -> AllocationInstance:
    services = tuple(entry.spec for entry in config.services)
    images = tuple(read_pgm(entry.image_path) for entry in config.services)
    return AllocationInstance(
        services=services, images=images, factors=config.factors, channel=config.channel
    )


def cmd_allocate(args) -> int:
    config = load_config(args.config)
    manifest = _start_manifest("allocate", config)
    inst = _build_instance(config)
    rng = stream(config.seed, "gen")

    if args.solver == "dqn":
        result = dqn_train([inst], config.episodes, config.dqn, Surrogate())
        trace_path = os.path.join(config.output_dir, "dqn_trace.csv")
        _write_csv(
            trace_path,
            ["episode", "epsilon", "reward", "loss", "action_index"],
            [
                (e, result.epsilons[e], result.rewards[e], result.losses[e], result.action_indices[e])
                for e in range(config.episodes)
            ],
        )
        manifest.record(trace_path)
        agent_path = os.path.join(config.output_dir, "dqn_agent.bin")
        save_qnet(result.agent.online, agent_path)
        manifest.record(agent_path)
    else:
        solvers = {"exhaustive": exhaustive_oracle, "greedy": greedy_allocate, "random": random_allocate}
        result = solvers[args.solver](inst, Surrogate(), rng)
        check = budget_check(inst.action_costs(result.action), config.channel)
        row = (args.solver, "|".join(str(d) for d in result.action), result.reward, check.total, check.feasible)
        alloc_path = os.path.join(config.output_dir, "allocation.csv")
        _write_csv(alloc_path, ["solver", "factors", "reward", "total_bytes", "feasible"], [row])
        manifest.record(alloc_path)
    _finish_manifest(manifest, config, "allocate_manifest.txt")
    return 0


def _deliver(entry, config: ExperimentConfig, manifest: RunManifest, gen_rng, chan_rng) -> tuple:
    """Validate, send and score one service; its maps are freed before the next one is extracted."""
    spec = entry.spec
    requested = entry.requested_d if entry.requested_d is not None else max(config.factors)
    validation = validate_and_adjust(
        spec, read_pgm(entry.image_path), requested, config.factors, Surrogate(), gen_rng
    )
    core = validation.core
    result = transmit(encode(core.semantic, validation.accepted_d), config.channel, chan_rng)
    payload_path = os.path.join(config.output_dir, f"{spec.id}_payload.bin")
    write_atomic(payload_path, serialize_payload(result.delivered))
    manifest.record(payload_path)

    quality = core.score_reconstruction(decode(result.delivered), gen_rng)
    status = "ok" if quality >= spec.threshold else "below_threshold"
    return (spec.id, status, validation.accepted_d, result.bytes_used, quality)


def cmd_pipeline(args) -> int:
    config = load_config(args.config)
    manifest = _start_manifest("pipeline", config)
    gen_rng = stream(config.seed, "gen")
    chan_rng = stream(config.seed, "channel")

    rows = []
    delivered_bytes = []
    any_failed = False
    for entry in config.services:
        try:
            row = _deliver(entry, config, manifest, gen_rng, chan_rng)
        except ValidationFailedError as exc:
            any_failed = True
            rows.append((entry.spec.id, "validation_failed", "", 0, exc.quality))
            continue
        rows.append(row)
        delivered_bytes.append(row[3])
        if row[1] == "below_threshold":
            any_failed = True
            print(
                f"service {entry.spec.id}: scores {row[4]:.6f} after the channel, "
                f"below threshold {entry.spec.threshold}",
                file=sys.stderr,
            )

    report_path = os.path.join(config.output_dir, "pipeline_report.csv")
    _write_csv(report_path, ["service", "status", "accepted_d", "bytes", "quality"], rows)
    manifest.record(report_path)
    check = budget_check(delivered_bytes, config.channel)
    manifest.emitted.append(f"budget: total={check.total} feasible={check.feasible}")
    _finish_manifest(manifest, config, "pipeline_manifest.txt")
    if not check.feasible:
        print(
            f"budget: delivered {check.total} bytes exceed budget_bytes = {config.channel.budget_bytes}",
            file=sys.stderr,
        )
    return 1 if any_failed or not check.feasible else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semcom", description="Semantic-communication content delivery simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="run one extractor on a PGM image")
    p_extract.add_argument("--in", required=True, help="input PGM image")
    p_extract.add_argument("--kind", required=True, help="extractor, e.g. canny or quantize(k=4)")
    p_extract.add_argument("--out", required=True, help="output PGM semantic map")
    p_extract.set_defaults(func=cmd_extract)

    p_sweep = sub.add_parser("sweep", help="response curves and pairing report")
    p_sweep.add_argument("--config", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_alloc = sub.add_parser("allocate", help="solve the joint factor allocation")
    p_alloc.add_argument("--config", required=True)
    p_alloc.add_argument("--solver", required=True, choices=["dqn", "greedy", "exhaustive", "random"])
    p_alloc.set_defaults(func=cmd_allocate)

    p_pipe = sub.add_parser("pipeline", help="end-to-end per-service delivery")
    p_pipe.add_argument("--config", required=True)
    p_pipe.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SemcomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
