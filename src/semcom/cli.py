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
import contextlib
import os
import platform
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .allocator import (
    AllocationInstance,
    dqn_train,
    exhaustive_oracle,
    greedy_allocate,
    random_allocate,
)
from .channel import budget_check, transmit
from .codec import decode, encode, serialize_payload
from .config import ExperimentConfig, load_config, parse_extractor
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


def _csv(header: str, rows) -> bytes:
    lines = [header, *(",".join(_cell(v) for v in row) for row in rows)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _emit(emitted: list[str], config: ExperimentConfig, name: str, data: bytes) -> None:
    """Write ``name`` into the output directory atomically and list its path as emitted."""
    path = os.path.join(config.output_dir, name)
    write_atomic(path, data)
    emitted.append(path)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@contextlib.contextmanager
def _run_manifest(command: str, config: ExperimentConfig):
    """Yield the run's list of emitted entries and write ``<command>_manifest.txt`` when the run ends.

    A SemcomError raised in the run still leaves a manifest, with the files
    emitted so far, ``status: error`` and the message. The error then
    propagates; if that manifest cannot be written either, the run's own
    error is the one reported.
    """
    try:
        os.makedirs(config.output_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {config.output_dir}: {exc}") from exc
    head = [
        f"command: {command}",
        f"config: {config.source_path}",
        f"config_sha256: {config.config_hash()}",
        f"seed: {config.seed}",
        f"versions: semcom={__version__} numpy={np.__version__} python={platform.python_version()}",
        f"started: {_now()}",
    ]
    emitted: list[str] = []

    def write(*status: str) -> None:
        lines = [*head, f"finished: {_now()}", *status, "emitted:", *(f"  {p}" for p in emitted)]
        write_atomic(
            os.path.join(config.output_dir, f"{command}_manifest.txt"), ("\n".join(lines) + "\n").encode("utf-8")
        )

    try:
        yield emitted
    except SemcomError as exc:
        with contextlib.suppress(SemcomError):
            write("status: error", f"error: {exc}")
        raise
    write("status: ok")


def cmd_extract(args) -> int:
    kind = parse_extractor(args.kind)
    image = read_pgm(getattr(args, "in"))
    image_id = os.path.splitext(os.path.basename(getattr(args, "in")))[0]
    write_pgm(extract(kind, image, image_id=image_id), args.out)
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    with _run_manifest("sweep", config) as emitted:
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

        rows = [(r.pair_label, d, q) for r, c in zip(reports, curves) for d, q in zip(c.factors, c.qualities)]
        _emit(emitted, config, "curves.csv", _csv("pair,factor,quality", rows))
        rows = [(r.pair_label, r.r_squared, r.slope, r.spearman) for r in rank_reports(reports)]
        _emit(emitted, config, "pairing_report.csv", _csv("pair,r_squared,slope,spearman", rows))
    return 0


def _build_instance(config: ExperimentConfig) -> AllocationInstance:
    services = tuple(entry.spec for entry in config.services)
    images = tuple(read_pgm(entry.image_path) for entry in config.services)
    return AllocationInstance(
        services=services, images=images, factors=config.factors, channel=config.channel
    )


def cmd_allocate(args) -> int:
    config = load_config(args.config)
    with _run_manifest("allocate", config) as emitted:
        inst = _build_instance(config)
        rng = stream(config.seed, "gen")

        if args.solver == "dqn":
            result = dqn_train([inst], config.dqn)
            rows = [
                (e, result.epsilons[e], result.rewards[e], result.losses[e], result.action_indices[e])
                for e in range(config.dqn.episodes)
            ]
            _emit(emitted, config, "dqn_trace.csv", _csv("episode,epsilon,reward,loss,action_index", rows))
            agent_path = os.path.join(config.output_dir, "dqn_agent.bin")
            save_qnet(result.agent.online, agent_path)
            emitted.append(agent_path)
        else:
            solvers = {"exhaustive": exhaustive_oracle, "greedy": greedy_allocate, "random": random_allocate}
            result = solvers[args.solver](inst, rng)
            check = budget_check(inst.action_costs(result.action), config.channel)
            row = (args.solver, "|".join(str(d) for d in result.action), result.reward, check.total, check.feasible)
            _emit(emitted, config, "allocation.csv", _csv("solver,factors,reward,total_bytes,feasible", [row]))
    return 0


def _deliver(entry, config: ExperimentConfig, emitted: list[str], gen_rng, chan_rng) -> tuple:
    """Validate, send and score one service; its maps are freed before the next one is extracted.

    Returns the service's report row and the payload bits the channel flipped.
    """
    spec = entry.spec
    requested = entry.requested_d if entry.requested_d is not None else max(config.factors)
    validation = validate_and_adjust(
        spec, read_pgm(entry.image_path), requested, config.factors, Surrogate(), gen_rng
    )
    core = validation.core
    result = transmit(encode(core.semantic, validation.accepted_d), config.channel, chan_rng)
    _emit(emitted, config, f"{spec.id}_payload.bin", serialize_payload(result.delivered))

    quality = core.score_reconstruction(decode(result.delivered), gen_rng)
    status = "ok" if quality >= spec.threshold else "below_threshold"
    return (spec.id, status, validation.accepted_d, result.bytes_used, quality), result.flipped_bits


def cmd_pipeline(args) -> int:
    config = load_config(args.config)
    gen_rng = stream(config.seed, "gen")
    chan_rng = stream(config.seed, "channel")

    rows = []
    channel_lines = []
    any_failed = False
    with _run_manifest("pipeline", config) as emitted:
        for entry in config.services:
            try:
                row, flipped_bits = _deliver(entry, config, emitted, gen_rng, chan_rng)
            except ValidationFailedError as exc:
                any_failed = True
                rows.append((entry.spec.id, "validation_failed", "", 0, exc.quality))
                continue
            rows.append(row)
            channel_lines.append(f"channel: service={row[0]} bytes={row[3]} flipped_bits={flipped_bits}")
            if row[1] == "below_threshold":
                any_failed = True
                print(
                    f"service {entry.spec.id}: scores {row[4]:.6f} after the channel, "
                    f"below threshold {entry.spec.threshold}",
                    file=sys.stderr,
                )

        _emit(emitted, config, "pipeline_report.csv", _csv("service,status,accepted_d,bytes,quality", rows))
        check = budget_check([row[3] for row in rows], config.channel)
        emitted.extend(channel_lines)
        emitted.append(f"budget: total={check.total} feasible={check.feasible}")
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
