"""Benchmark of the semcom CLI workflows, run in-process through ``semcom.cli.main``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-1024 --seed 1 --seconds 25 --trace 0

One process runs one workload as a closed loop with a single caller: a
warm-up operation, then consecutive operations until ``--seconds`` have
passed, each started when the previous one finished.  An operation is
one CLI invocation, or for allocate-128 one round of the four solvers.
Every operation's outputs are checked and must reproduce the warm-up
operation's bytes.  The last line of standard output is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from spans around the program's public functions.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, prepare

ROOT = Path(__file__).resolve().parent.parent
# Set-ups timed between operations, so that their median spans the whole run.
SETUP_SAMPLES = 5


def _import_program():
    """Put the checkout's ``src`` first on the path; stop if the package is not there."""
    src = ROOT / "src"
    if not (src / "semcom" / "__init__.py").is_file():
        sys.exit(f"bench: no semcom package at {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))


@dataclass
class Op:
    wall_s: float
    units: int
    output_bytes: int
    digests: dict
    error: str | None


def run_op(prep, invocations, checker, tracer=None, reference=None) -> Op:
    """Run one operation's CLI invocations, timing only the invocations themselves."""
    from semcom import cli

    if prep.out_dir.exists():
        for path in prep.out_dir.iterdir():
            path.unlink()
    wall, units, output_bytes, digests = 0.0, 0, 0, {}
    for argv in invocations:
        if tracer is not None:
            tracer.open("cli")
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            return Op(wall, units, output_bytes, digests, f"{argv[0]} raised")
        finally:
            wall += time.perf_counter() - start
            if tracer is not None:
                tracer.close()
        if code != 0:
            return Op(wall, units, output_bytes, digests, f"{' '.join(argv)} exited {code}")
        try:
            files, done = checker(argv)
        except Exception as exc:  # a malformed output can make any parser in the checks raise
            return Op(wall, units, output_bytes, digests, f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
        digests.update(files)
        units += done
        for name in files:
            output_bytes += (prep.out_dir / name.split("/")[-1]).stat().st_size
    if reference is not None and digests != reference:
        changed = sorted(k for k in set(digests) | set(reference) if digests.get(k) != reference.get(k))
        return Op(wall, units, output_bytes, digests, f"outputs differ from the first operation's: {changed}")
    return Op(wall, units, output_bytes, digests, None)


def setup_once(prep) -> None:
    """The program's per-invocation preparation, through its public functions."""
    from semcom import AllocationInstance, read_pgm
    from semcom.config import load_config

    config = load_config(prep.config)
    images = {path: read_pgm(path) for path in dict.fromkeys(e.image_path for e in config.services)}
    if prep.workload.command == "allocate":
        inst = AllocationInstance(
            services=tuple(e.spec for e in config.services),
            images=tuple(images[e.image_path] for e in config.services),
            factors=config.factors,
            channel=config.channel,
        )
        inst.semantic_maps, inst.cost_table, inst.state_vector  # fill the cached properties


def time_setup(prep, times: list) -> None:
    """Append the times of SETUP_SAMPLES set-ups to ``times``."""
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        setup_once(prep)
        times.append(time.perf_counter() - start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _import_program()
    from checks import Checker
    from layertrace import LAYER_METRICS, Tracer

    wl = WORKLOADS[args.workload]
    work_dir = ROOT / ".bench_out" / wl.name
    shutil.rmtree(work_dir, ignore_errors=True)
    prep = prepare(wl, work_dir, args.seed)
    invocations = wl.invocations(prep.config)
    checker = Checker(prep)

    warm = run_op(prep, invocations, checker)
    tracer = Tracer() if args.trace else None
    uninstall = tracer.install() if tracer else None
    ops, setup_times = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        if tracer is None:
            time_setup(prep, setup_times)
        else:
            tracer.op = len(ops) + 1
        op = run_op(prep, invocations, checker, tracer, reference=warm.digests)
        ops.append(op)
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += op.output_bytes
    if uninstall is not None:
        uninstall()

    failed = [op.error for op in [warm, *ops] if op.error is not None]
    for error in failed:
        print(f"bench: failed operation: {error}", file=sys.stderr)
    wall = [op.wall_s for op in ops]
    print(f"bench: warm-up {warm.wall_s:.3f} s, operations " + " ".join(f"{w:.3f}" for w in wall), file=sys.stderr)
    if tracer is not None:
        tracer.write_spans(work_dir / "spans.jsonl")
        metrics = tracer.layer_metrics(len(ops))
        metrics["trace.wall_s_p50"] = statistics.median(wall)
        unit_of = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        metrics = {
            "wall_s_p50": statistics.median(wall),
            "units_per_s": sum(op.units for op in ops) / sum(wall),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        unit_of = {"wall_s_p50": "s", "units_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": not failed,
        "attempted": 1 + len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in unit_of.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
