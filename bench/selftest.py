"""Fast self-test of the benchmark on tiny inputs.

Runs one operation of every workload on 64x64 images and shows that it
passes its checks, then corrupts one output at a time (a flipped payload
byte, an edited trace reward, a swapped report row, ...) and shows that
the checks reject each corruption, so they are not vacuous.  It also
runs one traced operation and compares the metric names with
BENCHMARK.json.  Run from the root of a checkout:

    python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys

import run
from workloads import WORKLOADS, prepare, smap_cost

SIZE = 64


def _edit_line(path, index: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_line(path, index: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    del lines[index]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _swap_lines(path, i: int, j: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[i], lines[j] = lines[j], lines[i]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _set_cell(column: int, value: str):
    def edit(line: str) -> str:
        cells = line.split(",")
        cells[column] = value
        return ",".join(cells)

    return edit


def _flip_byte(path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def _feasible_episode(path) -> int:
    """Row number of the first episode with a non-negative reward."""
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()[1:], start=1):
        if float(line.split(",")[2]) >= 0.0:
            return i
    raise AssertionError("no feasible episode in the trace")


# (workload, index of the invocation whose outputs are corrupted, what is done, corruption)
CORRUPTIONS = [
    ("sweep-1024", 0, "d=1 quality below 1", lambda out: _edit_line(out / "curves.csv", 1, _set_cell(2, "0.999"))),
    ("sweep-1024", 0, "swapped report rows", lambda out: _swap_lines(out / "pairing_report.csv", 1, 2)),
    ("sweep-1024", 0, "edited slope", lambda out: _edit_line(out / "pairing_report.csv", 1, _set_cell(2, "-0.5"))),
    ("sweep-1024", 0, "dropped curve row", lambda out: _drop_line(out / "curves.csv", 2)),
    ("allocate-128", 0, "edited trace reward", lambda out: _edit_line(
        out / "dqn_trace.csv", _feasible_episode(out / "dqn_trace.csv"), _set_cell(2, "-1.0"))),
    ("allocate-128", 0, "rising epsilon", lambda out: _edit_line(out / "dqn_trace.csv", 5, _set_cell(1, "1.0"))),
    ("allocate-128", 0, "action out of range", lambda out: _edit_line(out / "dqn_trace.csv", 3, _set_cell(4, "625"))),
    ("allocate-128", 0, "truncated checkpoint", lambda out: (out / "dqn_agent.bin").write_bytes(
        (out / "dqn_agent.bin").read_bytes()[:-8])),
    ("allocate-128", 1, "exhaustive over budget", lambda out: _edit_line(
        out / "allocation.csv", 1, lambda line: f"exhaustive,1|1|1|1,-1.0,{4 * smap_cost(SIZE, SIZE, 1)},False")),
    ("allocate-128", 2, "greedy beats the oracle", lambda out: _edit_line(out / "allocation.csv", 1, _set_cell(2, "1.0"))),
    ("pipeline-1024", 0, "flipped payload byte", lambda out: _flip_byte(out / "grad_payload.bin", 20)),
    ("pipeline-1024", 0, "wrong header factor", lambda out: _flip_byte(out / "seg4_payload.bin", 12)),
    ("pipeline-1024", 0, "swapped report rows", lambda out: _swap_lines(out / "pipeline_report.csv", 1, 2)),
    ("pipeline-1024", 0, "quality below threshold", lambda out: _edit_line(
        out / "pipeline_report.csv", 1, _set_cell(4, "0.1"))),
]


def tiny(name: str):
    """The workload on SIZE x SIZE images: thresholds the small images can meet, fewer episodes."""
    wl = WORKLOADS[name]
    services = tuple(dataclasses.replace(svc, threshold=min(svc.threshold, 0.3)) for svc in wl.services)
    return dataclasses.replace(wl, services=services, episodes=min(wl.episodes, 80))


def main() -> int:
    run._import_program()
    from checks import Checker
    from layertrace import LAYER_METRICS, Tracer
    from semcom import cli

    work = run.ROOT / ".bench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok  " if ok else "BAD ") + what)
        if not ok:
            problems.append(what)

    for name in WORKLOADS:
        prep = prepare(tiny(name), work / name, seed=3, size=SIZE)
        invocations = prep.workload.invocations(prep.config)
        first = run.run_op(prep, invocations, Checker(prep))
        expect(first.error is None, f"{name}: clean operation passes its checks ({first.error})")
        again = run.run_op(prep, invocations, Checker(prep), reference=first.digests)
        expect(again.error is None, f"{name}: rerun reproduces the first operation's bytes")
        altered = {k: v if i else "0" * 64 for i, (k, v) in enumerate(first.digests.items())}
        other = run.run_op(prep, invocations, Checker(prep), reference=altered)
        expect(other.error is not None, f"{name}: digest comparison rejects a different first operation")

        for wl_name, index, what, corrupt in CORRUPTIONS:
            if wl_name != name:
                continue
            checker = Checker(prep)
            for argv in invocations[: index + 1]:
                if cli.main(argv) != 0:
                    raise RuntimeError(f"{name}: {argv} failed")
                if argv is not invocations[index]:
                    checker(argv)
            corrupt(prep.out_dir)
            try:
                checker(invocations[index])
                reason = None
            except Exception as exc:  # any parse or check error is a rejection
                reason = f"{type(exc).__name__}: {exc}"
            expect(reason is not None, f"{name}: checks reject {what} ({reason})")

    prep = prepare(tiny("allocate-128"), work / "traced", seed=3, size=SIZE)
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        tracer.op = 1
        op = run.run_op(prep, prep.workload.invocations(prep.config), Checker(prep), tracer)
    finally:
        uninstall()
    metrics = tracer.layer_metrics(1)
    metrics["trace.wall_s_p50"] = op.wall_s
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(op.error is None and metrics["qnet.update.calls"] > 0, "traced allocate operation passes and records updates")
    expect(
        [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [tuple(m) for m in LAYER_METRICS],
        "per-layer metrics, units and directions match BENCHMARK.json",
    )
    expect(set(metrics) == {name for name, _, _ in LAYER_METRICS}, "the tracer reports every per-layer metric")
    expect(sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS), "workload names match BENCHMARK.json")
    shutil.rmtree(work, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
