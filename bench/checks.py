"""Correctness checks on every operation's outputs.

Each check compares an output with a value computed here, apart from
the program (the SMAP byte law, an OLS fit, a tie-averaged Spearman
correlation, the checkpoint layout), or with a property the method must
have (d=1 quality of 1 without generation noise, the reward rule, the
oracle dominating the heuristics, channel damage near bit_flip_prob).
A check returns the sha256 of every file it read, so the caller can
compare whole operations byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import math
import struct

import numpy as np
from scipy import stats
from semcom import encode, extract, read_pgm
from semcom.config import parse_extractor

from workloads import EPSILON_MIN, FACTORS, HIDDEN, Prepared, smap_cost

REL_TOL = 1e-9
BINOMIAL_SIGMAS = 6.0
NOISE_SLACK = 0.01


class CheckFailed(Exception):
    """An output broke a check; the message says which and where."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _read_csv(path, header: list[str]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows) and rows[0] == header, f"{path.name}: header {rows[:1]} != {header}")
    _require(all(len(r) == len(header) for r in rows[1:]), f"{path.name}: ragged rows")
    return rows[1:]


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(slope, r_squared) of y on x; r_squared is 0 for a flat y, as the report defines it."""
    slope, intercept = np.polyfit(x, y, 1)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return float(slope), 0.0
    ss_res = float(np.sum((y - (intercept + slope * x)) ** 2))
    return float(slope), min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    if np.all(x == x[0]) or np.all(y == y[0]):
        return 0.0
    return float(stats.spearmanr(x, y).statistic)


class Checker:
    """Checks one workload's outputs after each CLI invocation of an operation."""

    def __init__(self, prep: Prepared):
        self.prep = prep
        self.wl = prep.workload
        self.size = prep.size
        self._exhaustive_reward = None
        self._clean = {}

    def __call__(self, argv: list[str]) -> tuple[dict[str, str], int]:
        """Check what ``argv`` wrote; return {file: sha256} and the work units it completed."""
        if argv[0] == "sweep":
            return self._sweep()
        if argv[0] == "allocate":
            return self._allocate(argv[-1])
        return self._pipeline()

    def _cost(self, d: int) -> int:
        return smap_cost(self.size, self.size, d)

    def _sweep(self):
        out = self.prep.out_dir
        curves = {}
        for pair, factor, quality in _read_csv(out / "curves.csv", ["pair", "factor", "quality"]):
            curves.setdefault(pair, []).append((int(factor), float(quality)))
        pairs = {svc.pair_label for svc in self.wl.services}
        _require(set(curves) == pairs, f"curves.csv pairs {sorted(curves)} != {sorted(pairs)}")
        for pair, points in curves.items():
            _require([d for d, _ in points] == list(FACTORS), f"{pair}: factors {points}")
            _require(all(0.0 <= q <= 1.0 for _, q in points), f"{pair}: quality outside [0, 1]")
            _require(points[0][1] == 1.0, f"{pair}: d=1 quality {points[0][1]!r} is not exactly 1")

        report = _read_csv(out / "pairing_report.csv", ["pair", "r_squared", "slope", "spearman"])
        _require(sorted(r[0] for r in report) == sorted(pairs), "pairing_report.csv: wrong pair rows")
        keys = []
        for pair, r2, slope, rho in report:
            x = np.array([d for d, _ in curves[pair]], dtype=float)
            y = np.array([q for _, q in curves[pair]])
            want_slope, want_r2 = _ols(x, y)
            want_rho = _spearman(x, y)
            for name, got, want in (("r_squared", r2, want_r2), ("slope", slope, want_slope), ("spearman", rho, want_rho)):
                _require(_close(float(got), want), f"{pair}: {name} {got} != independent {want!r}")
            keys.append((-float(r2), -abs(float(rho)), pair))
        _require(keys == sorted(keys), "pairing_report.csv: rows are not sorted best-first")
        units = len(pairs) * len(FACTORS) * len(self.prep.images)
        return {f: _digest(out / f) for f in ("curves.csv", "pairing_report.csv")}, units

    def _allocate(self, solver: str):
        out = self.prep.out_dir
        n_services = len(self.wl.services)
        n_actions = len(FACTORS) ** n_services
        if solver == "dqn":
            rows = _read_csv(out / "dqn_trace.csv", ["episode", "epsilon", "reward", "loss", "action_index"])
            _require(len(rows) == self.wl.episodes, f"dqn_trace.csv: {len(rows)} rows for {self.wl.episodes} episodes")
            last_eps = math.inf
            for i, (episode, eps, reward, loss, action) in enumerate(rows):
                eps, reward, loss, action = float(eps), float(reward), float(loss), int(action)
                where = f"dqn_trace.csv episode {episode}"
                _require(int(episode) == i, f"{where}: out of order")
                _require(0 <= action < n_actions, f"{where}: action {action} outside [0, {n_actions})")
                _require(EPSILON_MIN <= eps <= last_eps, f"{where}: epsilon {eps} rises or falls below the floor")
                last_eps = eps
                digits = np.base_repr(action, len(FACTORS)).zfill(n_services)
                cost = sum(self._cost(FACTORS[int(c)]) for c in digits)
                if cost > self.wl.budget_bytes:
                    _require(reward == -1.0, f"{where}: cost {cost} over budget but reward {reward}")
                else:
                    _require(0.0 <= reward <= 1.0, f"{where}: feasible cost {cost} but reward {reward}")
                _require(0.0 <= loss <= 1.0, f"{where}: loss {loss} outside [0, 1]")
            self._check_checkpoint(out / "dqn_agent.bin", [3 * n_services + 1, *HIDDEN, n_actions])
            files = {f"dqn/{f}": _digest(out / f) for f in ("dqn_trace.csv", "dqn_agent.bin")}
            return files, self.wl.episodes

        rows = _read_csv(out / "allocation.csv", ["solver", "factors", "reward", "total_bytes", "feasible"])
        _require(len(rows) == 1 and rows[0][0] == solver, f"allocation.csv: rows {rows} for solver {solver}")
        _, factors, reward, total, feasible = rows[0]
        action = [int(d) for d in factors.split("|")]
        reward = float(reward)
        _require(len(action) == n_services and all(d in FACTORS for d in action), f"{solver}: action {action}")
        cost = sum(self._cost(d) for d in action)
        _require(int(total) == cost, f"{solver}: total_bytes {total} != SMAP cost {cost}")
        fits = cost <= self.wl.budget_bytes
        _require(feasible == str(fits), f"{solver}: feasible={feasible} for cost {cost}")
        _require((0.0 <= reward <= 1.0) if fits else reward == -1.0, f"{solver}: reward {reward} at cost {cost}")
        if solver == "exhaustive":
            _require(fits, f"exhaustive: action {action} exceeds the budget")
            self._exhaustive_reward = reward
        else:
            # Greedy reads the oracle's own quality table.  Random is scored with fresh
            # generation noise, which moves one noisy service's quality by about 1e-3 here.
            slack = NOISE_SLACK if solver == "random" else 0.0
            _require(
                self._exhaustive_reward is not None and reward <= self._exhaustive_reward + slack,
                f"{solver}: reward {reward} beats the exhaustive oracle's {self._exhaustive_reward}",
            )
        return {f"{solver}/allocation.csv": _digest(out / "allocation.csv")}, 0

    @staticmethod
    def _check_checkpoint(path, sizes: list[int]) -> None:
        data = path.read_bytes()
        want = 8 + 4 * len(sizes) + 8 * sum(a * b + b for a, b in zip(sizes, sizes[1:]))
        _require(len(data) == want, f"{path.name}: {len(data)} bytes, layer sizes {sizes} need {want}")
        header = struct.unpack_from(f"<4sI{len(sizes)}I", data)
        _require(header == (b"DQN1", len(sizes), *sizes), f"{path.name}: header {header}")
        params = np.frombuffer(data, dtype="<f8", offset=8 + 4 * len(sizes))
        _require(bool(np.all(np.isfinite(params))), f"{path.name}: non-finite weights")

    def _pipeline(self):
        out = self.prep.out_dir
        rows = _read_csv(out / "pipeline_report.csv", ["service", "status", "accepted_d", "bytes", "quality"])
        _require([r[0] for r in rows] == [s.name for s in self.wl.services], "pipeline_report.csv: wrong services")
        files = {"pipeline_report.csv": _digest(out / "pipeline_report.csv")}
        total = 0
        for svc, (_, status, d, nbytes, quality) in zip(self.wl.services, rows):
            _require(status == "ok", f"{svc.name}: status {status}")
            d, nbytes, quality = int(d), int(nbytes), float(quality)
            _require(d in FACTORS, f"{svc.name}: accepted_d {d} not in {FACTORS}")
            _require(svc.threshold <= quality <= 1.0, f"{svc.name}: quality {quality} below {svc.threshold}")
            _require(nbytes == self._cost(d), f"{svc.name}: bytes {nbytes} != SMAP cost {self._cost(d)}")
            total += nbytes
            path = out / f"{svc.name}_payload.bin"
            data = path.read_bytes()
            _require(len(data) == nbytes, f"{path.name}: {len(data)} bytes, report says {nbytes}")
            enc = math.ceil(self.size / d)
            header = struct.unpack(">4sHHHHBBBB", data[:16])
            want = (b"SMAP", self.size, self.size, enc, enc, d, *svc.kind, 0)
            _require(header == want, f"{path.name}: header {header} != {want}")
            self._check_damage(svc, d, data[16:])
            files[path.name] = _digest(path)
        _require(total <= self.wl.budget_bytes, f"delivered {total} bytes over the budget {self.wl.budget_bytes}")
        return files, len(rows)

    def _check_damage(self, svc, d: int, body: bytes) -> None:
        """Bits flipped by the channel stay within a binomial bound around p * bits."""
        key = (svc.name, d)
        if key not in self._clean:
            image = read_pgm(self.prep.images[svc.image])
            semantic = extract(parse_extractor(svc.extractor), image, image_id=svc.name)
            self._clean[key] = np.frombuffer(encode(semantic, d).payload, dtype=np.uint8)
        got = np.frombuffer(body, dtype=np.uint8)
        flipped = int(np.unpackbits(got ^ self._clean[key]).sum())
        bits = 8 * got.size
        p = self.wl.bit_flip_prob
        mean, sd = p * bits, math.sqrt(bits * p * (1.0 - p))
        _require(
            abs(flipped - mean) <= BINOMIAL_SIGMAS * sd + 1.0,
            f"{svc.name}: {flipped} flipped bits, expected {mean:.1f} +- {BINOMIAL_SIGMAS * sd:.1f}",
        )
