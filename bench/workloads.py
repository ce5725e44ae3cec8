"""The benchmark's workloads: synthesised images, generated configs and CLI invocations.

Every input is made from the run's seed: the images are a sum of
sinusoids with seed-drawn phases plus seeded Gaussian noise, written as
8-bit P5 PGMs, and the config carries the seed as its channel seed, so
the DQN, the generation noise and the channel noise all follow it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FACTORS = (1, 2, 4, 8, 10)
HEADER_BYTES = 16
IMAGE_NOISE = 0.02
EPSILON_MIN = 0.05
HIDDEN = (64, 64)


@dataclass(frozen=True)
class Service:
    name: str
    extractor: str
    metric: str
    image: str
    threshold: float = 0.0
    sigma_gen: float = 0.0

    @property
    def pair_label(self) -> str:
        """The pair name ``semcom sweep`` writes for this service's extractor and metric."""
        extractor = {"canny": "canny(low=0.1;high=0.2;sigma=1.4)"}.get(self.extractor, self.extractor)
        metric = {"ssim": "ssim(w=8)", "psnr": "psnr(cap=50.0)"}.get(self.metric, self.metric)
        return f"{extractor}+{metric}"

    @property
    def kind(self) -> tuple[int, int]:
        """Wire-format kind tag and label count of this service's semantic map."""
        if self.extractor.startswith("quantize"):
            return 2, int(self.extractor.split("=")[1].rstrip(")"))
        return (1, 0) if self.extractor == "canny" else (0, 0)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    size: int
    services: tuple[Service, ...]
    solvers: tuple[str, ...] = ()
    budget_bytes: int = 10**9
    bit_flip_prob: float = 0.0
    episodes: int = 200

    @property
    def image_names(self) -> list[str]:
        return list(dict.fromkeys(svc.image for svc in self.services))

    def invocations(self, config: Path) -> list[list[str]]:
        """The CLI argument lists that make up one operation, in order."""
        if self.command == "allocate":
            return [["allocate", "--config", str(config), "--solver", s] for s in self.solvers]
        return [[self.command, "--config", str(config)]]


def smap_cost(width: int, height: int, d: int) -> int:
    """Bytes of one SMAP payload: the 16-byte header plus one byte per encoded pixel."""
    return HEADER_BYTES + math.ceil(width / d) * math.ceil(height / d)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="sweep-1024",
            command="sweep",
            size=1024,
            services=(
                Service("edges", "canny", "ssim", "scene"),
                Service("grad", "sobel", "mse", "scene"),
                Service("seg", "quantize(k=4)", "vi(k=4)", "scene"),
            ),
        ),
        Workload(
            name="allocate-128",
            command="allocate",
            size=128,
            services=(
                Service("edges", "canny", "ssim", "edges"),
                Service("grad", "sobel", "mse", "grad"),
                Service("seg", "quantize(k=4)", "vi(k=4)", "seg"),
                Service("gen", "sobel", "psnr", "gen", sigma_gen=0.05),
            ),
            solvers=("dqn", "exhaustive", "greedy", "random"),
            budget_bytes=12000,
        ),
        Workload(
            name="pipeline-1024",
            command="pipeline",
            size=1024,
            services=(
                Service("grad", "sobel", "mse", "grad", threshold=0.995),
                Service("peak", "sobel", "psnr", "peak", threshold=0.6),
                Service("seg4", "quantize(k=4)", "vi(k=4)", "seg4", threshold=0.70),
                Service("seg8", "quantize(k=8)", "ssim", "seg8", threshold=0.55),
            ),
            budget_bytes=2300000,
            bit_flip_prob=1e-4,
        ),
    )
}


def synth_pixels(size: int, rng: np.random.Generator) -> np.ndarray:
    """8-bit test image: two sinusoidal patterns with random phases plus Gaussian noise."""
    y, x = np.mgrid[0:size, 0:size] / size
    phase = rng.uniform(0.0, 2.0 * np.pi, 3)
    base = (
        0.5
        + 0.25 * np.sin(2 * np.pi * 3 * x + phase[0]) * np.cos(2 * np.pi * 2 * y + phase[1])
        + 0.12 * np.sin(2 * np.pi * 32 * (x + y) + phase[2])
    )
    noisy = np.clip(base + rng.normal(0.0, IMAGE_NOISE, base.shape), 0.0, 1.0)
    return np.rint(noisy * 255.0).astype(np.uint8)


@dataclass(frozen=True)
class Prepared:
    workload: Workload
    size: int
    config: Path
    out_dir: Path
    images: dict[str, Path]


def prepare(wl: Workload, work_dir: Path, seed: int, size: int | None = None) -> Prepared:
    """Write the workload's images and config under ``work_dir``; ``size`` overrides the image side.

    Paths in the config are relative to the current directory, because the
    config format reads everything after a ``#`` as a comment.
    """
    size = size or wl.size
    work_dir.mkdir(parents=True, exist_ok=True)
    images = {}
    for index, name in enumerate(wl.image_names):
        pixels = synth_pixels(size, np.random.default_rng([seed, index]))
        path = work_dir / f"{name}.pgm"
        path.write_bytes(b"P5\n%d %d\n255\n" % (size, size) + pixels.tobytes())
        images[name] = path
    out_dir = work_dir / "out"
    lines = ["[services]"]
    for svc in wl.services:
        lines += [
            f"{svc.name}.extractor = {svc.extractor}",
            f"{svc.name}.metric = {svc.metric}",
            f"{svc.name}.image = {os.path.relpath(images[svc.image])}",
        ]
        if svc.threshold:
            lines.append(f"{svc.name}.threshold = {svc.threshold!r}")
        if svc.sigma_gen:
            lines.append(f"{svc.name}.sigma_gen = {svc.sigma_gen!r}")
    lines += [
        "[channel]",
        f"budget_bytes = {wl.budget_bytes}",
        f"bit_flip_prob = {wl.bit_flip_prob!r}",
        f"seed = {seed}",
        "[factors]",
        "d = " + ",".join(str(d) for d in FACTORS),
        "[dqn]",
        f"episodes = {wl.episodes}",
        f"epsilon_min = {EPSILON_MIN!r}",
        "hidden = " + ",".join(str(h) for h in HIDDEN),
        "[output]",
        f"dir = {os.path.relpath(out_dir)}",
    ]
    config = work_dir / "bench.cfg"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Prepared(workload=wl, size=size, config=config, out_dir=out_dir, images=images)
