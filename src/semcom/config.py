"""Experiment config files and run manifests.

Config format: plain-text ``key = value`` lines under ``[section]``
headers; ``#`` starts a comment.  Sections:

    [services]   per-service dotted keys: <name>.extractor, <name>.metric,
                 <name>.image, and optional <name>.threshold, <name>.weight,
                 <name>.sigma_gen, <name>.d (requested factor)
    [channel]    budget_bytes, bit_flip_prob, seed
    [factors]    d = comma-separated admissible factor list
    [dqn]        episodes, lr, epsilon_min, buffer, batch, hidden (comma
                 list), warmup; the agent is a one-step contextual bandit,
                 so the former DQN keys gamma and sync are accepted and
                 ignored
    [output]     dir

Any other key or section is a config error.

Extractor values: canny[(low=..;high=..;sigma=..)], sobel,
quantize(k=..), external(template=..).  Metric values: mse,
psnr[(cap=..)], ssim[(window=..)], vi(k=..).  ',' and ';' both separate
arguments; any other argument is a config error.  An image value
containing "{id}" has the service name substituted before loading.
"""

from __future__ import annotations

import hashlib
import io
import os
import platform
from dataclasses import dataclass, field

import numpy as np

from .allocator import EPISODE_GUARD, DqnConfig
from .channel import ChannelConfig
from .errors import ConfigError, DomainError
from .extractors import Canny, ExternalMap, ExtractorKind, QuantizeSegmentation, SobelMagnitude
from .files import read_bytes, write_atomic
from .generation import ServiceSpec
from .metrics import MetricKind, MseQuality, PsnrQuality, SsimQuality, ViQuality

EXTRACTOR_NAMES = "canny, sobel, quantize(k=N), external(template=PATH)"
METRIC_NAMES = "mse, psnr, ssim, vi(k=N)"


def _parse_args(text: str, where: str) -> dict[str, str]:
    if not text:
        return {}
    args = {}
    for part in text.replace(";", ",").split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"{where}: expected key=value argument, got {part!r}")
        key, value = part.split("=", 1)
        args[key.strip()] = value.strip()
    return args


def _split_call(text: str) -> tuple[str, str]:
    text = text.strip()
    if "(" in text:
        if not text.endswith(")"):
            raise ConfigError(f"unbalanced parentheses in {text!r}")
        name, rest = text.split("(", 1)
        return name.strip().lower(), rest[:-1]
    return text.lower(), ""


# The arguments each extractor and metric takes.
_EXTRACTOR_ARGS = {"canny": ("low", "high", "sigma"), "sobel": (), "quantize": ("k",), "external": ("template",)}
_METRIC_ARGS = {"mse": (), "psnr": ("cap",), "ssim": ("window",), "vi": ("k",)}


def _parse_call(text: str, what: str, known: dict[str, tuple[str, ...]]) -> tuple[str, dict[str, str]]:
    name, argtext = _split_call(text)
    args = _parse_args(argtext, f"{what} {name}")
    for key in args:
        if name in known and key not in known[name]:
            valid = ", ".join(known[name]) or "none"
            raise ConfigError(f"{what} {name!r} has unknown argument {key!r}; valid arguments: {valid}")
    return name, args


def parse_extractor(text: str) -> ExtractorKind:
    name, args = _parse_call(text, "extractor", _EXTRACTOR_ARGS)
    try:
        if name == "canny":
            return Canny(
                low=float(args.pop("low", 0.1)),
                high=float(args.pop("high", 0.2)),
                sigma=float(args.pop("sigma", 1.4)),
            )
        if name == "sobel":
            return SobelMagnitude()
        if name == "quantize":
            return QuantizeSegmentation(levels=int(args.pop("k")))
        if name == "external":
            return ExternalMap(template=args.pop("template"))
    except KeyError as exc:
        raise ConfigError(f"extractor {name!r} is missing argument {exc}") from exc
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"bad extractor {text!r}: {exc}") from exc
    raise ConfigError(f"unknown extractor {name!r}; valid kinds: {EXTRACTOR_NAMES}")


def parse_metric(text: str) -> MetricKind:
    name, args = _parse_call(text, "metric", _METRIC_ARGS)
    try:
        if name == "mse":
            return MseQuality()
        if name == "psnr":
            return PsnrQuality(cap_db=float(args.pop("cap", 50.0)))
        if name == "ssim":
            return SsimQuality(window=int(args.pop("window", 8)))
        if name == "vi":
            return ViQuality(levels=int(args.pop("k")))
    except KeyError as exc:
        raise ConfigError(f"metric {name!r} is missing argument {exc}") from exc
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"bad metric {text!r}: {exc}") from exc
    raise ConfigError(f"unknown metric {name!r}; valid kinds: {METRIC_NAMES}")


@dataclass(frozen=True)
class ServiceEntry:
    spec: ServiceSpec
    image_path: str
    requested_d: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    services: tuple[ServiceEntry, ...]
    channel: ChannelConfig
    factors: tuple[int, ...]
    dqn: DqnConfig
    episodes: int
    output_dir: str
    source_path: str
    source_bytes: bytes = field(repr=False)

    @property
    def seed(self) -> int:
        return self.channel.seed

    def config_hash(self) -> str:
        return hashlib.sha256(self.source_bytes).hexdigest()


def _read_sections(data: bytes, path) -> dict[str, list[tuple[int, str, str]]]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    lines = io.StringIO(text, newline=None).readlines()
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        sections[current].append((lineno, key.strip(), value.strip()))
    return sections


# The keys each section knows; in [services], the field after "<name>.".
_KEYS = {
    "services": ("extractor", "metric", "image", "threshold", "weight", "sigma_gen", "d"),
    "channel": ("budget_bytes", "bit_flip_prob", "seed"),
    "factors": ("d",),
    "dqn": ("episodes", "lr", "epsilon_min", "buffer", "batch", "hidden", "warmup", "gamma", "sync"),
    "output": ("dir",),
}


def _check_key(path, lineno, section, key, field) -> None:
    if field not in _KEYS[section]:
        valid = ", ".join(_KEYS[section])
        raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{section}]; valid keys: {valid}")


def _as_dict(sections, section, path) -> dict[str, str]:
    out = {}
    for lineno, key, value in sections.get(section, []):
        _check_key(path, lineno, section, key, key)
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> ExperimentConfig:
    source_bytes = read_bytes(path)
    sections = _read_sections(source_bytes, path)
    for name in sections:
        if name not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{name}]; valid sections: {sorted(_KEYS)}")
    if "services" not in sections or not sections["services"]:
        raise ConfigError(f"{path}: config needs a [services] section with at least one service")

    factors_raw = _as_dict(sections, "factors", path).get("d", "1,2,4,8,10")
    try:
        factors = tuple(sorted({int(v) for v in factors_raw.replace(";", ",").split(",") if v.strip()}))
    except ValueError as exc:
        raise ConfigError(f"{path}: bad factor list {factors_raw!r}") from exc
    if not factors or factors[0] < 1:
        raise ConfigError(f"{path}: factors must be positive integers, got {factors_raw!r}")

    chan = _as_dict(sections, "channel", path)
    try:
        channel = ChannelConfig(
            budget_bytes=int(chan.get("budget_bytes", 10**9)),
            bit_flip_prob=float(chan.get("bit_flip_prob", 0.0)),
            seed=int(chan.get("seed", 0)),
        )
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"{path}: bad [channel] settings: {exc}") from exc

    # group dotted service keys by name, preserving first-appearance order
    per_service: dict[str, dict[str, str]] = {}
    for lineno, key, value in sections["services"]:
        if "." not in key:
            raise ConfigError(f"{path}:{lineno}: service keys look like <name>.<field>, got {key!r}")
        name, fieldname = key.split(".", 1)
        _check_key(path, lineno, "services", key, fieldname)
        per_service.setdefault(name, {})
        if fieldname in per_service[name]:
            raise ConfigError(f"{path}:{lineno}: duplicate field {key!r}")
        per_service[name][fieldname] = value

    services = []
    for name, fields in per_service.items():
        for required in ("extractor", "metric", "image"):
            if required not in fields:
                raise ConfigError(f"{path}: service {name!r} is missing {required!r}")
        image_path = fields["image"].replace("{id}", name)
        if not os.path.exists(image_path):
            raise ConfigError(f"{path}: service {name!r} image not found: {image_path}")
        requested = fields.get("d")
        try:
            spec = ServiceSpec(
                id=name,
                extractor=parse_extractor(fields["extractor"]),
                metric=parse_metric(fields["metric"]),
                threshold=float(fields.get("threshold", 0.0)),
                weight=float(fields.get("weight", 1.0)),
                sigma_gen=float(fields.get("sigma_gen", 0.0)),
            )
            requested_d = int(requested) if requested is not None else None
        except (ValueError, DomainError) as exc:
            raise ConfigError(f"{path}: service {name!r}: {exc}") from exc
        if requested_d is not None and requested_d not in factors:
            raise ConfigError(
                f"{path}: service {name!r} requests d={requested_d} outside factors {list(factors)}"
            )
        services.append(ServiceEntry(spec=spec, image_path=image_path, requested_d=requested_d))

    dqn_fields = _as_dict(sections, "dqn", path)
    try:
        episodes = int(dqn_fields.get("episodes", 500))
        hidden = tuple(
            int(v) for v in dqn_fields.get("hidden", "64,64").replace(";", ",").split(",") if v.strip()
        )
        dqn = DqnConfig(
            hidden=hidden,
            buffer_capacity=int(dqn_fields.get("buffer", 4096)),
            batch_size=int(dqn_fields.get("batch", 32)),
            learning_rate=float(dqn_fields.get("lr", 1e-3)),
            epsilon_min=float(dqn_fields.get("epsilon_min", 0.05)),
            warmup=int(dqn_fields.get("warmup", 64)),
            seed=_label_seed(channel.seed, "dqn"),
        )
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"{path}: bad [dqn] settings: {exc}") from exc
    if not 1 <= episodes <= EPISODE_GUARD:
        raise ConfigError(f"{path}: episodes must lie in [1, {EPISODE_GUARD}], got {episodes}")

    output_dir = _as_dict(sections, "output", path).get("dir", "out")
    return ExperimentConfig(
        services=tuple(services),
        channel=channel,
        factors=factors,
        dqn=dqn,
        episodes=episodes,
        output_dir=output_dir,
        source_path=str(path),
        source_bytes=source_bytes,
    )


def _label_seed(seed: int, label: str) -> int:
    """Stable integer sub-seed derived from the shared seed and a component label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class RunManifest:
    """What a command produced; written atomically when the run finishes."""

    command: str
    config: ExperimentConfig
    started_at: str
    finished_at: str = ""
    emitted: list[str] = field(default_factory=list)

    def record(self, path) -> str:
        self.emitted.append(str(path))
        return str(path)

    def write(self, path) -> None:
        lines = [
            f"command: {self.command}",
            f"config: {self.config.source_path}",
            f"config_sha256: {self.config.config_hash()}",
            f"seed: {self.config.seed}",
            f"versions: semcom=0.1.0 numpy={np.__version__} python={platform.python_version()}",
            f"started: {self.started_at}",
            f"finished: {self.finished_at}",
            "emitted:",
        ]
        lines.extend(f"  {p}" for p in self.emitted)
        write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
