"""Experiment config files.

Config format: plain-text ``key = value`` lines under ``[section]``
headers; ``#`` starts a comment.  ``_SECTIONS`` lists each section's
keys; a ``[services]`` key is ``<name>.<key>``, one group per service.
``[dqn]`` maps onto ``DqnConfig``.  Any other key or section is a config
error, and an omitted key takes the default of the dataclass field it
sets.

Extractor and metric values are ``kind`` or ``kind(arg=value, ...)``
with the kinds and arguments of ``_EXTRACTORS`` and ``_METRICS``; ','
and ';' both separate arguments, and any other argument is a config
error.  An image value containing "{id}" has the service name
substituted before loading.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
from dataclasses import dataclass, field

from .allocator import DqnConfig
from .channel import ChannelConfig
from .codec import MAX_FACTOR
from .errors import ConfigError, DomainError
from .extractors import Canny, ExternalMap, ExtractorKind, QuantizeSegmentation, SobelMagnitude
from .files import read_bytes
from .generation import ServiceSpec
from .metrics import MetricKind, MseQuality, PsnrQuality, SsimQuality, ViQuality

# Each kind's class and arguments; an argument maps to (dataclass field, parser).
_EXTRACTORS = {
    "canny": (Canny, {"low": ("low", float), "high": ("high", float), "sigma": ("sigma", float)}),
    "sobel": (SobelMagnitude, {}),
    "quantize": (QuantizeSegmentation, {"k": ("levels", int)}),
    "external": (ExternalMap, {"template": ("template", str)}),
}
_METRICS = {
    "mse": (MseQuality, {}),
    "psnr": (PsnrQuality, {"cap": ("cap_db", float)}),
    "ssim": (SsimQuality, {"window": ("window", int)}),
    "vi": (ViQuality, {"k": ("levels", int)}),
}


def _required(cls, args) -> tuple[str, ...]:
    """The arguments whose field has no default."""
    no_default = {f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING}
    return tuple(key for key, (name, _) in args.items() if name in no_default)


_REQUIRED = {cls: _required(cls, args) for table in (_EXTRACTORS, _METRICS) for cls, args in table.values()}


def _build(cls, table, values: dict[str, str], **given):
    """``cls`` from ``given`` and the keys present in ``values``, each parsed into its field.

    An omitted key takes the field's default; a key mapped to None sets no field.
    """
    for key, text in values.items():
        target = table[key]
        if target is not None:
            name, parse = target
            given[name] = parse(text)
    return cls(**given)


def _split_call(text: str, what: str) -> tuple[str, dict[str, str]]:
    """``kind`` or ``kind(key=value, ...)`` as the lowercased kind and its arguments."""
    name, argtext = text.strip(), ""
    if "(" in name:
        if not name.endswith(")"):
            raise ConfigError(f"unbalanced parentheses in {name!r}")
        name, argtext = name[:-1].split("(", 1)
    name = name.strip().lower()
    args = {}
    for part in argtext.replace(";", ",").split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"{what} {name}: expected key=value argument, got {part!r}")
        key, value = part.split("=", 1)
        args[key.strip()] = value.strip()
    return name, args


def _parse_kind(text: str, what: str, kinds):
    name, args = _split_call(text, what)
    if name not in kinds:
        valid = ", ".join(
            kind + "".join(f"({key}=...)" for key in _REQUIRED[cls]) for kind, (cls, _) in kinds.items()
        )
        raise ConfigError(f"unknown {what} {name!r}; valid kinds: {valid}")
    cls, known = kinds[name]
    for key in args:
        if key not in known:
            valid = ", ".join(known) or "none"
            raise ConfigError(f"{what} {name!r} has unknown argument {key!r}; valid arguments: {valid}")
    for key in _REQUIRED[cls]:
        if key not in args:
            raise ConfigError(f"{what} {name!r} is missing argument {key!r}")
    try:
        return _build(cls, known, args)
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from exc


def parse_extractor(text: str) -> ExtractorKind:
    return _parse_kind(text, "extractor", _EXTRACTORS)


def parse_metric(text: str) -> MetricKind:
    return _parse_kind(text, "metric", _METRICS)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.replace(";", ",").split(",") if v.strip())


# Each section's keys; a key maps to (dataclass field, parser), or to None
# when it is read outside any dataclass.  In [services], the key after "<name>.".
_SECTIONS = {
    "services": {
        "extractor": ("extractor", parse_extractor),
        "metric": ("metric", parse_metric),
        "image": None,
        "threshold": ("threshold", float),
        "weight": ("weight", float),
        "sigma_gen": ("sigma_gen", float),
        "d": None,
    },
    "channel": {
        "budget_bytes": ("budget_bytes", int),
        "bit_flip_prob": ("bit_flip_prob", float),
        "seed": ("seed", int),
    },
    "factors": {"d": None},
    "dqn": {
        "episodes": ("episodes", int),
        "lr": ("learning_rate", float),
        "epsilon_min": ("epsilon_min", float),
        "buffer": ("buffer_capacity", int),
        "batch": ("batch_size", int),
        "hidden": ("hidden", _int_list),
        "warmup": ("warmup", int),
    },
    "output": {"dir": None},
}


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


def _check_key(path, lineno, section, key, field) -> None:
    if field not in _SECTIONS[section]:
        valid = ", ".join(_SECTIONS[section])
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
        if name not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{name}]; valid sections: {sorted(_SECTIONS)}")
    if "services" not in sections or not sections["services"]:
        raise ConfigError(f"{path}: config needs a [services] section with at least one service")

    factors_raw = _as_dict(sections, "factors", path).get("d", "1,2,4,8,10")
    try:
        factors = tuple(sorted(set(_int_list(factors_raw))))
    except ValueError as exc:
        raise ConfigError(f"{path}: bad factor list {factors_raw!r}") from exc
    # a payload header holds the factor in one byte
    if not factors or not 1 <= factors[0] <= factors[-1] <= MAX_FACTOR:
        raise ConfigError(f"{path}: factors must be integers in [1, {MAX_FACTOR}], got {factors_raw!r}")

    try:
        channel = _build(ChannelConfig, _SECTIONS["channel"], _as_dict(sections, "channel", path), budget_bytes=10**9)
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
        try:
            spec = _build(ServiceSpec, _SECTIONS["services"], fields, id=name)
            requested_d = int(fields["d"]) if "d" in fields else None
        except (ValueError, DomainError) as exc:
            raise ConfigError(f"{path}: service {name!r}: {exc}") from exc
        if requested_d is not None and requested_d not in factors:
            raise ConfigError(
                f"{path}: service {name!r} requests d={requested_d} outside factors {list(factors)}"
            )
        services.append(ServiceEntry(spec=spec, image_path=image_path, requested_d=requested_d))

    dqn_seed = _label_seed(channel.seed, "dqn")
    try:
        dqn = _build(DqnConfig, _SECTIONS["dqn"], _as_dict(sections, "dqn", path), seed=dqn_seed)
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"{path}: bad [dqn] settings: {exc}") from exc

    return ExperimentConfig(
        services=tuple(services),
        channel=channel,
        factors=factors,
        dqn=dqn,
        output_dir=_as_dict(sections, "output", path).get("dir", "out"),
        source_path=str(path),
        source_bytes=source_bytes,
    )


def _label_seed(seed: int, label: str) -> int:
    """Stable integer sub-seed derived from the shared seed and a component label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")
