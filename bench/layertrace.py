"""Outside-in layer tracing: spans recorded around the program's public functions.

``Tracer.install`` wraps each function named in ``TARGETS`` and puts the
wrapper in place of every name bound to the original in every loaded
``semcom`` module, because the modules import each other's functions by
name (``from .codec import decode``).  Methods are patched on their
class.  A span is (name, start, end, parent, op); a layer's self time is
its spans' durations minus the time their child spans cover.  Counters
are taken at the same boundaries.  Nothing inside the program changes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np
from semcom.image import SemanticMap
from semcom.qnet import Mlp, SgdMomentum


def _fingerprint(pixels: np.ndarray) -> tuple:
    """Cheap content identity of a map: its shape and a hash of every 4th row and column."""
    sample = np.ascontiguousarray(pixels[::4, ::4])
    return pixels.shape, hashlib.blake2b(sample.tobytes(), digest_size=12).digest()


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters of a traced run, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def distinct(self, name: str, key) -> None:
        """Count a call under ``name`` and remember its key among this operation's keys."""
        self.counts[name] += 1
        self.keys[name].add((self.op, key))

    # --- hooks run outside the wrapped call's span ---------------------------------

    def _on_extract(self, args, kwargs):
        kind, image = _arg(args, kwargs, 0, "kind"), _arg(args, kwargs, 1, "image")
        self.distinct("extract", (repr(kind), _fingerprint(image.pixels)))

    def _on_encode(self, args, kwargs):
        smap, d = _arg(args, kwargs, 0, "map"), _arg(args, kwargs, 1, "d")
        self.distinct("roundtrip", (_fingerprint(smap.pixels), d))

    def _after_encode(self, payload):
        self.counts["codec.payload_bytes"] += len(payload.payload)

    def _after_transmit(self, result):
        self.counts["channel.bytes"] += result.bytes_used
        self.counts["channel.flipped_bits"] += result.flipped_bits

    def _after_validate(self, result):
        self.counts["validate.accepted"] += 1

    def _wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(self, result)
            return result

        return traced

    def install(self):
        """Patch every target; return a function that puts the originals back."""
        undo = []
        modules = [m for n, m in list(sys.modules.items()) if n == "semcom" or n.startswith("semcom.")]
        for name, module, attr, before, after in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        for name, cls, attr in METHODS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            undo.append((cls, attr, original))
        original_post_init = SemanticMap.__post_init__

        def counted_post_init(smap):
            self.counts["image.maps_built"] += 1
            original_post_init(smap)

        SemanticMap.__post_init__ = counted_post_init
        undo.append((SemanticMap, "__post_init__", original_post_init))

        def uninstall():
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

        return uninstall

    def self_times(self) -> tuple[Counter, dict[str, float]]:
        """Calls and total self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
        return calls, self_s

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Every per-layer metric, per traced operation."""
        calls, self_s = self.self_times()
        validate_tries = sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == "generation.reconstruct_and_score" and parent >= 0 and self.spans[parent][0] == "generation.validate"
        )
        out = {}
        for name in LAYER_SPANS:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_s"] = self_s[name] / n_ops
        out["qnet.update.calls"] = calls["qnet.td_loss"] / n_ops
        out["qnet.update.self_s"] = (self_s["qnet.td_loss"] + self_s["qnet.step"]) / n_ops
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self_s[name] / n_ops
        for name in ("image.maps_built", "codec.payload_bytes", "channel.bytes", "channel.flipped_bits", "cli.output_bytes"):
            out[name] = self.counts[name] / n_ops
        out["extractors.extract.repeat"] = _ratio(self.counts["extract"], len(self.keys["extract"]))
        out["codec.roundtrip.distinct_ratio"] = _ratio(len(self.keys["roundtrip"]), self.counts["roundtrip"])
        out["generation.validate.accept_ratio"] = _ratio(self.counts["validate.accepted"], validate_tries)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


TARGETS = [
    # (span name, defining module, attribute, hook before the call, hook on the result)
    ("extractors.extract", "semcom.extractors", "extract", Tracer._on_extract, None),
    ("extractors.canny", "semcom.extractors", "canny", None, None),
    ("extractors.sobel", "semcom.extractors", "sobel_magnitude", None, None),
    ("extractors.quantize", "semcom.extractors", "quantize_segmentation", None, None),
    ("image.bilinear_upscale", "semcom.image", "bilinear_upscale", None, None),
    ("image.box_downscale", "semcom.image", "box_downscale", None, None),
    ("image.read_pgm", "semcom.image", "read_pgm", None, None),
    ("codec.encode", "semcom.codec", "encode", Tracer._on_encode, Tracer._after_encode),
    ("codec.decode", "semcom.codec", "decode", None, None),
    ("metrics.mse", "semcom.metrics", "mse_quality", None, None),
    ("metrics.psnr", "semcom.metrics", "psnr_quality", None, None),
    ("metrics.ssim", "semcom.metrics", "ssim_quality", None, None),
    ("metrics.vi", "semcom.metrics", "vi_quality", None, None),
    ("generation.score_semantic", "semcom.generation", "score_semantic", None, None),
    ("generation.reconstruct_and_score", "semcom.generation", "reconstruct_and_score", None, None),
    ("generation.validate", "semcom.generation", "validate_and_adjust", None, Tracer._after_validate),
    ("channel.transmit", "semcom.channel", "transmit", None, Tracer._after_transmit),
    ("allocator.evaluate_action", "semcom.allocator", "evaluate_action", None, None),
    ("allocator.quality_table", "semcom.allocator", "quality_table", None, None),
    ("allocator.dqn_train", "semcom.allocator", "dqn_train", None, None),
    ("qnet.td_loss", "semcom.qnet", "td_loss_and_gradients", None, None),
    ("pairing.sweep_curve", "semcom.pairing", "sweep_curve", None, None),
    ("pairing.fit", "semcom.pairing", "fit_predictability", None, None),
    ("config.load_config", "semcom.config", "load_config", None, None),
]
METHODS = [("qnet.forward", Mlp, "forward"), ("qnet.step", SgdMomentum, "step")]

# Spans reported as calls and self time, and spans reported as self time only.
LAYER_SPANS = [
    "extractors.canny",
    "extractors.sobel",
    "extractors.quantize",
    "image.bilinear_upscale",
    "image.box_downscale",
    "image.read_pgm",
    "codec.encode",
    "codec.decode",
    "metrics.mse",
    "metrics.psnr",
    "metrics.ssim",
    "metrics.vi",
    "generation.score_semantic",
    "generation.validate",
    "channel.transmit",
    "allocator.evaluate_action",
    "allocator.quality_table",
    "qnet.forward",
]
SELF_ONLY = ["allocator.dqn_train", "pairing.sweep_curve", "pairing.fit", "config.load_config", "cli"]


def _catalogue() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in LAYER_SPANS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [("qnet.update.calls", "count", "lower"), ("qnet.update.self_s", "s", "lower")]
    out += [(f"{name}.self_s", "s", "lower") for name in SELF_ONLY]
    out += [
        ("extractors.extract.repeat", "ratio", "lower"),
        ("image.maps_built", "count", "lower"),
        ("codec.payload_bytes", "B", "lower"),
        ("codec.roundtrip.distinct_ratio", "ratio", "higher"),
        ("generation.validate.accept_ratio", "ratio", "higher"),
        ("channel.bytes", "B", "lower"),
        ("channel.flipped_bits", "bits", "lower"),
        ("cli.output_bytes", "B", "lower"),
        ("trace.wall_s_p50", "s", "lower"),
    ]
    return out


LAYER_METRICS = _catalogue()
