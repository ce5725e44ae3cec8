"""Downscale codec and byte accounting for semantic map transmission.

Wire format (16-byte header, then payload bytes row-major):

    bytes 0..3   magic "SMAP"
    bytes 4..7   original width, height   (16-bit big-endian each)
    bytes 8..11  encoded width, height    (16-bit big-endian each)
    byte  12     downscaling factor d
    byte  13     kind tag: 0 soft, 1 binary, 2 labels
    byte  14     label count K (0 when unused)
    byte  15     reserved, zero

One payload byte per encoded pixel; no entropy coding or bit packing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptPayloadError, DomainError
from .image import (
    LABELS,
    MAX_LEVELS,
    SOFT,
    Resolution,
    SemanticMap,
    bilinear_upscale,
    box_downscale,
    downscaled_resolution,
    restore_kind,
)

HEADER_BYTES = 16
_MAGIC = b"SMAP"
_KIND_TAGS = {"soft": 0, "binary": 1, "labels": 2}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}
# Largest downscale factor: the payload header stores it in one byte.
MAX_FACTOR = 255
_MAX_DIM = 65535


@dataclass(frozen=True, eq=False)
class EncodedPayload:
    orig_width: int
    orig_height: int
    enc_width: int
    enc_height: int
    factor: int
    kind: str
    levels: int | None
    payload: bytes

    def __post_init__(self):
        # The header holds each dimension in 16 bits and the factor in 8.
        if not 1 <= self.factor <= MAX_FACTOR:
            raise CorruptPayloadError(f"factor must lie in [1, {MAX_FACTOR}], got {self.factor}")
        # The encoded dims must then be ceil(orig / d), no larger.
        if not (1 <= self.orig_width <= _MAX_DIM and 1 <= self.orig_height <= _MAX_DIM):
            raise CorruptPayloadError(
                f"original dims {self.orig_width}x{self.orig_height} must each lie in [1, {_MAX_DIM}]"
            )
        expected = downscaled_resolution(self.orig_width, self.orig_height, self.factor)
        if (self.enc_width, self.enc_height) != (expected.width, expected.height):
            raise CorruptPayloadError(
                f"encoded dims {self.enc_width}x{self.enc_height} inconsistent with "
                f"{self.orig_width}x{self.orig_height} at d={self.factor}"
            )
        if len(self.payload) != self.enc_width * self.enc_height:
            raise CorruptPayloadError(
                f"payload has {len(self.payload)} bytes, header needs {self.enc_width * self.enc_height}"
            )
        if self.kind not in _KIND_TAGS:
            raise CorruptPayloadError(f"unknown payload kind {self.kind!r}")
        if self.kind == LABELS:
            if not (isinstance(self.levels, (int, np.integer)) and 2 <= self.levels <= MAX_LEVELS):
                raise CorruptPayloadError(
                    f"labels payload needs a level count K in [2, {MAX_LEVELS}], got {self.levels!r}"
                )
        elif self.levels is not None:
            raise CorruptPayloadError(f"{self.kind} payload has a level count {self.levels!r}; only labels payloads do")


def encode(map: SemanticMap, d: int) -> EncodedPayload:
    """Box-downscale by d and quantize to one byte per pixel."""
    if d < 1:
        raise DomainError(f"downscale factor must be >= 1, got {d}")
    if d > MAX_FACTOR:
        raise DomainError(f"factor {d} exceeds the wire format limit of {MAX_FACTOR}")
    if map.width > _MAX_DIM or map.height > _MAX_DIM:
        raise DomainError(f"resolution exceeds the wire format limit of {_MAX_DIM}")
    small = box_downscale(map, d)
    levels = small.pixels * 255.0
    np.rint(levels, out=levels)
    payload = levels.astype(np.uint8).tobytes()
    return EncodedPayload(
        orig_width=map.width,
        orig_height=map.height,
        enc_width=small.width,
        enc_height=small.height,
        factor=d,
        kind=map.kind,
        levels=map.levels,
        payload=payload,
    )


def decode(payload: EncodedPayload) -> SemanticMap:
    """Dequantize, upscale back to the original resolution, restore the kind.

    A soft payload's upscaled map is returned as it is; binary and labels
    payloads are coerced back onto their value sets.
    """
    raw = np.frombuffer(payload.payload, dtype=np.uint8) / 255.0
    small = SemanticMap(raw.reshape(payload.enc_height, payload.enc_width))
    full = bilinear_upscale(small, Resolution(payload.orig_width, payload.orig_height))
    if payload.kind == SOFT:
        return full
    return restore_kind(full.pixels, payload.kind, payload.levels)


def cost_bytes(payload: EncodedPayload) -> int:
    """Total transmission cost: fixed header plus one byte per encoded pixel."""
    return HEADER_BYTES + len(payload.payload)


def encoded_cost(width: int, height: int, d: int) -> int:
    """cost_bytes of encoding a width x height map at factor d, without encoding it."""
    res = downscaled_resolution(width, height, d)
    return HEADER_BYTES + res.width * res.height


def serialize_payload(payload: EncodedPayload) -> bytes:
    header = struct.pack(
        ">4sHHHHBBBB",
        _MAGIC,
        payload.orig_width,
        payload.orig_height,
        payload.enc_width,
        payload.enc_height,
        payload.factor,
        _KIND_TAGS[payload.kind],
        payload.levels or 0,
        0,
    )
    return header + payload.payload


def parse_payload(data: bytes) -> EncodedPayload:
    if len(data) < HEADER_BYTES:
        raise CorruptPayloadError(f"need at least {HEADER_BYTES} header bytes, got {len(data)}")
    magic, ow, oh, ew, eh, d, tag, k, _ = struct.unpack(">4sHHHHBBBB", data[:HEADER_BYTES])
    if magic != _MAGIC:
        raise CorruptPayloadError(f"bad magic {magic!r}")
    if tag not in _TAG_KINDS:
        raise CorruptPayloadError(f"unknown kind tag {tag}")
    kind = _TAG_KINDS[tag]
    return EncodedPayload(
        orig_width=ow,
        orig_height=oh,
        enc_width=ew,
        enc_height=eh,
        factor=d,
        kind=kind,
        levels=k if kind == LABELS else None,
        payload=data[HEADER_BYTES:],
    )
