"""Budgeted, optionally noisy transport of encoded payloads.

The physical link is modeled as an i.i.d. binary symmetric channel on
payload bits plus a hard byte budget per allocation round.  Headers are
assumed error-free so a corrupted frame never turns into a parse failure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .codec import EncodedPayload, cost_bytes
from .errors import DomainError

# Payload bytes whose per-bit uniforms are drawn and applied together: 2 MiB
# of float64 uniforms at a time, however long the payload.
_BLOCK_BYTES = 1 << 15


@dataclass(frozen=True)
class ChannelConfig:
    budget_bytes: int
    bit_flip_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.budget_bytes < 0:
            raise DomainError(f"budget must be >= 0, got {self.budget_bytes}")
        if not 0.0 <= self.bit_flip_prob <= 1.0:
            raise DomainError(f"bit flip probability must lie in [0, 1], got {self.bit_flip_prob}")


@dataclass(frozen=True, eq=False)
class TransmitResult:
    delivered: EncodedPayload
    bytes_used: int
    flipped_bits: int


@dataclass(frozen=True)
class BudgetCheck:
    feasible: bool
    total: int


def transmit(payload: EncodedPayload, cfg: ChannelConfig, rng: np.random.Generator) -> TransmitResult:
    """Flip each payload bit independently with probability cfg.bit_flip_prob.

    Bytes are accounted whether or not noise corrupted them.  A single rng
    stream must not be shared across concurrent transmissions.
    """
    used = cost_bytes(payload)
    p = cfg.bit_flip_prob
    if p == 0.0:
        return TransmitResult(delivered=payload, bytes_used=used, flipped_bits=0)
    raw = np.frombuffer(payload.payload, dtype=np.uint8)
    out = raw.copy()
    # Consecutive blocks consume the stream exactly as one (n, 8) draw would.
    uniforms = np.empty((min(raw.size, _BLOCK_BYTES), 8))
    flipped = 0
    for start in range(0, raw.size, _BLOCK_BYTES):
        block = uniforms[: raw.size - start]
        rng.random(out=block)
        flips = block < p
        flipped += int(np.count_nonzero(flips))
        # flips is C-contiguous with 8 bits per byte, so one flat pack gives
        # each byte's bits in order, as packing along axis 1 would.
        out[start : start + len(block)] ^= np.packbits(flips.reshape(-1))
    delivered = replace(payload, payload=out.tobytes())
    return TransmitResult(delivered=delivered, bytes_used=used, flipped_bits=flipped)


def budget_check(costs: Sequence[int], cfg: ChannelConfig) -> BudgetCheck:
    """Total cost of one allocation round and whether it fits the budget."""
    total = int(sum(costs))
    return BudgetCheck(feasible=total <= cfg.budget_bytes, total=total)
