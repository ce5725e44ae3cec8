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

# Gaps between flipped bits drawn at a time: 32 KiB of int64 gaps, summed
# in place into positions, at any flip probability and payload length.
_GAP_BATCH = 1 << 12


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
        if self.seed < 0:
            # numpy seeds its streams from non-negative integers only
            raise DomainError(f"seed must be >= 0, got {self.seed}")


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

    Only the flips are drawn. The gaps between consecutive flipped bits of
    an i.i.d. Bernoulli(p) sequence are i.i.d. geometric on 1, 2, ... (Devroye,
    *Non-Uniform Random Variate Generation*, 1986, ch. X), so the flipped
    positions are the running sums of ``rng.geometric(p)`` gaps from position
    -1, and the run stops at the first position past the payload's last bit.
    Gaps come in batches of _GAP_BATCH, so scratch memory is bounded at any
    p; each is clipped at one more than the payload's bit count, which still
    carries it past the last bit but keeps the sums from overflowing int64
    when p is so small that numpy draws 2**63 - 1. Position i flips bit
    ``0x80 >> (i & 7)`` of byte ``i >> 3``, most significant bit first.

    Bytes are accounted whether or not noise corrupted them.  A single rng
    stream must not be shared across concurrent transmissions.
    """
    used = cost_bytes(payload)
    p = cfg.bit_flip_prob
    if p == 0.0:
        return TransmitResult(delivered=payload, bytes_used=used, flipped_bits=0)
    out = np.frombuffer(payload.payload, dtype=np.uint8).copy()
    bits = 8 * out.size
    last, flipped = -1, 0  # the position the next batch's gaps count from
    while last < bits:
        positions = rng.geometric(p, size=_GAP_BATCH)
        np.minimum(positions, bits + 1, out=positions)
        np.cumsum(positions, out=positions)
        positions += last
        inside = positions[: np.searchsorted(positions, bits)]
        np.bitwise_xor.at(out, inside >> 3, (0x80 >> (inside & 7)).astype(np.uint8))
        flipped += inside.size
        last = int(positions[-1])
    delivered = replace(payload, payload=out.tobytes())
    return TransmitResult(delivered=delivered, bytes_used=used, flipped_bits=flipped)


def budget_check(costs: Sequence[int], cfg: ChannelConfig) -> BudgetCheck:
    """Total cost of one allocation round and whether it fits the budget."""
    total = int(sum(costs))
    return BudgetCheck(feasible=total <= cfg.budget_bytes, total=total)
