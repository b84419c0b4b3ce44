"""Bandwidth policies: how strictly the O(log n)-bit limit is enforced."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class BandwidthMode(enum.Enum):
    """What to do when a message exceeds the per-message bit budget."""

    #: Raise :class:`~repro.congest.errors.BandwidthExceededError`.
    STRICT = "strict"
    #: Record the violation in the run metrics and deliver anyway.
    TRACK = "track"
    #: No budget at all (LOCAL-model behaviour): messages are counted
    #: but not sized, so ``total_bits``/``max_message_bits`` stay 0.
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class BandwidthPolicy:
    """Per-message budget of ``max(min_bits, beta * ceil(log2 n))`` bits.

    ``beta`` is the constant hidden in the paper's "O(log n) bits";
    protocols in this repository fit comfortably in ``beta = 32``
    (a message carries a constant number of IDs/colors, each of
    O(log n) bits).  ``min_bits`` keeps budgets sane on tiny test
    graphs where ``log2 n`` is only a few bits.
    """

    mode: BandwidthMode = BandwidthMode.TRACK
    beta: int = 32
    min_bits: int = 96

    def budget_bits(self, n: int) -> int:
        """Bit budget for a single message on an ``n``-node network."""
        if n <= 1:
            log_n = 1
        else:
            log_n = math.ceil(math.log2(n))
        return max(self.min_bits, self.beta * log_n)

    @staticmethod
    def strict(beta: int = 32, min_bits: int = 96) -> "BandwidthPolicy":
        return BandwidthPolicy(BandwidthMode.STRICT, beta, min_bits)

    @staticmethod
    def track(beta: int = 32, min_bits: int = 96) -> "BandwidthPolicy":
        return BandwidthPolicy(BandwidthMode.TRACK, beta, min_bits)

    @staticmethod
    def unbounded() -> "BandwidthPolicy":
        return BandwidthPolicy(BandwidthMode.UNBOUNDED)
