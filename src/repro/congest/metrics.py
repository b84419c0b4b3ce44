"""Run metrics: rounds, message counts, bit counts, violations."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RoundMetrics:
    """Traffic observed in a single synchronous round."""

    round_index: int
    messages: int = 0
    bits: int = 0
    max_message_bits: int = 0


@dataclass
class RunMetrics:
    """Aggregate traffic for one :meth:`Network.run` execution."""

    rounds: int = 0
    total_messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    budget_bits: int = 0
    violations: int = 0
    worst_violation_bits: int = 0
    per_round: list = field(default_factory=list)

    @property
    def compliant(self) -> bool:
        """True when no message exceeded the bandwidth budget."""
        return self.violations == 0

    def merge(self, other: "RunMetrics") -> "RunMetrics":
        """Combine metrics of sequential phases (rounds add up)."""
        merged = RunMetrics(
            rounds=self.rounds + other.rounds,
            total_messages=self.total_messages + other.total_messages,
            total_bits=self.total_bits + other.total_bits,
            max_message_bits=max(
                self.max_message_bits, other.max_message_bits
            ),
            budget_bits=max(self.budget_bits, other.budget_bits),
            violations=self.violations + other.violations,
            worst_violation_bits=max(
                self.worst_violation_bits, other.worst_violation_bits
            ),
        )
        return merged

    def summary(self) -> str:
        return (
            f"rounds={self.rounds} messages={self.total_messages} "
            f"max_msg_bits={self.max_message_bits}/{self.budget_bits} "
            f"violations={self.violations}"
        )
