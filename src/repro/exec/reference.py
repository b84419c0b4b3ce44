"""The reference execution backend: the one generator round loop.

:class:`GeneratorLoop` drives a network's node programs in lockstep
CONGEST rounds.  It is the semantic ground truth every other engine is
tested against (``tests/test_backend_equivalence.py``;
``tests/test_loop_golden.py`` pins its metering, per-round records
included).  The hot loop is kept lean:

- metering is inlined into local accumulators — no per-message
  metrics objects or method calls (one ``RunMetrics`` is filled in at
  the end of the run; per-round :class:`RoundMetrics` are built only
  when ``record_rounds`` asks for them);
- neighbor adjacency is preallocated once per run as plain tuples, so
  broadcast delivery is a tight loop over a cached array;
- under an ``UNBOUNDED`` policy there is no bit budget, so messages
  are counted but not sized: :func:`~repro.congest.message.bit_size`
  is skipped and ``total_bits``/``max_message_bits`` stay 0.

A broadcast is one metered message in the run totals; in a per-round
record ``messages`` counts deliveries, so it counts once per neighbor.

Senders resume in ascending label order, the order
:class:`~repro.congest.network.Network` builds its programs in, so
every inbox lists its senders in ascending label order whatever order
the graph's nodes were inserted in.

Stopping order: the ``stop_when`` monitor is consulted *before* the
``max_rounds`` guard.  A protocol that reaches its stop condition on
the exact final admissible round is therefore reported as
``stopped_early`` rather than conflated with non-termination.  A
trailing resume in which every remaining program halts without
sending is local computation, not a communication round.

The loop can start mid-run: on the LearnPalette handler path (or
with forward batches narrower than Δ) the vectorized backend's
``improved-d2color`` kernel runs the pipeline's leading sections as
array work, then materializes the programs with their end-state and
starts this loop at the next round, with the round index and metering
accumulators advanced by the array sections.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, Optional

from repro.congest.errors import (
    BandwidthExceededError,
    NonterminationError,
    ProtocolViolationError,
)
from repro.congest.message import Broadcast, bit_size
from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.policy import BandwidthMode
from repro.exec.base import ExecutionBackend
from repro.obs import trace as obs_trace

_EMPTY_INBOX: Dict[int, Any] = MappingProxyType({})

class GeneratorLoop:
    """Lockstep driver over a network's generators.

    Holds the loop state: live generators, in-flight inboxes, the
    round index, and the metering accumulators.  A kernel that ran the
    leading rounds as array work sets :attr:`round_index`,
    :attr:`rounds` and the accumulators before :meth:`run`.  With
    ``record_rounds`` every counted round appends a
    :class:`RoundMetrics` to :attr:`per_round`.
    """

    def __init__(self, network, record_rounds: bool = False):
        network.materialize()
        self.network = network
        mode = network.policy.mode
        self.metered = mode is not BandwidthMode.UNBOUNDED
        self.strict = mode is BandwidthMode.STRICT
        self.budget = network._budget
        # Preallocated adjacency: one tuple per node, resolved once.
        self.neighbors = {
            node: ctx.neighbors for node, ctx in network.contexts.items()
        }
        self.neighbor_sets = network._neighbor_sets
        self.running = dict(network._generators)
        self.inboxes: Dict[int, Dict[int, Any]] = {}
        #: True once the generators have received their first resume
        #: (a fresh generator must be sent None, not an inbox).
        self.primed = network._started
        self.round_index = 0
        self.rounds = 0
        self.total_messages = 0
        self.total_bits = 0
        self.max_message_bits = 0
        self.violations = 0
        self.worst_violation_bits = 0
        self.stopped_early = False
        self.record_rounds = record_rounds
        self.per_round: list = []

    def run(
        self,
        *,
        max_rounds: int,
        stop_when: Optional[Callable] = None,
        raise_on_timeout: bool = True,
    ) -> None:
        """Drive rounds until every program halts, ``stop_when`` fires
        or ``max_rounds`` is reached."""
        network = self.network
        metered = self.metered
        strict = self.strict
        budget = self.budget
        neighbors = self.neighbors
        neighbor_sets = self.neighbor_sets
        outputs = network.outputs
        running = self.running
        inboxes = self.inboxes
        primed = self.primed
        round_index = self.round_index
        rounds = self.rounds
        total_messages = self.total_messages
        total_bits = self.total_bits
        max_message_bits = self.max_message_bits
        violations = self.violations
        worst_violation_bits = self.worst_violation_bits
        per_round = self.per_round if self.record_rounds else None

        try:
            while running:
                # Monitor before timeout: a stop condition reached on
                # the final round is an early stop.
                if stop_when is not None and stop_when(
                    network, round_index
                ):
                    self.stopped_early = True
                    break
                if round_index >= max_rounds:
                    if raise_on_timeout:
                        raise NonterminationError(
                            max_rounds, set(running)
                        )
                    break

                next_inboxes: Dict[int, Dict[int, Any]] = {}
                halted_now = []
                round_messages = 0
                round_bits0 = total_bits
                # The round's largest message, folded into the run max
                # at round end.
                round_max = 0

                for node, gen in running.items():
                    try:
                        if primed:
                            outbox = gen.send(
                                inboxes.get(node, _EMPTY_INBOX)
                            )
                        else:
                            outbox = gen.send(None)
                    except StopIteration as stop:
                        outputs[node] = stop.value
                        halted_now.append(node)
                        continue
                    if outbox is None:
                        continue
                    if isinstance(outbox, Broadcast):
                        payload = outbox.payload
                        if metered:
                            bits = bit_size(payload)
                            total_bits += bits
                            if bits > round_max:
                                round_max = bits
                            if bits > budget:
                                if strict:
                                    raise BandwidthExceededError(
                                        node, "<all>", bits, budget
                                    )
                                violations += 1
                                if bits > worst_violation_bits:
                                    worst_violation_bits = bits
                        # One metered message fanned out to all
                        # neighbors: it counts once in the run totals
                        # and once per delivery in the round's record.
                        total_messages += 1
                        nbrs = neighbors[node]
                        for receiver in nbrs:
                            box = next_inboxes.get(receiver)
                            if box is None:
                                next_inboxes[receiver] = {node: payload}
                            else:
                                box[node] = payload
                        round_messages += len(nbrs)
                        continue
                    if not isinstance(outbox, dict):
                        raise ProtocolViolationError(
                            f"node {node} yielded "
                            f"{type(outbox).__name__}; expected dict or "
                            "Broadcast"
                        )
                    if not outbox:
                        continue
                    allowed = neighbor_sets[node]
                    for receiver, payload in outbox.items():
                        if receiver not in allowed:
                            raise ProtocolViolationError(
                                f"node {node} sent to non-neighbor "
                                f"{receiver}"
                            )
                        if metered:
                            bits = bit_size(payload)
                            total_bits += bits
                            if bits > round_max:
                                round_max = bits
                            if bits > budget:
                                if strict:
                                    raise BandwidthExceededError(
                                        node, receiver, bits, budget
                                    )
                                violations += 1
                                if bits > worst_violation_bits:
                                    worst_violation_bits = bits
                        total_messages += 1
                        box = next_inboxes.get(receiver)
                        if box is None:
                            next_inboxes[receiver] = {node: payload}
                        else:
                            box[node] = payload
                        round_messages += 1

                primed = True
                network._started = True

                for node in halted_now:
                    del running[node]
                inboxes = next_inboxes
                if round_max > max_message_bits:
                    max_message_bits = round_max
                # Trailing halt-only resumes are local computation, not
                # a communication round: a node that receives in round
                # r and then returns has round complexity r.
                if running or round_messages > 0:
                    rounds += 1
                    if per_round is not None:
                        per_round.append(
                            RoundMetrics(
                                round_index,
                                round_messages,
                                total_bits - round_bits0,
                                round_max,
                            )
                        )
                round_index += 1
        finally:
            self.primed = primed
            self.round_index = round_index
            self.rounds = rounds
            self.total_messages = total_messages
            self.total_bits = total_bits
            self.max_message_bits = max_message_bits
            self.violations = violations
            self.worst_violation_bits = worst_violation_bits
            self.inboxes = inboxes

    def result(self):
        """Assemble the :class:`RunResult` for the rounds driven so
        far."""
        from repro.congest.network import RunResult

        metrics = RunMetrics(
            rounds=self.rounds,
            total_messages=self.total_messages,
            total_bits=self.total_bits,
            max_message_bits=self.max_message_bits,
            budget_bits=self.budget,
            violations=self.violations,
            worst_violation_bits=self.worst_violation_bits,
            per_round=self.per_round,
        )
        return RunResult(
            outputs=dict(self.network.outputs),
            metrics=metrics,
            halted=not self.running,
            stopped_early=self.stopped_early,
            programs=self.network.programs,
        )


class ReferenceBackend(ExecutionBackend):
    """Lockstep generator executor (the semantic ground truth)."""

    name = "reference"

    def execute(
        self,
        network,
        *,
        max_rounds: int = 1_000_000,
        stop_when: Optional[Callable] = None,
        raise_on_timeout: bool = True,
        record_rounds: bool = False,
    ):
        rec = obs_trace.recorder()
        trace_t0 = rec.clock() if rec is not None else 0.0
        loop = GeneratorLoop(network, record_rounds=record_rounds)
        loop.run(
            max_rounds=max_rounds,
            stop_when=stop_when,
            raise_on_timeout=raise_on_timeout,
        )
        if rec is not None:
            rec.complete(
                "exec.run",
                trace_t0,
                {
                    "backend": self.name,
                    "rounds": loop.rounds,
                    "messages": loop.total_messages,
                    "bits": loop.total_bits,
                    "halted": not loop.running,
                },
            )
        return loop.result()
