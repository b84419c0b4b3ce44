"""The reference execution backend: the one generator round loop.

:func:`run_generators` drives a network's node programs in lockstep
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

Every run starts at round 0 from freshly built programs: a run
executes wholly on one engine, and a network runs once.
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


def run_generators(
    network,
    *,
    max_rounds: int,
    stop_when: Optional[Callable] = None,
    raise_on_timeout: bool = True,
    record_rounds: bool = False,
):
    """Drive ``network``'s generators in lockstep rounds until every
    program halts, ``stop_when`` fires or ``max_rounds`` is reached;
    the :class:`~repro.congest.network.RunResult`.  With
    ``record_rounds`` every counted round appends a
    :class:`RoundMetrics` to the metrics' ``per_round``."""
    from repro.congest.network import RunResult

    network.materialize()
    mode = network.policy.mode
    metered = mode is not BandwidthMode.UNBOUNDED
    strict = mode is BandwidthMode.STRICT
    budget = network._budget
    # Preallocated adjacency: one tuple per node, resolved once.
    neighbors = {
        node: ctx.neighbors for node, ctx in network.contexts.items()
    }
    neighbor_sets = network._neighbor_sets
    outputs = network.outputs
    running = dict(network._generators)
    inboxes: Dict[int, Dict[int, Any]] = {}
    # A fresh generator must be sent None, not an inbox.
    primed = False
    round_index = 0
    rounds = 0
    total_messages = 0
    total_bits = 0
    max_message_bits = 0
    violations = 0
    worst_violation_bits = 0
    stopped_early = False
    per_round: list = []

    while running:
        # Monitor before timeout: a stop condition reached on the
        # final round is an early stop.
        if stop_when is not None and stop_when(network, round_index):
            stopped_early = True
            break
        if round_index >= max_rounds:
            if raise_on_timeout:
                raise NonterminationError(max_rounds, set(running))
            break

        next_inboxes: Dict[int, Dict[int, Any]] = {}
        halted_now = []
        round_messages = 0
        round_bits0 = total_bits
        # The round's largest message, folded into the run max at
        # round end.
        round_max = 0

        for node, gen in running.items():
            try:
                if primed:
                    outbox = gen.send(inboxes.get(node, _EMPTY_INBOX))
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
                # One metered message fanned out to all neighbors: it
                # counts once in the run totals and once per delivery
                # in the round's record.
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
                    f"node {node} yielded {type(outbox).__name__}; "
                    "expected dict or Broadcast"
                )
            if not outbox:
                continue
            allowed = neighbor_sets[node]
            for receiver, payload in outbox.items():
                if receiver not in allowed:
                    raise ProtocolViolationError(
                        f"node {node} sent to non-neighbor {receiver}"
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
        for node in halted_now:
            del running[node]
        inboxes = next_inboxes
        if round_max > max_message_bits:
            max_message_bits = round_max
        # Trailing halt-only resumes are local computation, not a
        # communication round: a node that receives in round r and
        # then returns has round complexity r.
        if running or round_messages > 0:
            rounds += 1
            if record_rounds:
                per_round.append(
                    RoundMetrics(
                        round_index,
                        round_messages,
                        total_bits - round_bits0,
                        round_max,
                    )
                )
        round_index += 1

    metrics = RunMetrics(
        rounds=rounds,
        total_messages=total_messages,
        total_bits=total_bits,
        max_message_bits=max_message_bits,
        budget_bits=budget,
        violations=violations,
        worst_violation_bits=worst_violation_bits,
        per_round=per_round,
    )
    return RunResult(
        outputs=dict(outputs),
        metrics=metrics,
        halted=not running,
        stopped_early=stopped_early,
        programs=network.programs,
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
        result = run_generators(
            network,
            max_rounds=max_rounds,
            stop_when=stop_when,
            raise_on_timeout=raise_on_timeout,
            record_rounds=record_rounds,
        )
        if rec is not None:
            metrics = result.metrics
            rec.complete(
                "exec.run",
                trace_t0,
                {
                    "backend": self.name,
                    "rounds": metrics.rounds,
                    "messages": metrics.total_messages,
                    "bits": metrics.total_bits,
                    "halted": result.halted,
                },
            )
        return result
