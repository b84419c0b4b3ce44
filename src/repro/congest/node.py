"""Node programs: per-node protocol logic as Python generators.

A node program's :meth:`NodeProgram.run` is a generator.  Each
``yield outbox`` ends the node's current round; the value the ``yield``
expression evaluates to is the node's inbox for the next round::

    class Example(NodeProgram):
        def run(self):
            inbox = yield {v: ("hello", self.ctx.node)
                           for v in self.ctx.neighbors}
            ...
            return my_output          # halts the node

The outbox is either a dict ``{neighbor: payload}`` (omitted neighbors
receive nothing) or :class:`~repro.congest.message.Broadcast`.
Returning from the generator halts the node; the returned value is the
node's output collected by the network.

Multi-round sub-protocols compose with ``yield from``: a helper
generator that yields outboxes and finally returns a value can be
embedded in a larger protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.congest.message import Broadcast
from repro.congest.rng import CounterRandom


@dataclass
class NodeContext:
    """Everything a node is allowed to know at the start of a protocol.

    Matches the paper's model assumptions: a node knows its own
    O(log n)-bit ID, its immediate neighbors' IDs (learnable in one
    round), and the global parameters ``n`` and ``delta`` (the paper
    assumes Delta is known, Sec. 2.6).
    """

    node: int
    neighbors: Tuple[int, ...]
    n: int
    delta: int
    rng: CounterRandom
    #: Per-node protocol input (e.g. an initial coloring); never shared.
    data: Dict[str, Any] = field(default_factory=dict)

    @property
    def degree(self) -> int:
        return len(self.neighbors)


class NodeProgram:
    """Base class for per-node protocols.

    Subclasses implement :meth:`run` as a generator.  Instances are
    single-use: one instance drives one node for one network execution.
    """

    def __init__(self, ctx: NodeContext):
        self.ctx = ctx

    def run(self):
        """Generator body of the protocol (must be overridden)."""
        raise NotImplementedError

    # -- small conveniences shared by all protocols -------------------

    def broadcast(self, payload: Any) -> Broadcast:
        """Outbox value sending ``payload`` to every neighbor."""
        return Broadcast(payload)

    def idle(self, rounds: int = 1):
        """Sub-protocol: stay silent for ``rounds`` rounds.

        Returns the last inbox received (useful when a node waits for
        a scheduled phase boundary).
        """
        inbox = {}
        for _ in range(rounds):
            inbox = yield {}
        return inbox


class FunctionProgram(NodeProgram):
    """Adapter turning a generator function into a node program.

    ``Network(graph, FunctionProgram.factory(fn))`` runs ``fn(ctx)``
    at every node; handy for tests and one-off protocols.
    """

    def __init__(self, ctx: NodeContext, fn):
        super().__init__(ctx)
        self._fn = fn

    def run(self):
        return (yield from self._fn(self.ctx))

    @staticmethod
    def factory(fn):
        def make(ctx: NodeContext) -> "FunctionProgram":
            return FunctionProgram(ctx, fn)

        return make
