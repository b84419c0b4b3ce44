"""Iterative color reduction on G² (Theorem B.2).

Input: a valid d2-coloring with palette c + k (c >= Δ(G²)+1).  In
each phase, every vertex whose color is >= c *and* strictly larger
than every color in its d2-neighborhood recolors itself with the
smallest color in [c] unused in its d2-neighborhood, then announces
the change two hops.  Two such vertices are never d2-adjacent (each
would need the strictly largest color in a neighborhood containing
the other), so the 2-hop announcement needs no queuing — the paper's
key observation making the reduction O(Δ + k) instead of O(Δ·k).

Every vertex must know the *multiset* of colors in its
d2-neighborhood, learned once in a bit-packed O(Δ) gather and then
maintained incrementally from the (congestion-free) announcements.

``color_in`` ships as a column beside the shared schedule
(:func:`~repro.congest.network.column_inputs`).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional

import networkx as nx

from repro.congest.network import Network, column_inputs
from repro.congest.node import NodeContext, NodeProgram
from repro.congest.pipelining import items_per_message
from repro.congest.policy import BandwidthPolicy
from repro.graphs.square import max_degree
from repro.results import ColoringResult

_TAG_COLOR = "C"
_TAG_GATHER = "G"
_TAG_RECOLOR = "X"
_TAG_FORWARD = "F"


class ColorReductionProgram(NodeProgram):
    """One node of the Theorem B.2 color reduction."""

    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.color: int = ctx.data["color_in"]
        self.target: int = ctx.data["target"]
        self.phases: int = ctx.data["phases"]
        self.gather_rounds: int = ctx.data["gather_rounds"]
        self.per_message: int = ctx.data["per_message"]
        self.d2_colors: Counter = Counter()
        self.recolored_in_phase: Optional[int] = None

    def run(self):
        neighbors = self.ctx.neighbors

        # --- setup: learn the d2-neighborhood color multiset --------
        inbox = yield self.broadcast((_TAG_COLOR, self.color))
        direct: Dict[int, int] = {
            sender: payload[1]
            for sender, payload in inbox.items()
            if payload[0] == _TAG_COLOR
        }
        self.d2_colors.update(direct.values())
        plans = {
            receiver: [
                color
                for sender, color in direct.items()
                if sender != receiver
            ]
            for receiver in neighbors
        }
        for chunk in range(self.gather_rounds):
            lo = chunk * self.per_message
            hi = lo + self.per_message
            outbox = {}
            for receiver, colors in plans.items():
                part = colors[lo:hi]
                if part:
                    outbox[receiver] = (_TAG_GATHER,) + tuple(part)
            inbox = yield outbox
            for payload in inbox.values():
                if payload[0] == _TAG_GATHER:
                    self.d2_colors.update(payload[1:])

        # --- phases: local maxima above the target recolor ----------
        # Announcements carry the originator so that (a) the origin
        # ignores forwards of its own event and (b) the multiset
        # bookkeeping stays exact: a d2-neighbor is counted once per
        # 2-path plus once if adjacent, and the forwards replay the
        # event with exactly that multiplicity.
        me = self.ctx.node
        for phase in range(self.phases):
            recolor = None
            if self.color >= self.target and all(
                self.color > other for other in self.d2_colors
            ):
                new_color = self._smallest_free()
                recolor = (_TAG_RECOLOR, me, self.color, new_color)
                self.color = new_color
                self.recolored_in_phase = phase
            inbox = yield (
                self.broadcast(recolor) if recolor else {}
            )

            # Forward any announcement one more hop; at most one can
            # arrive per phase (recoloring vertices are pairwise
            # non-d2-adjacent), so there is no queue.
            forward = None
            for payload in inbox.values():
                if payload[0] == _TAG_RECOLOR:
                    self._apply(payload[2], payload[3])
                    forward = (_TAG_FORWARD,) + payload[1:]
            inbox = yield (
                self.broadcast(forward) if forward else {}
            )
            for payload in inbox.values():
                if payload[0] == _TAG_FORWARD and payload[1] != me:
                    self._apply(payload[2], payload[3])
        return self.color

    def _apply(self, old: int, new: int) -> None:
        self.d2_colors[old] -= 1
        if self.d2_colors[old] <= 0:
            del self.d2_colors[old]
        self.d2_colors[new] += 1

    def _smallest_free(self) -> int:
        for color in range(self.target):
            if color not in self.d2_colors:
                return color
        raise AssertionError(
            "no free color in the target palette: target "
            f"{self.target} <= d2-degree {sum(self.d2_colors.values())}"
        )


def color_reduction_d2(
    graph: nx.Graph,
    color_in: Dict[int, int],
    palette_in: int,
    target: Optional[int] = None,
    delta: Optional[int] = None,
    policy: Optional[BandwidthPolicy] = None,
) -> ColoringResult:
    """Reduce a (c+k)-coloring of G² to a c-coloring (c = Δ²+1 by
    default) in O(Δ + k) rounds."""
    if delta is None:
        delta = max_degree(graph)
    policy = policy or BandwidthPolicy()
    if target is None:
        target = delta * delta + 1
    if palette_in < target:
        raise ValueError("input palette below target; nothing to do")
    phases = palette_in - target
    n = graph.number_of_nodes()
    budget = policy.budget_bits(n)
    color_bits = max(1, (palette_in - 1).bit_length())
    per_message = items_per_message(color_bits, budget)
    gather_rounds = max(1, -(-delta // per_message)) if delta else 0

    inputs = column_inputs(
        graph,
        {
            "target": target,
            "phases": phases,
            "gather_rounds": gather_rounds,
            "per_message": per_message,
        },
        color_in=color_in,
    )
    network = Network(
        graph,
        ColorReductionProgram,
        policy=policy,
        delta=delta,
        inputs=inputs,
    )
    run = network.run()
    return ColoringResult(
        algorithm="color-reduction-d2",
        coloring=network.node_colors(),
        palette_size=target,
        rounds=run.metrics.rounds,
        metrics=run.metrics,
        params={
            "phases": phases,
            "gather_rounds": gather_rounds,
        },
    )
