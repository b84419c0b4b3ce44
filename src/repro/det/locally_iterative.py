"""Locally-iterative d2-coloring (Theorem B.4, Lemma B.3).

Given an input d2-coloring ψ with fewer than q² colors for a common
prime q ∈ (4Δ², 8Δ²) (Bertrand), every node maps ψ(v) to the
degree-≤1 polynomial p_v(x) = a_v + b_v·x over F_q with
a_v = ⌊ψ(v)/q⌋, b_v = ψ(v) mod q (footnote 5 of the paper).  In phase
i the node tries color p_v(i); distinct polynomials agree on ≤ 1
point, so each d2-neighbor blocks at most one phase while live and at
most one phase after adopting a constant (Lemma B.3) — at most 2Δ²
blocked phases, and q > 4Δ² phases are scheduled, so every node gets
colored with a color in [q] = O(Δ²).

The try itself is the shared 3-round primitive of
:mod:`repro.core.trying`, which implements exactly the paper's color
trial (immediate neighbors veto on behalf of the 2-hop neighborhood).
``color_in`` ships as a column beside the shared ``q``.
"""

from __future__ import annotations

from typing import Dict, Optional

import networkx as nx

from repro.congest.network import Network, column_inputs
from repro.congest.node import NodeContext, NodeProgram
from repro.congest.policy import BandwidthPolicy
from repro.core.trying import TryPhaseMixin, all_colored
from repro.graphs.square import max_degree
from repro.results import ColoringResult
from repro.util.fq import Poly1
from repro.util.primes import bertrand_prime


class LocallyIterativeProgram(TryPhaseMixin, NodeProgram):
    """One node of the locally-iterative scheme.

    ``ctx.data``: ``q`` (the common prime), ``color_in`` (input color
    < q²).  Tracks ``blocked_phases`` for the Lemma B.3 experiment.
    """

    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.init_tracker()
        self.q: int = ctx.data["q"]
        self.poly = Poly1.from_color(ctx.data["color_in"], self.q)
        self.blocked_phases = 0
        self.succeeded_phase: Optional[int] = None

    def run(self):
        for phase in range(self.q):
            candidate = self.poly(phase) if self.live else None
            adopted = yield from self.try_phase(candidate)
            if candidate is not None:
                if adopted:
                    self.succeeded_phase = phase
                elif self.live:
                    self.blocked_phases += 1
        return self.color


def locally_iterative_d2_coloring(
    graph: nx.Graph,
    color_in: Dict[int, int],
    palette_in: int,
    delta: Optional[int] = None,
    policy: Optional[BandwidthPolicy] = None,
    stop_early: bool = True,
) -> ColoringResult:
    """O(Δ²)-coloring of G² from an O(Δ⁴)-coloring in O(Δ²) rounds.

    ``stop_early`` ends the simulation once everyone is colored (the
    formal schedule is always 3q rounds; both numbers are reported).
    """
    if delta is None:
        delta = max_degree(graph)
    q = bertrand_prime(max(delta, 1))
    if palette_in > q * q:
        raise ValueError(
            f"input palette {palette_in} exceeds q² = {q * q}; run "
            "Linial first (Theorem B.1)"
        )
    inputs = column_inputs(graph, {"q": q}, color_in=color_in)
    network = Network(
        graph,
        LocallyIterativeProgram,
        policy=policy,
        delta=delta,
        inputs=inputs,
    )
    run = network.run(
        stop_when=all_colored if stop_early else None,
        raise_on_timeout=False,
        max_rounds=3 * q + 3,
    )
    coloring = network.node_colors()
    blocked = network.node_table("blocked_phases")
    return ColoringResult(
        algorithm="locally-iterative-d2",
        coloring=coloring,
        palette_size=q,
        rounds=run.metrics.rounds,
        metrics=run.metrics,
        params={
            "q": q,
            "scheduled_rounds": 3 * q,
            "max_blocked_phases": max(blocked.values(), default=0),
            "blocked_phases": blocked,
        },
    )
