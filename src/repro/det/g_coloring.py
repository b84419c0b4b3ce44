"""Deterministic (Δ+1)-coloring of G — the [7]-style substrate.

Theorem 3.4 colors each part of the recursive splitting with a
(Δ_h+1)-coloring algorithm "e.g. the algorithm of [7]" (Barenboim,
Elkin, Goldenberg).  We build the same pipeline the paper uses on G²
(Appendix B), specialized to distance 1:

1. Linial on G: IDs → O(Δ²) colors in O(log* n) rounds;
2. locally-iterative: O(Δ²) → q ∈ (4Δ, 8Δ) colors in O(Δ) phases,
   via degree-≤1 polynomials over F_q (the distance-1 Lemma B.3:
   every neighbor blocks ≤ 2 phases, and q > 4Δ ≥ 2·deg + 1);
3. color reduction: q → Δ+1 colors in O(q - Δ) phases.

The try primitive at distance 1 is lighter than the d2 one: a node
sees its neighbors' tries directly, so a phase is 2 rounds (try,
adopt) with the conflict check local.

Parts: every function takes an optional ``parts`` map (node → group
id).  With parts, conflicts only count within the same group and all
groups run concurrently — the parallel coloring step of Theorem 3.4
(parts are vertex-disjoint, so no relaying or extra congestion is
needed at distance 1).
"""

from __future__ import annotations

from typing import Dict, Optional

import networkx as nx

from repro.congest.network import Network, column_inputs
from repro.congest.node import NodeContext, NodeProgram
from repro.congest.policy import BandwidthPolicy
from repro.det.linial import linial_g_coloring
from repro.graphs.square import max_degree
from repro.results import ColoringResult
from repro.util.fq import Poly1
from repro.util.primes import next_prime_at_least

_TAG_TRY = "t"
_TAG_ADOPT = "a"
_TAG_COLOR = "c"
_TAG_RECOLOR = "x"


def prime_between(low: int, high: int) -> int:
    """Smallest prime in (low, high); exists for high >= 2·low by
    Bertrand's postulate."""
    q = next_prime_at_least(low + 1)
    if q >= high:
        raise ArithmeticError(f"no prime in ({low}, {high})")
    return q


class _G1Program(NodeProgram):
    """Shared state for the distance-1 phases."""

    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.part = ctx.data.get("part", 0)
        self.nbr_parts: Dict[int, int] = {}
        self.nbr_colors: Dict[int, int] = {}
        self.color: Optional[int] = None

    def _same_part(self, node: int) -> bool:
        return self.nbr_parts.get(node, 0) == self.part

    def learn_parts(self):
        inbox = yield self.broadcast(("p", self.part))
        self.nbr_parts = {
            sender: payload[1]
            for sender, payload in inbox.items()
            if payload[0] == "p"
        }

    def try_g_phase(self, candidate: Optional[int]):
        """2-round distance-1 try: broadcast, resolve, announce."""
        if candidate is not None:
            inbox = yield self.broadcast((_TAG_TRY, candidate))
        else:
            inbox = yield {}
        conflict = False
        if candidate is not None:
            for sender, payload in inbox.items():
                if not self._same_part(sender):
                    continue
                if payload[0] == _TAG_TRY and payload[1] == candidate:
                    conflict = True
                    break
            if not conflict and candidate in {
                color
                for nbr, color in self.nbr_colors.items()
                if self._same_part(nbr)
            }:
                conflict = True
        adopted = candidate is not None and not conflict
        if adopted:
            self.color = candidate
            inbox = yield self.broadcast((_TAG_ADOPT, candidate))
        else:
            inbox = yield {}
        for sender, payload in inbox.items():
            if payload[0] == _TAG_ADOPT:
                self.nbr_colors[sender] = payload[1]
        return adopted


class LocallyIterativeGProgram(_G1Program):
    """Phases of trying p_v(i) over F_q at distance 1."""

    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.q: int = ctx.data["q"]
        self.poly = Poly1.from_color(ctx.data["color_in"], self.q)
        self.blocked_phases = 0

    def run(self):
        yield from self.learn_parts()
        for phase in range(self.q):
            candidate = (
                self.poly(phase) if self.color is None else None
            )
            adopted = yield from self.try_g_phase(candidate)
            if candidate is not None and not adopted:
                self.blocked_phases += 1
        return self.color


class ColorReductionGProgram(_G1Program):
    """Iterative reduction to target colors at distance 1."""

    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.color = ctx.data["color_in"]
        self.target: int = ctx.data["target"]
        self.phases: int = ctx.data["phases"]

    def run(self):
        yield from self.learn_parts()
        inbox = yield self.broadcast((_TAG_COLOR, self.color))
        for sender, payload in inbox.items():
            if payload[0] == _TAG_COLOR:
                self.nbr_colors[sender] = payload[1]
        for _phase in range(self.phases):
            same_part_colors = {
                color
                for nbr, color in self.nbr_colors.items()
                if self._same_part(nbr)
            }
            announce = None
            if self.color >= self.target and all(
                self.color > c for c in same_part_colors
            ):
                new_color = next(
                    c
                    for c in range(self.target)
                    if c not in same_part_colors
                )
                announce = (_TAG_RECOLOR, new_color)
                self.color = new_color
            inbox = yield (
                self.broadcast(announce) if announce else {}
            )
            for sender, payload in inbox.items():
                if payload[0] == _TAG_RECOLOR:
                    self.nbr_colors[sender] = payload[1]
        return self.color


def deg_plus_one_coloring_g(
    graph: nx.Graph,
    delta: Optional[int] = None,
    policy: Optional[BandwidthPolicy] = None,
    parts: Optional[Dict[int, int]] = None,
    part_delta: Optional[int] = None,
    target: Optional[int] = None,
) -> ColoringResult:
    """(Δ+1)-coloring of G (or (Δ_h+1) per part) deterministically.

    With ``parts``, conflicts are confined to same-part neighbors and
    ``part_delta`` bounds the per-part degree; the resulting colors
    are *local* (offset them per part for a disjoint-palette union).
    """
    if delta is None:
        delta = max_degree(graph)
    eff_delta = part_delta if part_delta is not None else delta
    eff_delta = max(eff_delta, 1)
    if target is None:
        target = eff_delta + 1

    # Stage 1: Linial on G, with conflicts confined to same-part
    # neighbors so that the fixed-point palette is O(Δ_h²), matching
    # the locally-iterative stage's q² bound.
    linial = linial_g_coloring(
        graph,
        delta=delta,
        policy=policy,
        parts=parts,
        conflict_degree=eff_delta,
    )

    # Stage 2: locally-iterative down to q ∈ (4Δ_h, 8Δ_h).
    q = prime_between(4 * eff_delta, 8 * eff_delta)
    if linial.palette_size > q * q:
        raise AssertionError(
            "Linial fixed point exceeded the locally-iterative "
            f"bound: {linial.palette_size} > {q * q}"
        )
    inputs = column_inputs(
        graph, {"q": q}, color_in=linial.coloring, part=parts
    )
    net = Network(
        graph,
        LocallyIterativeGProgram,
        policy=policy,
        delta=delta,
        inputs=inputs,
    )
    run_li = net.run()
    li_coloring = dict(run_li.outputs)
    blocked = {
        v: p.blocked_phases for v, p in net.programs.items()
    }

    # Stage 3: reduce q -> target.
    inputs = column_inputs(
        graph,
        {"target": target, "phases": max(0, q - target)},
        color_in=li_coloring,
        part=parts,
    )
    net2 = Network(
        graph,
        ColorReductionGProgram,
        policy=policy,
        delta=delta,
        inputs=inputs,
    )
    run_cr = net2.run()

    result = ColoringResult(
        algorithm="deg-plus-one-g" if parts is None else "parts-g",
        coloring=dict(run_cr.outputs),
        palette_size=target,
        rounds=0,
        params={
            "q": q,
            "max_blocked_phases": max(blocked.values(), default=0),
        },
    )
    result.add_phase("linial-g", linial.rounds, linial.metrics)
    result.add_phase(
        "locally-iterative-g", run_li.metrics.rounds, run_li.metrics
    )
    result.add_phase(
        "color-reduction-g", run_cr.metrics.rounds, run_cr.metrics
    )
    return result
