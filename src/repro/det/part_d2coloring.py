"""Part-parallel d2-coloring of the subgraphs H_i = G²[V_i]
(Lemma 3.5), used by the Theorem 1.3 pipeline.

All parts run the Appendix-B chain *simultaneously* on the shared
network:

- colors are offset per part from the start (part i uses
  [i·q, i·q + q)), so tries from different parts can never collide
  and the plain verdict-checked try primitive stays sound;
- the locally-iterative stage needs no relaying at all, hence no
  overhead from parallelism;
- the color-reduction stage relays, per edge and per receiver v,
  only the colors of same-part neighbors of the middle node — at most
  Δ_h items by the splitting guarantee, which is exactly the O(Δ_h)
  relay bound of Lemma 3.5.

Within part i, Lemma B.3 applies verbatim with conflict degree
D = Δ·Δ_h (the max degree of H_i): any same-part d2-neighbor blocks
at most 2 of the q > 4D phases.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.congest.network import Network, column_inputs
from repro.congest.node import NodeContext, NodeProgram
from repro.congest.pipelining import items_per_message
from repro.congest.policy import BandwidthPolicy
from repro.core.trying import TryPhaseMixin, all_colored
from repro.det.g_coloring import prime_between
from repro.det.linial import linial_d2_coloring
from repro.graphs.square import max_degree
from repro.results import ColoringResult
from repro.util.fq import Poly1

_TAG_COLOR = "C"
_TAG_GATHER = "G"
_TAG_RECOLOR = "X"
_TAG_FORWARD = "F"


class PartLocallyIterativeD2(TryPhaseMixin, NodeProgram):
    """Locally-iterative d2-coloring with part-offset palettes."""

    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.init_tracker()
        self.q: int = ctx.data["q"]
        self.part: int = ctx.data["part"]
        self.offset = self.part * self.q
        self.poly = Poly1.from_color(ctx.data["color_in"], self.q)
        self.blocked_phases = 0

    def run(self):
        for phase in range(self.q):
            candidate = None
            if self.live:
                candidate = self.offset + self.poly(phase)
            adopted = yield from self.try_phase(candidate)
            if candidate is not None and not adopted and self.live:
                self.blocked_phases += 1
        return self.color


class PartColorReductionD2(NodeProgram):
    """Per-part color reduction with Δ_h-bounded relays."""

    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.part: int = ctx.data["part"]
        self.q: int = ctx.data["q"]
        self.offset = self.part * self.q
        self.local: int = ctx.data["color_in"] - self.offset
        self.target: int = ctx.data["target"]
        self.phases: int = ctx.data["phases"]
        self.gather_rounds: int = ctx.data["gather_rounds"]
        self.forward_rounds: int = ctx.data["forward_rounds"]
        self.per_message: int = ctx.data["per_message"]
        #: multiset of same-part d2 local colors (counted per route).
        self.d2_local: Dict[int, int] = {}

    def _apply(self, old_local: int, new_local: int) -> None:
        self.d2_local[old_local] = self.d2_local.get(old_local, 0) - 1
        if self.d2_local[old_local] <= 0:
            del self.d2_local[old_local]
        self.d2_local[new_local] = (
            self.d2_local.get(new_local, 0) + 1
        )

    def run(self):
        ctx = self.ctx
        neighbors = ctx.neighbors
        me = ctx.node

        # Round 0: broadcast (local color, part).
        inbox = yield self.broadcast(
            (_TAG_COLOR, self.local, self.part)
        )
        direct: Dict[int, Tuple[int, int]] = {
            sender: (payload[1], payload[2])
            for sender, payload in inbox.items()
            if payload[0] == _TAG_COLOR
        }
        for _sender, (local, part) in direct.items():
            if part == self.part:
                self.d2_local[local] = (
                    self.d2_local.get(local, 0) + 1
                )

        # Gather: relay same-part-of-receiver colors (<= Δ_h items).
        plans = {}
        for receiver in neighbors:
            recv_part = direct.get(receiver, (0, -1))[1]
            plans[receiver] = [
                local
                for sender, (local, part) in direct.items()
                if sender != receiver and part == recv_part
            ]
        for chunk in range(self.gather_rounds):
            lo = chunk * self.per_message
            hi = lo + self.per_message
            outbox = {}
            for receiver, colors in plans.items():
                piece = colors[lo:hi]
                if piece:
                    outbox[receiver] = (_TAG_GATHER,) + tuple(piece)
            inbox = yield outbox
            for payload in inbox.values():
                if payload[0] == _TAG_GATHER:
                    for local in payload[1:]:
                        self.d2_local[local] = (
                            self.d2_local.get(local, 0) + 1
                        )

        # Phases: per part, local maxima above the target recolor.
        # One announce round, then forward_rounds relay rounds (one
        # eligible recolorer per part per d2-neighborhood, but up to
        # min(deg, parts) distinct parts per middle — chunked).
        nbr_parts = {
            sender: part for sender, (_l, part) in direct.items()
        }
        for _phase in range(self.phases):
            announce = None
            if self.local >= self.target and all(
                self.local > other for other in self.d2_local
            ):
                new_local = next(
                    c
                    for c in range(self.target)
                    if c not in self.d2_local
                )
                announce = (
                    _TAG_RECOLOR,
                    me,
                    self.part,
                    self.local,
                    new_local,
                )
                self.local = new_local
            inbox = yield (
                self.broadcast(announce) if announce else {}
            )
            to_forward: List[tuple] = []
            for payload in inbox.values():
                if payload[0] == _TAG_RECOLOR:
                    _t, origin, part, old, new = payload
                    if part == self.part:
                        self._apply(old, new)
                    to_forward.append(
                        (_TAG_FORWARD, origin, part, old, new)
                    )
            for chunk in range(self.forward_rounds):
                batch = to_forward[:2]
                to_forward = to_forward[2:]
                outbox = {}
                if batch:
                    flat: List[int] = []
                    for item in batch:
                        flat.extend(item[1:])
                    payload = (_TAG_FORWARD,) + tuple(flat)
                    inbox = yield self.broadcast(payload)
                else:
                    inbox = yield {}
                for payload in inbox.values():
                    if payload and payload[0] == _TAG_FORWARD:
                        flat = payload[1:]
                        for base in range(0, len(flat), 4):
                            origin, part, old, new = flat[
                                base : base + 4
                            ]
                            if (
                                part == self.part
                                and origin != me
                            ):
                                self._apply(old, new)
        return self.offset_final()

    def offset_final(self) -> int:
        return self.part * self.target + self.local


def part_d2_coloring(
    graph: nx.Graph,
    parts: Dict[int, int],
    part_d2_degree: int,
    num_parts: int,
    delta: Optional[int] = None,
    policy: Optional[BandwidthPolicy] = None,
) -> ColoringResult:
    """Color every H_i = G²[V_i] in parallel with disjoint palettes.

    ``part_d2_degree`` bounds the degree of every H_i (≤ Δ·Δ_h).
    Output palette: num_parts · (part_d2_degree + 1).
    """
    if delta is None:
        delta = max_degree(graph)
    policy = policy or BandwidthPolicy()
    n = graph.number_of_nodes()
    budget = policy.budget_bits(n)
    d_part = max(1, part_d2_degree)
    q = prime_between(4 * d_part, 8 * d_part)
    target = d_part + 1

    # Stage 1: per-part Linial (conflicts within parts only).
    linial = linial_d2_coloring(
        graph,
        delta=delta,
        policy=policy,
        parts=parts,
        conflict_degree=d_part,
    )
    if linial.palette_size > q * q:
        raise AssertionError(
            f"part-Linial palette {linial.palette_size} > q²={q * q}"
        )

    # Stage 2: part-offset locally-iterative (palette q per part).
    inputs = column_inputs(
        graph, {"q": q}, part=parts, color_in=linial.coloring
    )
    net = Network(
        graph,
        PartLocallyIterativeD2,
        policy=policy,
        delta=delta,
        inputs=inputs,
    )
    run_li = net.run(
        stop_when=all_colored,
        raise_on_timeout=False,
        max_rounds=3 * q + 3,
    )
    li_coloring = net.node_colors()
    blocked = net.node_table("blocked_phases")
    if any(c is None for c in li_coloring.values()):
        raise AssertionError(
            "part locally-iterative left nodes uncolored"
        )

    # Stage 3: per-part reduction q -> target with bounded relays.
    color_bits = max(1, (q - 1).bit_length())
    per_message = items_per_message(color_bits, budget)
    gather_rounds = max(1, -(-d_part // per_message))
    forward_slots = min(delta, num_parts)
    forward_rounds = max(1, -(-forward_slots // 2))
    inputs = column_inputs(
        graph,
        {
            "q": q,
            "target": target,
            "phases": max(0, q - target),
            "gather_rounds": gather_rounds,
            "forward_rounds": forward_rounds,
            "per_message": per_message,
        },
        part=parts,
        color_in=li_coloring,
    )
    net2 = Network(
        graph,
        PartColorReductionD2,
        policy=policy,
        delta=delta,
        inputs=inputs,
    )
    run_cr = net2.run()

    result = ColoringResult(
        algorithm="part-d2-coloring",
        coloring=dict(run_cr.outputs),
        palette_size=num_parts * target,
        rounds=0,
        params={
            "q": q,
            "part_d2_degree": d_part,
            "target_per_part": target,
            "max_blocked_phases": max(blocked.values(), default=0),
        },
    )
    result.add_phase("part-linial", linial.rounds, linial.metrics)
    result.add_phase(
        "part-locally-iterative",
        run_li.metrics.rounds,
        run_li.metrics,
    )
    result.add_phase(
        "part-color-reduction",
        run_cr.metrics.rounds,
        run_cr.metrics,
    )
    return result
