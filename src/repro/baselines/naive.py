"""The naive approach the paper argues against (Sec. 1).

"In general, simulating a single CONGEST round on G² requires Ω(Δ)
CONGEST rounds on G."  This module implements exactly that strawman:
Johansson's random (deg+1)-coloring run on G², with each G² round
simulated by explicitly relaying every neighbor's state across every
edge.  Relays are packed into O(log n)-bit messages as tightly as the
bandwidth policy allows, so the per-phase cost is
``ceil(Δ / items_per_message)`` — the Θ(Δ) information bottleneck
appears as soon as Δ exceeds the per-message packing factor
(experiment E14 runs with a tight budget to expose it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import networkx as nx

from repro.congest.network import Network, UniformInputs
from repro.congest.node import NodeContext, NodeProgram
from repro.congest.pipelining import items_per_message
from repro.congest.policy import BandwidthPolicy
from repro.core.trying import all_colored, coloring_from_programs
from repro.graphs.square import max_degree
from repro.results import ColoringResult

_TAG_STATUS = "S"
_TAG_RELAY = "R"
_TAG_RESULT = "F"

#: Status codes multiplexed with the color value.
_LIVE = 0
_COLORED = 1


class NaiveProgram(NodeProgram):
    """One node of the naive G²-simulation coloring.

    Phase layout (globally scheduled, all nodes in lockstep):

    1. one round: broadcast own status ``(S, kind, value)`` where kind
       is live-with-proposal or colored-with-color;
    2. ``relay_rounds`` rounds: forward every neighbor's status to
       every other neighbor, packed;
    3. one round: broadcast whether the proposal succeeded, so
       neighbors update their color tables.
    """

    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.color: Optional[int] = ctx.data.get("color")
        self.palette: int = ctx.data["palette"]
        self.relay_rounds: int = ctx.data["relay_rounds"]
        self.known_used: Set[int] = set()
        self.nbr_colors: Dict[int, int] = {}

    def _proposal(self) -> Optional[int]:
        if self.color is not None:
            return None
        blocked = self.known_used | set(self.nbr_colors.values())
        free = [c for c in range(self.palette) if c not in blocked]
        if not free:
            # Cannot happen with palette > d2-degree, but stay safe.
            return self.ctx.rng.randrange(self.palette)
        return self.ctx.rng.choice(free)

    def run(self):
        neighbors = self.ctx.neighbors
        while True:
            # --- 1. status broadcast --------------------------------
            proposal = self._proposal()
            if self.color is not None:
                status = (_TAG_STATUS, _COLORED, self.color)
            else:
                status = (_TAG_STATUS, _LIVE, proposal)
            inbox = yield {v: status for v in neighbors}

            statuses: Dict[int, tuple] = {}
            for sender, payload in inbox.items():
                if payload[0] == _TAG_STATUS:
                    statuses[sender] = (payload[1], payload[2])

            # --- 2. relay every neighbor's status to the others -----
            # For receiver v we forward the statuses of all neighbors
            # except v itself (v knows its own state; echoing it back
            # would create false conflicts).
            plans: Dict[int, List[tuple]] = {}
            for receiver in neighbors:
                items = [
                    (kind, value)
                    for sender, (kind, value) in statuses.items()
                    if sender != receiver
                ]
                plans[receiver] = items
            per_message = self.ctx.data["per_message"]
            seen_proposals: List[int] = []
            seen_colors: List[int] = []
            for chunk_index in range(self.relay_rounds):
                outbox = {}
                lo = chunk_index * per_message
                hi = lo + per_message
                for receiver, items in plans.items():
                    chunk = items[lo:hi]
                    if chunk:
                        flat = []
                        for kind, value in chunk:
                            flat.extend((kind, value))
                        outbox[receiver] = (_TAG_RELAY,) + tuple(flat)
                inbox = yield outbox
                for payload in inbox.values():
                    if payload[0] != _TAG_RELAY:
                        continue
                    flat = payload[1:]
                    for index in range(0, len(flat), 2):
                        kind, value = flat[index], flat[index + 1]
                        if kind == _COLORED:
                            seen_colors.append(value)
                        else:
                            seen_proposals.append(value)

            # Direct neighbors' statuses count as distance-1 info.
            for kind, value in statuses.values():
                if kind == _COLORED:
                    seen_colors.append(value)
                else:
                    seen_proposals.append(value)

            # --- 3. resolve and announce ----------------------------
            adopted = False
            if self.color is None and proposal is not None:
                conflict = (
                    proposal in seen_colors
                    or proposal in seen_proposals
                )
                if not conflict:
                    self.color = proposal
                    adopted = True
            self.known_used.update(seen_colors)
            inbox = yield {
                v: (_TAG_RESULT, adopted, self.color if adopted else 0)
                for v in neighbors
            }
            for sender, payload in inbox.items():
                if payload[0] == _TAG_RESULT and payload[1]:
                    self.nbr_colors[sender] = payload[2]


def naive_congest_d2_color(
    graph: nx.Graph,
    seed: int = 0,
    delta: Optional[int] = None,
    policy: Optional[BandwidthPolicy] = None,
    max_rounds: int = 500_000,
) -> ColoringResult:
    """Run the naive G²-simulation coloring with palette Δ²+1."""
    if delta is None:
        delta = max_degree(graph)
    policy = policy or BandwidthPolicy()
    palette = delta * delta + 1
    n = graph.number_of_nodes()
    budget = policy.budget_bits(n)
    # Each relayed item is (kind, color): ~2 + color bits, packed.
    color_bits = max(1, (palette - 1).bit_length()) + 4
    per_message = items_per_message(color_bits, budget)
    relay_rounds = max(1, -(-delta // per_message))
    inputs = UniformInputs(
        graph.nodes,
        {
            "palette": palette,
            "relay_rounds": relay_rounds,
            "per_message": per_message,
        },
    )
    network = Network(
        graph,
        NaiveProgram,
        seed=seed,
        policy=policy,
        delta=delta,
        inputs=inputs,
    )
    run = network.run(
        max_rounds=max_rounds,
        stop_when=all_colored,
        raise_on_timeout=False,
    )
    coloring = coloring_from_programs(network.programs)
    return ColoringResult(
        algorithm="naive-g2-simulation",
        coloring=coloring,
        palette_size=palette,
        rounds=run.metrics.rounds,
        metrics=run.metrics,
        params={
            "seed": seed,
            "relay_rounds_per_phase": relay_rounds,
            "per_message": per_message,
        },
    )
