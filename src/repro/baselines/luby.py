"""Distance-k maximal independent set via random priorities.

Sec. 1 of the paper: "The distance-k maximal independent set problem
can easily be solved in O(k log n) time using Luby's algorithm."  Each
phase, live nodes draw a random O(log n)-bit priority; a node joins
the MIS when it holds the strict maximum priority among live nodes
within distance k (computable by k rounds of max-flooding), and nodes
within distance k of a new MIS member retire.  Experiment E17 checks
the O(k log n) round scaling.
"""

from __future__ import annotations

from typing import Optional, Set

import networkx as nx

from repro.congest.network import Network, UniformInputs
from repro.congest.node import NodeContext, NodeProgram
from repro.congest.policy import BandwidthPolicy

_TAG_RANK = "K"
_TAG_DOM = "D"

_STATE_LIVE = "live"
_STATE_IN_MIS = "in_mis"
_STATE_DOMINATED = "dominated"


class LubyDistanceKProgram(NodeProgram):
    """One node of the distance-k MIS protocol."""

    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.k: int = ctx.data["k"]
        self.state = _STATE_LIVE
        self.phases = 0

    def _draw_rank(self) -> int:
        # rank * n + id: distinct total order even on rank collisions.
        n = self.ctx.n
        return self.ctx.rng.randrange(n**3) * n + self.ctx.node

    def run(self):
        k = self.k
        while True:
            self.phases += 1
            # --- max-flooding of ranks for k rounds ------------------
            own_rank = self._draw_rank() if self.state == _STATE_LIVE else -1
            best = own_rank
            for _ in range(k):
                inbox = yield self.broadcast((_TAG_RANK, best))
                for payload in inbox.values():
                    if payload and payload[0] == _TAG_RANK:
                        best = max(best, payload[1])
            joined = (
                self.state == _STATE_LIVE and best == own_rank
            )
            if joined:
                self.state = _STATE_IN_MIS

            # --- dominate the k-ball around new MIS members ----------
            hops = k if joined else 0
            for _ in range(k):
                outbox = (
                    self.broadcast((_TAG_DOM, hops))
                    if hops > 0
                    else {}
                )
                inbox = yield outbox
                incoming = [
                    payload[1]
                    for payload in inbox.values()
                    if payload and payload[0] == _TAG_DOM
                ]
                if incoming:
                    if self.state == _STATE_LIVE:
                        self.state = _STATE_DOMINATED
                    hops = max([hops] + [h - 1 for h in incoming])
                elif not joined:
                    hops = 0


def _all_decided(network, _round) -> bool:
    return all(
        program.state != _STATE_LIVE
        for program in network.programs.values()
    )


def luby_distance_k_mis(
    graph: nx.Graph,
    k: int = 2,
    seed: int = 0,
    policy: Optional[BandwidthPolicy] = None,
    max_rounds: int = 100_000,
):
    """Compute a distance-k MIS; returns ``(mis_set, rounds, metrics)``."""
    network = Network(
        graph,
        LubyDistanceKProgram,
        seed=seed,
        policy=policy,
        inputs=UniformInputs(graph.nodes, {"k": k}),
    )
    run = network.run(
        max_rounds=max_rounds,
        stop_when=_all_decided,
        raise_on_timeout=False,
    )
    mis: Set[int] = {
        node
        for node, state in network.node_table("state").items()
        if state == _STATE_IN_MIS
    }
    return mis, run.metrics.rounds, run.metrics


def check_distance_k_mis(graph: nx.Graph, mis: Set[int], k: int) -> bool:
    """Independence at distance k plus domination within distance k."""
    lengths = dict(nx.all_pairs_shortest_path_length(graph, cutoff=k))
    for u in mis:
        for v in mis:
            if u < v and v in lengths.get(u, {}):
                return False
    for v in graph.nodes:
        if v in mis:
            continue
        if not any(m in lengths.get(v, {}) for m in mis):
            return False
    return True
