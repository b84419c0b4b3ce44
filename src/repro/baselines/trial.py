"""The random-trial baseline (Sec. 2.1 and Step 2 of d2-Color).

Every live node repeatedly tries a uniformly random color from the
whole palette.  With (1+ε)Δ² colors this alone finishes in
O(log_{1/ε} n) phases (experiment E16); with Δ²+1 colors it is the
slow strawman whose acceleration is the paper's main contribution.
"""

from __future__ import annotations

import math
from typing import Optional

import networkx as nx

from repro.congest.network import Network, UniformInputs
from repro.congest.node import NodeContext, NodeProgram
from repro.congest.policy import BandwidthPolicy
from repro.core.trying import TryPhaseMixin, all_colored
from repro.graphs.square import max_degree
from repro.results import ColoringResult


class TrialProgram(TryPhaseMixin, NodeProgram):
    """Try a uniform random palette color until colored.

    ``ctx.data['palette']`` is the palette size; an optional
    ``ctx.data['color']`` precolors the node.  Colored nodes keep
    serving verdicts for their neighbors (the simulation stops them
    globally once everyone is colored).
    """

    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.init_tracker(ctx.data.get("color"))
        self.palette = ctx.data["palette"]
        self.avoid_known = ctx.data.get("avoid_known", False)
        self.phases_tried = 0

    def _candidate(self) -> Optional[int]:
        if not self.live:
            return None
        self.phases_tried += 1
        if self.avoid_known:
            known = set(self.nbr_colors.values())
            free = [c for c in range(self.palette) if c not in known]
            if free:
                return self.ctx.rng.choice(free)
        return self.ctx.rng.randrange(self.palette)

    def run(self):
        while True:
            yield from self.try_phase(self._candidate())


def trial_d2_color(
    graph: nx.Graph,
    seed: int = 0,
    eps: float = 0.0,
    avoid_known: bool = False,
    delta: Optional[int] = None,
    policy: Optional[BandwidthPolicy] = None,
    max_rounds: int = 200_000,
) -> ColoringResult:
    """Run the trial baseline with palette ``(1+eps)Δ² + 1`` colors.

    ``eps = 0`` gives the paper's Δ²+1 palette.
    """
    if delta is None:
        delta = max_degree(graph)
    palette = math.floor((1.0 + eps) * delta * delta) + 1
    inputs = UniformInputs(
        graph.nodes,
        {"palette": palette, "avoid_known": avoid_known},
    )
    network = Network(
        graph,
        TrialProgram,
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
    coloring = network.node_colors()
    return ColoringResult(
        algorithm=f"trial(eps={eps})",
        coloring=coloring,
        palette_size=palette,
        rounds=run.metrics.rounds,
        metrics=run.metrics,
        params={"eps": eps, "avoid_known": avoid_known, "seed": seed},
    )
