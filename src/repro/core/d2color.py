"""The top-level randomized algorithms.

- :func:`basic_d2_color` — Algorithm ``d2-Color`` (Sec. 2.2):
  similarity graphs, c0·log n random trials, the Reduce ladder, and a
  final Reduce(c2·log n, 1).  Corollary 2.1: O(log³ n) rounds.
- :func:`improved_d2_color` — ``Improved-d2-Color`` (Sec. 2.6):
  random trials, similarity graphs, the Reduce ladder, then
  LearnPalette + FinishColoring.  Theorem 1.1: O(log Δ·log n) rounds.

Both fall back to the deterministic algorithm when Δ² < c2·log n
(Step 0 of the paper), and both always produce a *valid* coloring
with Δ²+1 colors: every adoption, in every phase, goes through the
verdict-checked try primitive.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx

from repro.congest.network import Network, UniformInputs
from repro.congest.policy import BandwidthPolicy
from repro.congest.node import NodeContext, NodeProgram
from repro.core.constants import Constants
from repro.core.finish import FinishMixin, forward_batch_size
from repro.core.learn_palette import (
    LearnPaletteConfig,
    LearnPaletteMixin,
)
from repro.core.reduce import ReduceMixin, ReduceStats
from repro.core.sampling import filter_width
from repro.core.similarity import SimilarityConfig, SimilarityMixin
from repro.core.trying import all_colored
from repro.graphs.square import max_degree
from repro.obs import trace as obs_trace
from repro.results import ColoringResult, PhaseResult


class RandomizedD2Program(
    SimilarityMixin,
    ReduceMixin,
    LearnPaletteMixin,
    FinishMixin,
    NodeProgram,
):
    """One node of d2-Color / Improved-d2-Color."""

    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        data = ctx.data
        self.constants: Constants = data["constants"]
        self.palette: int = data["palette"]
        self.variant: str = data["variant"]
        self.sim_config: SimilarityConfig = data["sim_config"]
        self.ladder = data["ladder"]
        self.initial_trials: int = data["initial_trials"]
        self.lottery_filter_bits: int = data["lottery_filter_bits"]
        self.learn_config: Optional[LearnPaletteConfig] = data.get(
            "learn_config"
        )
        self.forward_per_round: int = data.get("forward_per_round", 1)
        self.init_tracker()
        self.reduce_stats = ReduceStats()
        self.similarity = None
        self.free_colors = None
        self.phase_log = []
        #: The phase this node is in (set on entry).  A run that ends
        #: before the phase completes books its unlogged rounds to it.
        self.phase = "trials" if self.variant == "improved" else "similarity"

    # ------------------------------------------------------------------

    def _tracked(self, name: str, sub):
        """Delegate to a sub-protocol while counting its rounds."""
        self.phase = name
        rounds = 0
        try:
            outbox = sub.send(None)
            while True:
                rounds += 1
                inbox = yield outbox
                outbox = sub.send(inbox)
        except StopIteration as stop:
            self.phase_log.append((name, rounds))
            return stop.value

    def _random_trials(self):
        for _ in range(self.initial_trials):
            candidate = None
            if self.live:
                candidate = self.ctx.rng.randrange(self.palette)
            yield from self.try_phase(candidate)

    def _ladder(self):
        for phi, tau in self.ladder:
            yield from self.reduce(phi, tau)

    def _final_reduce_forever(self):
        floor = max(1.0, self.constants.tau_floor(self.ctx.n))
        while True:
            yield from self.reduce(floor, 1.0)

    def _trials_section(self):
        yield from self._tracked("trials", self._random_trials())

    def _similarity_section(self):
        self.similarity = yield from self._tracked(
            "similarity", self.build_similarity(self.sim_config)
        )

    def _ladder_section(self):
        yield from self._tracked("reduce-ladder", self._ladder())

    def _learn_section(self):
        self.free_colors = yield from self._tracked(
            "learn-palette", self.learn_palette(self.learn_config)
        )

    def _finish_section(self):
        self.phase = "finish"
        yield from self.finish_coloring(
            self.free_colors, self.palette, self.forward_per_round
        )

    def _final_reduce_section(self):
        self.phase = "final-reduce"
        yield from self._final_reduce_forever()

    def _sections(self):
        """The variant's schedule, in order."""
        if self.variant == "improved":
            # Improved-d2-Color: trials, then similarity graphs.
            return (
                self._trials_section,
                self._similarity_section,
                self._ladder_section,
                self._learn_section,
                self._finish_section,
            )
        # Basic d2-Color: similarity graphs first, then trials.
        return (
            self._similarity_section,
            self._trials_section,
            self._ladder_section,
            self._final_reduce_section,
        )

    # ------------------------------------------------------------------

    def run(self):
        for section in self._sections():
            yield from section()


def _run_randomized(
    graph: nx.Graph,
    variant: str,
    seed: int,
    constants: Optional[Constants],
    policy: Optional[BandwidthPolicy],
    delta: Optional[int],
    max_rounds: int,
    force_exact_similarity: Optional[bool],
    allow_deterministic_fallback: bool,
    force_learn_handlers: Optional[bool] = None,
) -> ColoringResult:
    constants = constants or Constants.practical()
    policy = policy or BandwidthPolicy()
    if delta is None:
        delta = max_degree(graph)
    n = graph.number_of_nodes()
    palette = delta * delta + 1

    # Step 0: low-degree graphs go to the deterministic algorithm.
    threshold = constants.small_graph_threshold(n)
    if allow_deterministic_fallback and delta * delta < threshold:
        from repro.det.det_d2color import deterministic_d2_color

        obs_trace.event(
            "core.step0_fallback",
            n=n,
            delta_sq=delta * delta,
            threshold=threshold,
        )
        result = deterministic_d2_color(
            graph, delta=delta, policy=policy
        )
        result.algorithm = f"{variant}-d2color(det-fallback)"
        result.params["deterministic_fallback"] = True
        return result

    budget = policy.budget_bits(n)
    sim_config = SimilarityConfig.derive(
        n, delta, budget, constants, force_exact_similarity
    )
    data = {
        "constants": constants,
        "palette": palette,
        "variant": variant,
        "sim_config": sim_config,
        "ladder": constants.ladder(n, delta),
        "initial_trials": constants.initial_trials(n),
        "lottery_filter_bits": filter_width(delta, n, constants.c11),
        "forward_per_round": forward_batch_size(n, palette, budget),
    }
    if variant == "improved":
        force_small = (
            None
            if force_learn_handlers is None
            else not force_learn_handlers
        )
        data["learn_config"] = LearnPaletteConfig.derive(
            n, delta, budget, constants, force_small=force_small
        )
    inputs = UniformInputs(graph.nodes, data)

    network = Network(
        graph,
        RandomizedD2Program,
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
    result = ColoringResult(
        algorithm=f"{variant}-d2color",
        coloring=coloring,
        palette_size=palette,
        rounds=run.metrics.rounds,
        metrics=run.metrics,
        params={
            "seed": seed,
            "constants": constants.name,
            "ladder": data["ladder"],
            "initial_trials": data["initial_trials"],
            "similarity_exact": sim_config.exact,
        },
    )
    # Per-phase rounds (identical schedule at every node, so any node's
    # entry will do; a kernel run serves both tables as one shared
    # value, building neither programs nor an n-entry table).  The
    # phase running when the run ended — the open-ended final one, or
    # one the stop monitor or max_rounds cut short — gets the remainder.
    phase_log = next(iter(network.node_table("phase_log").values()))
    phase = next(iter(network.node_table("phase").values()))
    logged = 0
    for name, rounds in phase_log:
        result.phases.append(PhaseResult(name, rounds))
        logged += rounds
    result.phases.append(
        PhaseResult(phase, max(0, run.metrics.rounds - logged))
    )
    return result


def improved_d2_color(
    graph: nx.Graph,
    seed: int = 0,
    constants: Optional[Constants] = None,
    policy: Optional[BandwidthPolicy] = None,
    delta: Optional[int] = None,
    max_rounds: int = 500_000,
    force_exact_similarity: Optional[bool] = None,
    allow_deterministic_fallback: bool = True,
    force_learn_handlers: Optional[bool] = None,
) -> ColoringResult:
    """Improved-d2-Color (Theorem 1.1): Δ²+1 colors, O(logΔ·log n)."""
    return _run_randomized(
        graph,
        "improved",
        seed,
        constants,
        policy,
        delta,
        max_rounds,
        force_exact_similarity,
        allow_deterministic_fallback,
        force_learn_handlers,
    )


def basic_d2_color(
    graph: nx.Graph,
    seed: int = 0,
    constants: Optional[Constants] = None,
    policy: Optional[BandwidthPolicy] = None,
    delta: Optional[int] = None,
    max_rounds: int = 500_000,
    force_exact_similarity: Optional[bool] = None,
    allow_deterministic_fallback: bool = True,
) -> ColoringResult:
    """Algorithm d2-Color (Corollary 2.1): Δ²+1 colors, O(log³ n)."""
    return _run_randomized(
        graph,
        "basic",
        seed,
        constants,
        policy,
        delta,
        max_rounds,
        force_exact_similarity,
        allow_deterministic_fallback,
    )
