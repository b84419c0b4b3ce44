"""Tests for constants, Reduce, LearnPalette, FinishColoring and the
full randomized pipelines (Thm 1.1, Cor 2.1)."""

import math

import networkx as nx
import pytest

from repro.congest.network import Network
from repro.congest.node import NodeProgram
from repro.congest.policy import BandwidthPolicy
from repro.core.constants import Constants
from repro.core.d2color import (
    RandomizedD2Program,
    basic_d2_color,
    improved_d2_color,
)
from repro.core.learn_palette import LearnPaletteConfig
from repro.core.reduce import REDUCE_PHASE_ROUNDS
from repro.exec import use_backend
from repro.graphs.generators import (
    clique_clusters,
    random_regular,
    unit_disk,
)
from repro.graphs.instances import (
    hoffman_singleton,
    petersen,
    projective_plane_incidence,
)
from repro.graphs.square import d2_neighbors
from repro.verify.checker import check_d2_coloring


class TestConstants:
    def test_paper_relations(self):
        c = Constants.paper()
        assert c.c1 <= 1.0 / (402.0 * math.e**3) + 1e-12
        assert c.c0 == pytest.approx(3.0 * math.e / c.c1)
        assert c.c3 == pytest.approx(32.0 * 1_200_000.0)
        assert c.query_c == pytest.approx(1.0 / 6000.0)
        assert c.act_c == pytest.approx(1.0 / 8.0)

    def test_probabilities_are_probabilities(self):
        for preset in (Constants.paper(), Constants.practical()):
            for phi in (1.0, 10.0, 1000.0):
                assert 0 < preset.query_probability(phi) <= 0.5
                assert (
                    0
                    < preset.activation_probability(phi, phi / 2)
                    <= 1.0
                )

    def test_ladder_halves_until_floor(self):
        c = Constants.practical()
        ladder = c.ladder(n=256, delta=20)
        assert ladder, "expected a non-trivial ladder"
        for phi, tau in ladder:
            assert phi == pytest.approx(2 * tau)
        taus = [tau for _phi, tau in ladder]
        for first, second in zip(taus, taus[1:]):
            assert second == pytest.approx(first / 2)
        assert taus[-1] > c.tau_floor(256) / 2

    def test_reduce_phases_formula(self):
        c = Constants.practical()
        assert c.reduce_phases(20, 10, 256) == math.ceil(
            c.c3 * 4 * math.log2(256)
        )

    def test_initial_trials_grow_with_n(self):
        c = Constants.practical()
        assert c.initial_trials(1024) > c.initial_trials(16)

    def test_scaled_override(self):
        c = Constants.practical().scaled(c2=99.0)
        assert c.c2 == 99.0
        assert c.name == "practical"

    def test_small_graph_threshold(self):
        c = Constants.practical()
        assert c.small_graph_threshold(256) == pytest.approx(16.0)


class TestLearnPaletteConfig:
    def test_small_delta_flag(self):
        c = Constants.practical()
        small = LearnPaletteConfig.derive(1000, 4, 320, c)
        assert small.small_delta
        large = LearnPaletteConfig.derive(64, 30, 320, c)
        assert not large.small_delta

    def test_blocks_cover_palette(self):
        c = Constants.practical()
        cfg = LearnPaletteConfig.derive(
            64, 9, 320, c, force_small=False
        )
        covered = set()
        for i in range(cfg.z_blocks):
            covered.update(cfg.block_colors(i))
        assert covered == set(range(cfg.palette))

    def test_block_of_inverse(self):
        c = Constants.practical()
        cfg = LearnPaletteConfig.derive(
            64, 9, 320, c, force_small=False
        )
        for color in range(cfg.palette):
            assert color in cfg.block_colors(cfg.block_of(color))

    def test_paper_parameters_z_and_p(self):
        # Z = Δ and P = Δ·sqrt(Δ·log n) capped at Δ² (Sec. 2.6).
        c = Constants.practical()
        cfg = LearnPaletteConfig.derive(
            256, 12, 320, c, force_small=False
        )
        assert cfg.z_blocks == 12
        assert cfg.p_targets <= 144


class TestImprovedPipeline:
    def test_moore_graph_rainbow(self):
        graph = hoffman_singleton()
        result = improved_d2_color(
            graph, seed=1, allow_deterministic_fallback=False
        )
        assert result.complete
        assert result.colors_used == 50
        assert check_d2_coloring(
            graph, result.coloring, result.palette_size
        ).valid

    def test_valid_on_suite(self, suite_graph):
        name, graph = suite_graph
        result = improved_d2_color(graph, seed=2)
        assert result.complete, name
        report = check_d2_coloring(
            graph, result.coloring, result.palette_size
        )
        assert report.valid, f"{name}: {report.explain()}"

    def test_deterministic_fallback_for_low_degree(self):
        graph = nx.cycle_graph(64)
        result = improved_d2_color(graph, seed=3)
        assert result.params.get("deterministic_fallback")
        assert check_d2_coloring(
            graph, result.coloring, result.palette_size
        ).valid

    def test_fallback_can_be_disabled(self):
        graph = nx.cycle_graph(64)
        result = improved_d2_color(
            graph, seed=3, allow_deterministic_fallback=False
        )
        assert not result.params.get("deterministic_fallback")
        assert result.complete

    def test_same_seed_reproducible(self):
        graph = random_regular(8, 48, seed=4)
        a = improved_d2_color(
            graph, seed=7, allow_deterministic_fallback=False
        )
        b = improved_d2_color(
            graph, seed=7, allow_deterministic_fallback=False
        )
        assert a.coloring == b.coloring
        assert a.rounds == b.rounds

    def test_different_seeds_differ(self):
        graph = random_regular(8, 48, seed=4)
        a = improved_d2_color(
            graph, seed=1, allow_deterministic_fallback=False
        )
        b = improved_d2_color(
            graph, seed=2, allow_deterministic_fallback=False
        )
        assert a.coloring != b.coloring

    def test_handler_path_learn_palette(self):
        graph = projective_plane_incidence(5)
        result = improved_d2_color(
            graph,
            seed=5,
            allow_deterministic_fallback=False,
            force_learn_handlers=True,
        )
        assert result.complete
        assert check_d2_coloring(
            graph, result.coloring, result.palette_size
        ).valid

    def test_exact_similarity_forced(self):
        graph = random_regular(8, 40, seed=6)
        result = improved_d2_color(
            graph,
            seed=6,
            allow_deterministic_fallback=False,
            force_exact_similarity=True,
        )
        assert result.params["similarity_exact"]
        assert result.complete

    def test_phase_log_present(self):
        graph = hoffman_singleton()
        result = improved_d2_color(
            graph, seed=8, allow_deterministic_fallback=False
        )
        assert "finish" in result.phase_rounds()

    def test_wireless_workload(self):
        graph = unit_disk(60, 0.22, seed=7)
        result = improved_d2_color(graph, seed=9)
        assert result.complete
        assert check_d2_coloring(
            graph, result.coloring, result.palette_size
        ).valid


class TestBasicPipeline:
    def test_valid_and_complete(self):
        graph = random_regular(8, 48, seed=5)
        result = basic_d2_color(
            graph, seed=11, allow_deterministic_fallback=False
        )
        assert result.complete
        assert check_d2_coloring(
            graph, result.coloring, result.palette_size
        ).valid

    def test_moore_graph(self):
        graph = petersen()
        result = basic_d2_color(graph, seed=12)
        assert result.colors_used == 10
        assert check_d2_coloring(
            graph, result.coloring, result.palette_size
        ).valid

    def test_similarity_runs_before_trials(self):
        graph = hoffman_singleton()
        result = basic_d2_color(
            graph, seed=13, allow_deterministic_fallback=False
        )
        phases = [name for name, _ in result.phase_rounds().items()]
        if "similarity" in phases and "trials" in phases:
            assert phases.index("similarity") < phases.index(
                "trials"
            )


def _phases(result):
    return [(p.name, p.rounds) for p in result.phases]


class TestPhaseAttribution:
    """A run that ends inside a phase books its remaining rounds to
    that phase, not to the open-ended final one — on the generator
    loop and on the hybrid kernel alike."""

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_stop_inside_the_trials_window(self, backend):
        graph = random_regular(4, 64, seed=1)
        with use_backend(backend):
            improved = improved_d2_color(
                graph, seed=0, allow_deterministic_fallback=False
            )
            basic = basic_d2_color(
                graph, seed=0, allow_deterministic_fallback=False
            )
        # All colored after 21 of the 3·24 trial rounds.
        assert improved.params["initial_trials"] == 24
        assert improved.complete and basic.complete
        assert _phases(improved) == [("trials", 21)]
        assert _phases(basic) == [("similarity", 2), ("trials", 21)]

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_cutoff_inside_similarity(self, backend):
        # G² of the Hoffman-Singleton graph is K_50 on 50 colors: the
        # trials window cannot finish, so similarity always starts.
        graph = hoffman_singleton()
        window = 3 * Constants.practical().initial_trials(50)
        with use_backend(backend):
            result = improved_d2_color(
                graph,
                seed=8,
                max_rounds=window + 2,
                allow_deterministic_fallback=False,
            )
        assert result.rounds == window + 2
        assert _phases(result) == [("trials", window), ("similarity", 2)]


class TestReduceMechanics:
    def _run(self, graph, seed):
        network_result = improved_d2_color(
            graph, seed=seed, allow_deterministic_fallback=False
        )
        return network_result

    def test_reduce_stats_consistency(self):
        # Run the full pipeline on a dense instance and inspect the
        # per-node counters kept by ReduceMixin.
        graph = hoffman_singleton()
        constants = Constants.practical()
        policy = BandwidthPolicy()
        n = graph.number_of_nodes()
        from repro.core.d2color import _run_randomized

        result = _run_randomized(
            graph,
            "improved",
            14,
            constants,
            policy,
            None,
            200_000,
            None,
            False,
        )
        assert result.complete
        # counters are monotone aggregates: accepted <= received
        # cannot be checked post-hoc here (programs are internal),
        # but the pipeline must have produced a valid coloring with
        # all mechanisms active.
        assert check_d2_coloring(
            graph, result.coloring, result.palette_size
        ).valid

    def test_phase_round_constant(self):
        assert REDUCE_PHASE_ROUNDS == 17

    def test_reduce_ladder_phase_counts(self):
        constants = Constants.practical()
        n, delta = 50, 7
        ladder = constants.ladder(n, delta)
        total = sum(
            constants.reduce_phases(phi, tau, n)
            for phi, tau in ladder
        )
        assert total > 0

    def test_dense_cliques_color_correctly(self):
        graph = clique_clusters(5, 8, seed=1, bridges=2)
        result = improved_d2_color(
            graph, seed=15, allow_deterministic_fallback=False
        )
        assert result.complete
        assert check_d2_coloring(
            graph, result.coloring, result.palette_size
        ).valid


class TestPaperConstantsConstructible:
    def test_paper_preset_schedules(self):
        # The paper preset's schedules are astronomically long; we
        # only verify they are well-formed, not runnable.
        # c1 is tiny (1/402e³), so the ladder only exists once
        # c1·Δ² clears the c2·log n floor — Δ ~ 10⁴ at n = 10⁶.
        c = Constants.paper()
        assert c.ladder(n=10**6, delta=1000) == []
        ladder = c.ladder(n=10**6, delta=10**4)
        assert ladder
        assert c.reduce_phases(*ladder[0], 10**6) > 10**6
