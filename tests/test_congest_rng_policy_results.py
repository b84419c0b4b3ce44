"""Tests for RNG derivation, bandwidth policy, and result types."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.metrics import RunMetrics
from repro.congest.network import Network
from repro.congest.node import FunctionProgram
from repro.congest.policy import BandwidthMode, BandwidthPolicy
from repro.congest.rng import derive_int, derive_ints, derive_rng
from repro.results import ColoringResult

# Label values of every shape the simulator actually derives streams
# from: ints, strings, and tuples thereof.
_labels = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=12),
    st.tuples(st.integers(min_value=-100, max_value=100), st.text(max_size=4)),
)


class TestRng:
    def test_deterministic(self):
        assert derive_int(1, "a") == derive_int(1, "a")

    def test_label_sensitivity(self):
        assert derive_int(1, "a") != derive_int(1, "b")

    def test_seed_sensitivity(self):
        assert derive_int(1, "a") != derive_int(2, "a")

    def test_rng_streams_independent(self):
        r1 = derive_rng(0, "node", 1)
        r2 = derive_rng(0, "node", 2)
        assert [r1.random() for _ in range(5)] != [
            r2.random() for _ in range(5)
        ]

    def test_rng_reproducible(self):
        a = derive_rng(7, "x").random()
        b = derive_rng(7, "x").random()
        assert a == b


class TestBulkRng:
    """The bulk derivations must be bit-identical to the scalar ones —
    the vectorized kernels and ``Network.__init__`` rely on it."""

    @given(seed=_labels, label=_labels, n=st.integers(0, 48))
    @settings(max_examples=150)
    def test_derive_ints_matches_scalar_over_count(
        self, seed, label, n
    ):
        assert derive_ints(seed, label, n) == [
            derive_int(seed, label, item) for item in range(n)
        ]

    @given(
        seed=_labels,
        label=_labels,
        items=st.lists(_labels, max_size=16),
    )
    @settings(max_examples=150)
    def test_derive_ints_matches_scalar_over_items(
        self, seed, label, items
    ):
        assert derive_ints(seed, label, items) == [
            derive_int(seed, label, item) for item in items
        ]


class TestPolicy:
    def test_budget_scales_with_log_n(self):
        policy = BandwidthPolicy(beta=8, min_bits=0)
        assert policy.budget_bits(1024) == 80
        assert policy.budget_bits(2048) == 88

    def test_min_bits_floor(self):
        policy = BandwidthPolicy(beta=1, min_bits=100)
        assert policy.budget_bits(4) == 100

    def test_tiny_n(self):
        policy = BandwidthPolicy(beta=8, min_bits=0)
        assert policy.budget_bits(1) == 8

    def test_factories(self):
        assert BandwidthPolicy.strict().mode is BandwidthMode.STRICT
        assert BandwidthPolicy.track().mode is BandwidthMode.TRACK
        assert (
            BandwidthPolicy.unbounded().mode
            is BandwidthMode.UNBOUNDED
        )


class TestRunMetrics:
    def test_loop_tracks_max(self):
        # One node sends a 10-, then a 50-, then a 20-bit payload:
        # the run max spans rounds and the round records keep each.
        def proto(ctx):
            if ctx.node == 0:
                for value in (2**9, 2**49, 2**19):
                    yield {1: value}
            else:
                for _ in range(3):
                    yield {}
            return None

        graph = nx.path_graph(2)
        network = Network(graph, FunctionProgram.factory(proto))
        metrics = network.run(record_rounds=True).metrics
        assert metrics.max_message_bits == 50
        assert metrics.total_messages == 3
        assert metrics.total_bits == 80
        assert [r.max_message_bits for r in metrics.per_round] == [
            10,
            50,
            20,
        ]

    def test_merge_adds_rounds(self):
        a = RunMetrics(rounds=3, total_messages=5, budget_bits=64)
        b = RunMetrics(rounds=2, total_messages=7, budget_bits=64)
        merged = a.merge(b)
        assert merged.rounds == 5
        assert merged.total_messages == 12

    def test_compliance(self):
        assert RunMetrics().compliant
        metrics = RunMetrics(violations=1, worst_violation_bits=200)
        assert not metrics.compliant
        assert metrics.worst_violation_bits == 200

    def test_summary_contains_rounds(self):
        assert "rounds=0" in RunMetrics().summary()


class TestColoringResult:
    def _result(self):
        return ColoringResult(
            algorithm="x",
            coloring={0: 1, 1: 2, 2: 1},
            palette_size=5,
            rounds=0,
        )

    def test_colors_used(self):
        assert self._result().colors_used == 2

    def test_complete(self):
        result = self._result()
        assert result.complete
        result.coloring[3] = None
        assert not result.complete

    def test_add_phase_accumulates(self):
        result = self._result()
        result.add_phase("a", 10)
        result.add_phase("b", 5)
        assert result.rounds == 15
        assert result.phase_rounds() == {"a": 10, "b": 5}

    def test_add_phase_merges_metrics(self):
        result = self._result()
        result.add_phase("a", 10, RunMetrics(rounds=10, total_bits=7))
        assert result.metrics.total_bits == 7

    def test_summary_mentions_algorithm(self):
        assert "x:" in self._result().summary()
