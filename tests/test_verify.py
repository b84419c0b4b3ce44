"""Tests for the independent checker and the bandwidth audit."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.greedy import greedy_d2_coloring
from repro.congest.metrics import RunMetrics
from repro.graphs.generators import gnp
from repro.verify.audit import audit_bandwidth, audit_many
from repro.verify.checker import (
    check_coloring,
    check_d2_coloring,
    check_distance_k_coloring,
)


class TestChecker:
    def test_valid_coloring_accepted(self):
        graph = nx.path_graph(4)
        coloring = {0: 0, 1: 1, 2: 2, 3: 0}
        report = check_d2_coloring(graph, coloring)
        assert report.valid
        assert report.colors_used == 3

    def test_distance_1_conflict_detected(self):
        graph = nx.path_graph(3)
        coloring = {0: 0, 1: 0, 2: 1}
        report = check_d2_coloring(graph, coloring)
        assert not report.valid
        assert (0, 1) in report.conflicts

    def test_distance_2_conflict_detected(self):
        graph = nx.path_graph(3)
        coloring = {0: 0, 1: 1, 2: 0}
        report = check_d2_coloring(graph, coloring)
        assert not report.valid
        assert (0, 2) in report.conflicts

    def test_distance_3_not_a_conflict(self):
        graph = nx.path_graph(4)
        coloring = {0: 0, 1: 1, 2: 2, 3: 0}
        assert check_d2_coloring(graph, coloring).valid

    def test_distance_1_checker_allows_d2_repeats(self):
        graph = nx.path_graph(3)
        coloring = {0: 0, 1: 1, 2: 0}
        assert check_coloring(graph, coloring).valid

    def test_uncolored_nodes_reported(self):
        graph = nx.path_graph(3)
        coloring = {0: 0, 1: None, 2: 1}
        report = check_d2_coloring(graph, coloring)
        assert not report.valid
        assert report.uncolored == [1]

    def test_out_of_palette_reported(self):
        graph = nx.path_graph(2)
        coloring = {0: 0, 1: 99}
        report = check_d2_coloring(graph, coloring, palette_size=5)
        assert not report.valid
        assert report.out_of_palette == [1]

    def test_negative_color_out_of_palette(self):
        graph = nx.path_graph(2)
        report = check_d2_coloring(
            graph, {0: 0, 1: -1}, palette_size=5
        )
        assert not report.valid

    def test_distance_k_general(self):
        graph = nx.path_graph(5)
        coloring = {0: 0, 1: 1, 2: 2, 3: 0, 4: 1}
        assert not check_distance_k_coloring(
            graph, coloring, 3
        ).valid
        assert check_distance_k_coloring(graph, coloring, 2).valid

    def test_explain_valid(self):
        graph = nx.path_graph(2)
        report = check_d2_coloring(
            graph, {0: 0, 1: 1}, palette_size=5
        )
        assert "valid" in report.explain()

    def test_explain_invalid_mentions_conflicts(self):
        graph = nx.path_graph(2)
        report = check_d2_coloring(graph, {0: 0, 1: 0})
        assert "conflicting" in report.explain()

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=16),
        st.floats(min_value=0.05, max_value=0.5),
        st.integers(min_value=0, max_value=5),
    )
    def test_greedy_always_passes_checker(self, n, p, seed):
        graph = gnp(n, p, seed=seed)
        result = greedy_d2_coloring(graph)
        report = check_d2_coloring(
            graph, result.coloring, result.palette_size
        )
        assert report.valid

    def test_checker_catches_planted_violation(self):
        graph = gnp(20, 0.2, seed=9)
        result = greedy_d2_coloring(graph)
        coloring = dict(result.coloring)
        # Plant a conflict: copy a color onto a d2-neighbor.
        from repro.graphs.square import d2_neighbors

        v = next(iter(graph.nodes))
        nbrs = d2_neighbors(graph, v)
        if nbrs:
            u = next(iter(nbrs))
            coloring[u] = coloring[v]
            assert not check_d2_coloring(graph, coloring).valid


class TestAudit:
    def test_compliant_report(self):
        metrics = RunMetrics(
            total_messages=1,
            total_bits=50,
            max_message_bits=50,
            budget_bits=100,
        )
        report = audit_bandwidth("algo", metrics)
        assert report.compliant
        assert report.headroom == 0.5

    def test_violating_report(self):
        metrics = RunMetrics(
            total_messages=1,
            total_bits=150,
            max_message_bits=150,
            budget_bits=100,
            violations=1,
            worst_violation_bits=150,
        )
        report = audit_bandwidth("algo", metrics)
        assert not report.compliant
        assert report.headroom == 1.5

    def test_rows(self):
        metrics = RunMetrics(budget_bits=100)
        rows = audit_many([audit_bandwidth("a", metrics)])
        assert rows[0][0] == "a"
        assert rows[0][-1] == "yes"
