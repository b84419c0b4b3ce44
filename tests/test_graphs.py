"""Tests for the graph substrate: squares, properties, generators,
paper instances."""

import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators
from repro.graphs.generators import (
    caterpillar,
    clique_clusters,
    complete_bipartite,
    connected_gnp,
    double_star,
    ensure_int_labels,
    gnp,
    gnp_fast,
    grid,
    power_law,
    random_bipartite_tasks,
    random_regular,
    star_of_stars,
    unit_disk,
    with_max_degree,
)
from repro.graphs.instances import (
    cycle5,
    hoffman_singleton,
    moore_graph,
    petersen,
    projective_plane_incidence,
    verification_lower_bound_tree,
)
from repro.graphs.properties import (
    E_CUBED,
    leeway,
    live_d2_counts,
    slack,
    solid_nodes,
    sparsity,
)
from repro.graphs.square import (
    common_d2_neighbors,
    d2_degree,
    d2_neighborhoods,
    d2_neighbors,
    max_d2_degree,
    square,
    two_paths,
)

random_graphs = st.builds(
    lambda n, p, seed: gnp(n, p, seed=seed),
    st.integers(min_value=2, max_value=18),
    st.floats(min_value=0.05, max_value=0.6),
    st.integers(min_value=0, max_value=10),
)


class TestSquare:
    def test_path_square(self):
        sq = square(nx.path_graph(4))
        assert set(sq.edges) == {
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 3),
        }

    def test_petersen_square_is_complete(self):
        sq = square(petersen())
        assert sq.number_of_edges() == 45

    @settings(max_examples=25, deadline=None)
    @given(random_graphs)
    def test_matches_networkx_power(self, graph):
        ours = square(graph)
        reference = nx.power(graph, 2)
        assert set(ours.edges) == set(reference.edges)
        assert set(ours.nodes) == set(reference.nodes)

    def test_d2_neighbors_excludes_self(self):
        graph = nx.cycle_graph(5)
        for v in graph.nodes:
            assert v not in d2_neighbors(graph, v)

    def test_d2_neighborhoods_consistent(self):
        graph = gnp(25, 0.2, seed=5)
        all_hoods = d2_neighborhoods(graph)
        for v in graph.nodes:
            assert all_hoods[v] == frozenset(d2_neighbors(graph, v))

    def test_d2_degree_bounded_by_delta_squared(self):
        graph = random_regular(4, 20, seed=0)
        assert max_d2_degree(graph) <= 16

    def test_common_d2_neighbors(self):
        graph = nx.path_graph(5)
        # nodes 1 and 3: N2(1)={0,2,3}, N2(3)={1,2,4} -> common {2}
        assert common_d2_neighbors(graph, 1, 3) == {2}

    def test_two_paths_counts_middles(self):
        graph = nx.cycle_graph(4)  # 0-1-2-3-0
        assert sorted(two_paths(graph, 0, 2)) == [1, 3]
        assert two_paths(graph, 0, 1) == []


class TestProperties:
    def test_moore_graph_sparsity_zero(self):
        # G² of Petersen is K10 with Δ²=9 d2-neighbors per node: the
        # neighborhood is a 9-clique, the densest possible => ζ = 0.
        values = sparsity(petersen())
        assert all(abs(z) < 1e-9 for z in values.values())

    def test_sparse_graph_high_sparsity(self):
        # A path has nearly edgeless d2-neighborhoods.
        values = sparsity(nx.path_graph(10))
        assert all(z > 0 for z in values.values())

    def test_leeway_equals_slack_plus_live(self):
        graph = gnp(25, 0.2, seed=7)
        coloring = {
            v: (v % 5 if v % 3 == 0 else None) for v in graph.nodes
        }
        lee = leeway(graph, coloring)
        slk = slack(graph, coloring)
        live = live_d2_counts(graph, coloring)
        for v in graph.nodes:
            assert lee[v] == slk[v] + live[v]

    def test_leeway_full_palette_when_uncolored(self):
        graph = nx.cycle_graph(6)
        coloring = {v: None for v in graph.nodes}
        delta = 2
        lee = leeway(graph, coloring, delta)
        assert all(
            value == delta * delta + 1 for value in lee.values()
        )

    def test_solid_nodes_on_dense_graph(self):
        graph = petersen()
        coloring = {v: None for v in graph.nodes}
        # leeway = 10 <= c1·9 requires c1 >= 10/9; with sparsity 0,
        # every node is then solid.
        solid = solid_nodes(graph, coloring, c1=1.2)
        assert solid == set(graph.nodes)

    def test_e_cubed_constant(self):
        assert abs(E_CUBED - math.e**3) < 1e-12


class TestGenerators:
    def test_random_regular_is_regular(self):
        graph = random_regular(4, 20, seed=1)
        assert set(d for _, d in graph.degree) == {4}

    def test_random_regular_fixes_parity(self):
        graph = random_regular(3, 9, seed=1)  # odd*odd bumped
        assert graph.number_of_nodes() == 10

    def test_random_regular_rejects_degree_ge_n(self):
        with pytest.raises(ValueError):
            random_regular(10, 5)

    def test_unit_disk_edges_respect_radius(self):
        graph = unit_disk(40, 0.25, seed=2)
        pos = nx.get_node_attributes(graph, "pos")
        for u, v in graph.edges:
            dx = pos[u][0] - pos[v][0]
            dy = pos[u][1] - pos[v][1]
            assert dx * dx + dy * dy <= 0.25**2 + 1e-12

    def test_complete_bipartite_square_is_complete(self):
        graph = complete_bipartite(3, 4)
        sq = square(graph)
        assert sq.number_of_edges() == 7 * 6 // 2

    def test_grid_and_torus_degrees(self):
        assert max(d for _, d in grid(4, 4).degree) == 4
        torus = grid(4, 4, torus=True)
        assert set(d for _, d in torus.degree) == {4}

    def test_caterpillar_sizes(self):
        graph = caterpillar(5, 3)
        assert graph.number_of_nodes() == 5 + 15

    def test_double_star_structure(self):
        graph = double_star(6)
        assert graph.degree[0] == 7
        assert graph.degree[1] == 7
        assert graph.number_of_nodes() == 14

    def test_clique_clusters_contains_cliques(self):
        graph = clique_clusters(3, 4, seed=0)
        for base in (0, 4, 8):
            for i in range(4):
                for j in range(i + 1, 4):
                    assert graph.has_edge(base + i, base + j)

    def test_star_of_stars_root_d2_degree(self):
        graph = star_of_stars(4, 3)
        assert d2_degree(graph, 0) == 4 * (3 + 1)

    def test_random_bipartite_tasks_degrees(self):
        graph = random_bipartite_tasks(10, 6, 3, seed=1)
        for task in range(10):
            assert graph.degree[task] == 3

    def test_connected_gnp_connected(self):
        graph = connected_gnp(30, 0.08, seed=3)
        assert nx.is_connected(graph)

    def test_with_max_degree_trims(self):
        graph = with_max_degree(nx.star_graph(10), 3, seed=1)
        assert max(d for _, d in graph.degree) <= 3

    def test_ensure_int_labels(self):
        graph = nx.Graph()
        graph.add_edge("x", "y")
        relabeled = ensure_int_labels(graph)
        assert set(relabeled.nodes) == {0, 1}


def _canonical_edges(graph):
    return sorted(tuple(sorted(edge)) for edge in graph.edges)


class TestSamplerPorts:
    """The CSR-direct generators are exact ports of networkx's
    samplers: same ``random.Random`` stream, same sampled graph.  This
    is what ties every CSR-born instance to networkx's samples."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("degree,n", [(3, 10), (4, 30), (5, 64)])
    def test_random_regular(self, degree, n, seed):
        assert _canonical_edges(
            random_regular(degree, n, seed=seed)
        ) == _canonical_edges(nx.random_regular_graph(degree, n, seed))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n,p", [(20, 0.2), (200, 0.03), (500, 0.004)])
    def test_gnp_fast(self, n, p, seed):
        assert _canonical_edges(
            gnp_fast(n, p, seed=seed)
        ) == _canonical_edges(nx.fast_gnp_random_graph(n, p, seed))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "n,attach,triangle_p", [(24, 2, 0.1), (100, 3, 0.5), (300, 1, 0.0)]
    )
    def test_power_law(self, n, attach, triangle_p, seed):
        assert _canonical_edges(
            power_law(n, attach, triangle_p, seed=seed)
        ) == _canonical_edges(
            nx.powerlaw_cluster_graph(n, attach, triangle_p, seed)
        )

    def test_copy_is_the_canonical_real_graph(self):
        view = power_law(60, 2, 0.3, seed=4)
        copy = view.copy()
        assert type(copy) is nx.Graph
        assert list(copy.nodes) == list(range(60))
        assert list(copy.edges) == _canonical_edges(view)
        assert not view.materialized
        copy.remove_edge(*next(iter(view.edges)))  # mutable twin
        assert view.number_of_edges() == copy.number_of_edges() + 1


def _loop_gnp_edges(n, p, seed):
    """The oracle for the bulk sampler: ``nx.fast_gnp_random_graph``'s
    geometric-skip loop (undirected), one ``random.Random`` draw and
    one ``math.log`` per step, edges in the order it finds them."""
    rng = random.Random(seed)
    us, vs = [], []
    lp = math.log(1.0 - p)
    v = 1
    w = -1
    while v < n:
        lr = math.log(1.0 - rng.random())
        w = w + 1 + int(lr / lp)
        while w >= v and v < n:
            w = w - v
            v = v + 1
        if v < n:
            us.append(v)
            vs.append(w)
    return us, vs


def _bulk_gnp_edges(n, p, seed):
    us, vs = generators._fast_gnp_edges(n, p, seed)
    assert us.dtype == vs.dtype == np.int64
    return us.tolist(), vs.tolist()


class TestBulkGnpSampler:
    """``_fast_gnp_edges`` draws ``gnp_fast``'s sample with numpy; the
    scalar loop above is its oracle, edge for edge and in order."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "n,p",
        [
            (0, 0.3),
            (1, 0.3),
            (2, 0.5),
            (20, 0.2),
            (500, 0.01),
            (65536, 2.0 / 65536),
        ],
    )
    def test_matches_the_loop(self, n, p, seed):
        assert _bulk_gnp_edges(n, p, seed) == _loop_gnp_edges(n, p, seed)

    @pytest.mark.parametrize("n", [2, 100, 4096])
    def test_first_skip_overshoots(self, n):
        # Expected edges ~1e-8: the first jump passes the last pair.
        assert _bulk_gnp_edges(n, 1e-15, 0) == ([], [])
        assert _loop_gnp_edges(n, 1e-15, 0) == ([], [])

    def test_p_below_double_resolution_raises_like_the_loop(self):
        with pytest.raises(ZeroDivisionError):
            _loop_gnp_edges(10, 1e-17, 0)
        with pytest.raises(ZeroDivisionError):
            _bulk_gnp_edges(10, 1e-17, 0)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_multi_chunk_refill(self, monkeypatch, chunk, seed):
        monkeypatch.setattr(generators, "_GNP_CHUNK", chunk)
        for n, p in ((40, 0.3), (2000, 0.002)):
            assert _bulk_gnp_edges(n, p, seed) == _loop_gnp_edges(
                n, p, seed
            )

    @pytest.mark.parametrize(
        "p", [0.5, 0.1, 2.0 / 65536, 2.0 / 1048576, 1e-9]
    )
    def test_skips_match_math_log_at_integer_quotients(self, p):
        # r = 1 - exp(k·lp) puts log(1 - r) / lp right at the integer
        # k; there an ulp of log rounding decides int().  The doubles
        # next to each r straddle the integer.
        lp = math.log(1.0 - p)
        ks = np.unique(
            np.concatenate(
                (
                    np.arange(0, 200),
                    np.geomspace(200, 5e7, 400).astype(np.int64),
                )
            )
        )
        r = 1.0 - np.exp(ks * lp)
        r = r[(r >= 0.0) & (r < 1.0)]
        r = np.concatenate(
            [
                r,
                np.nextafter(r, 0.0),
                np.nextafter(r, 1.0),
                np.nextafter(np.nextafter(r, 0.0), 0.0),
                np.nextafter(np.nextafter(r, 1.0), 1.0),
            ]
        )
        r = r[(r >= 0.0) & (r < 1.0)]
        expect = [int(math.log(1.0 - x) / lp) for x in r.tolist()]
        cap = max(expect) + 1
        assert generators._geometric_skips(r, lp, cap).tolist() == expect

    def test_skips_clip_at_the_cap(self):
        lp = math.log(1.0 - 1e-12)
        r = np.array([0.0, 0.5, 0.999999])
        assert generators._geometric_skips(r, lp, 1000).tolist() == [
            0,
            1000,
            1000,
        ]


class TestInstances:
    @pytest.mark.parametrize("delta", [2, 3, 7])
    def test_moore_graphs_are_extremal(self, delta):
        graph = moore_graph(delta)
        assert graph.number_of_nodes() == delta * delta + 1
        assert set(d for _, d in graph.degree) == {delta}
        sq = square(graph)
        n = graph.number_of_nodes()
        assert sq.number_of_edges() == n * (n - 1) // 2

    def test_moore_graph_unknown_degree(self):
        with pytest.raises(ValueError):
            moore_graph(4)

    def test_cycle5_petersen_hs_sizes(self):
        assert cycle5().number_of_nodes() == 5
        assert petersen().number_of_nodes() == 10
        assert hoffman_singleton().number_of_nodes() == 50

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_projective_plane_incidence(self, q):
        graph = projective_plane_incidence(q)
        count = q * q + q + 1
        assert graph.number_of_nodes() == 2 * count
        assert set(d for _, d in graph.degree) == {q + 1}
        # girth 6: bipartite with no 4-cycles
        assert nx.is_bipartite(graph)
        assert nx.girth(graph) == 6

    def test_projective_plane_rejects_composite(self):
        with pytest.raises(ValueError):
            projective_plane_incidence(4)

    def test_verification_tree_degree(self):
        graph = verification_lower_bound_tree(8)
        assert max(d for _, d in graph.degree) == 8
