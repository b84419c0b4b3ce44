"""Parity suites pinning the CSR array pipeline to its set/BFS oracles.

Three equivalences the CSR-native instance pipeline rests on:

1. ``exec.arrays.square_csr`` (closed-row pair sort + dedup) derives
   exactly the distance-2 rows that the set-based
   ``graphs.square.d2_neighborhoods`` oracle computes;
2. the checker's CSR fast path returns the same verdicts — validity,
   conflict sets, counts, ``explain()`` text — as its independent BFS
   on random graphs, random seeds, and deliberately invalid
   colorings;
3. a CSR-born instance and its nx-built twin intern to the *same*
   content digest (cache identity is representation-independent).

The huge-tier digests are pinned too: the bulk G(n,p) sampler must
keep drawing the samples these fingerprints name, whatever numpy
build or CPU evaluates its ``log``.
"""

from __future__ import annotations

import hashlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.arrays import (
    CSRAdjacency,
    build_csr,
    build_csr_from_edges,
    square_csr,
)
from repro.graphs.csrgraph import CSRGraphView
from repro.graphs.generators import gnp_fast, power_law, random_regular
from repro.graphs.square import (
    d2_degree,
    d2_neighborhoods,
    max_d2_degree,
    max_degree,
)
from repro.verify.checker import check_distance_k_coloring
from repro.workloads.cache import Instance, InstanceCache


@st.composite
def random_graphs(draw, max_n: int = 12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(
        st.lists(
            st.booleans(), min_size=len(pairs), max_size=len(pairs)
        )
    )
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(
        pair for pair, keep in zip(pairs, mask) if keep
    )
    return graph


@st.composite
def graph_with_wild_coloring(draw, max_n: int = 12):
    """A graph plus a deliberately hostile partial coloring: Nones,
    in-palette colors, and out-of-palette values (negative included)."""
    graph = draw(random_graphs(max_n=max_n))
    palette = draw(st.integers(min_value=1, max_value=6))
    coloring = {
        v: draw(
            st.one_of(
                st.none(),
                st.integers(min_value=-3, max_value=palette + 3),
            )
        )
        for v in graph.nodes
    }
    return graph, coloring, palette


@st.composite
def graph_with_selfloops_and_coloring(draw, max_n: int = 12):
    """A graph with at least one self-loop and a maker of ``(coloring,
    palette)`` pairs for distance ``k``: a greedy valid one and a
    hostile one (see :func:`graph_with_wild_coloring`)."""
    graph, wild, palette = draw(graph_with_wild_coloring(max_n=max_n))
    loops = draw(
        st.lists(
            st.sampled_from(sorted(graph.nodes)), min_size=1, max_size=4
        )
    )
    graph.add_edges_from((v, v) for v in loops)

    def colorings(k):
        hoods = (
            d2_neighborhoods(graph)
            if k == 2
            else {v: set(graph[v]) - {v} for v in graph.nodes}
        )
        greedy = {}
        for v in sorted(graph.nodes):
            taken = {greedy.get(u) for u in hoods[v]}
            greedy[v] = next(c for c in range(len(graph)) if c not in taken)
        return (greedy, len(graph)), (wild, palette)

    return graph, colorings


def csr_rows_as_sets(csr):
    """``{node: frozenset(row)}`` of a CSR artifact's G rows."""
    indptr, indices = csr.g_indptr, csr.g_indices
    return {
        v: frozenset(indices[indptr[i]:indptr[i + 1]].tolist())
        for i, v in enumerate(csr.order)
    }


class TestCsrRows:
    """The fused-key sort gives every row sorted, whatever order and
    orientation the edges arrive in."""

    @given(random_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_rows_sorted_for_any_edge_order(self, graph, rnd):
        edges = [
            (u, v) if rnd.random() < 0.5 else (v, u)
            for u, v in graph.edges
        ]
        rnd.shuffle(edges)
        n = graph.number_of_nodes()
        csr = build_csr_from_edges(
            n, [u for u, _ in edges], [v for _, v in edges]
        )
        for v in range(n):
            row = csr.g_indices[csr.g_indptr[v]:csr.g_indptr[v + 1]]
            assert row.tolist() == sorted(graph[v])
        nx_built = build_csr(graph)
        assert csr.g_indptr.tolist() == nx_built.g_indptr.tolist()
        assert csr.g_indices.tolist() == nx_built.g_indices.tolist()

    def test_key_limit_is_checked_before_any_allocation(self):
        # 3037000500² is the first square past 2⁶³.
        with pytest.raises(ValueError, match="2⁶³"):
            build_csr_from_edges(3037000500, [], [])


def _with_isolated(graph, extra):
    graph = nx.Graph(graph)
    graph.add_nodes_from(range(len(graph), len(graph) + extra))
    return graph


class TestSquareCsrMatchesOracle:
    @given(random_graphs())
    @settings(max_examples=150)
    def test_g2_rows_equal_d2_neighborhoods(self, graph):
        sq = square_csr(build_csr(graph))
        assert csr_rows_as_sets(sq) == d2_neighborhoods(graph)

    @pytest.mark.parametrize(
        "graph",
        [
            nx.empty_graph(0),
            nx.empty_graph(1),
            nx.empty_graph(2),
            nx.Graph([(0, 1)]),
            _with_isolated(nx.path_graph(5), 4),
            _with_isolated(nx.cycle_graph(7), 1),
            nx.star_graph(300),  # one hub bucket of 300² pair keys
            _with_isolated(nx.star_graph(12), 3),
        ],
        ids=[
            "n0", "n1", "n2-edgeless", "n2-edge", "path-isolated",
            "cycle-isolated", "star300", "star-isolated",
        ],
    )
    def test_shapes(self, graph):
        sq = square_csr(build_csr(graph))
        assert csr_rows_as_sets(sq) == d2_neighborhoods(graph)
        assert sq.g_indptr.dtype == sq.g_indices.dtype == np.int64
        assert sq.g_indptr.size == len(graph) + 1
        for i in range(len(graph)):
            row = sq.g_indices[sq.g_indptr[i]:sq.g_indptr[i + 1]]
            assert (np.diff(row) > 0).all()

    def test_many_distinct_degrees(self):
        # powerlaw-600 spreads its degrees up to 48: many buckets.
        instance = InstanceCache().get("powerlaw-600", 0)
        assert np.unique(instance.csr().degrees).size > 20
        sq = square_csr(instance.csr())
        assert csr_rows_as_sets(sq) == d2_neighborhoods(instance.graph())

    def test_key_width_is_checked_before_any_allocation(self):
        # No G row is ever read: the arrays below would fail first.
        csr = CSRAdjacency(
            n=(1 << 31) + 1,
            order=None,
            index=None,
            g_indptr=None,
            g_indices=None,
            degrees=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="2³¹"):
            square_csr(csr)

    #: sha256 of ``g2_indptr`` then ``g2_indices`` (int64 bytes) of
    #: the seed-0 instances, as the pre-bucketed square build wrote them.
    SQUARE_PINS = {
        "rr4-huge-16384": "f7766bb2513f83062f80020b2d840281"
        "9d772c599c14e560e7144b4c478ac290",
        "gnp-huge-65536": "77f225f2724b0e008c5a13da0494d2cc"
        "af10424326e119de1e86fe8940929ce4",
        "gnp-huge-1048576": "ba80dea2dfb8fc4d91563e06e9968505"
        "464fa46009e0fe645de2b565ade68a2d",
    }

    @pytest.mark.parametrize(
        "workload",
        [
            "rr4-huge-16384",
            "gnp-huge-65536",
            pytest.param("gnp-huge-1048576", marks=pytest.mark.slow),
        ],
    )
    def test_seed0_square_digest(self, workload):
        csr = InstanceCache().get(workload, 0).csr()
        digest = hashlib.sha256()
        for array in (csr.g2_indptr, csr.g2_indices):
            assert array.dtype == np.int64
            digest.update(array.tobytes())
        assert digest.hexdigest() == self.SQUARE_PINS[workload]

    @pytest.mark.parametrize("seed", range(5))
    def test_generator_families(self, seed):
        for graph in (
            gnp_fast(60, 0.08, seed=seed),
            random_regular(4, 30, seed=seed),
            power_law(40, 2, seed=seed),
        ):
            sq = square_csr(graph.csr_adjacency)
            assert csr_rows_as_sets(sq) == d2_neighborhoods(graph)

    @given(random_graphs())
    @settings(max_examples=100)
    def test_degree_helpers_accept_adjacency(self, graph):
        csr = build_csr(graph)
        assert max_d2_degree(graph) == max_d2_degree(
            None, adjacency=csr
        )
        for v in graph.nodes:
            assert d2_degree(graph, v) == d2_degree(
                None, v, adjacency=csr
            )

    def test_view_detected_without_materializing(self):
        view = gnp_fast(80, 0.05, seed=3)
        via_view = max_d2_degree(view)
        assert not view.materialized  # read straight off the arrays
        assert via_view == max_d2_degree(nx.Graph(view))

    @pytest.mark.parametrize("seed", range(3))
    def test_max_degree_reads_the_view_arrays(self, seed):
        for view in (
            gnp_fast(80, 0.05, seed=seed),
            power_law(40, 2, seed=seed),
        ):
            via_view = max_degree(view)
            assert not view.materialized
            assert via_view == max_degree(nx.Graph(view))

    def test_max_degree_of_edgeless_and_empty_graphs(self):
        assert max_degree(nx.empty_graph(5)) == 0
        assert max_degree(nx.Graph()) == 0
        view = CSRGraphView(build_csr(nx.empty_graph(0)))
        assert max_degree(view) == 0
        assert not view.materialized


def _sorted(report):
    report.conflicts.sort()
    return report


class TestCsrCheckerMatchesBfs:
    @given(graph_with_wild_coloring(), st.integers(1, 2))
    @settings(max_examples=200)
    def test_same_verdicts(self, case, k):
        graph, coloring, palette = case
        csr = build_csr(graph)
        via_bfs = _sorted(
            check_distance_k_coloring(graph, coloring, k, palette)
        )
        via_csr = _sorted(
            check_distance_k_coloring(
                graph, coloring, k, palette, adjacency=csr
            )
        )
        assert via_csr.valid == via_bfs.valid
        assert via_csr.conflicts == via_bfs.conflicts
        assert sorted(via_csr.uncolored) == sorted(via_bfs.uncolored)
        assert sorted(via_csr.out_of_palette) == sorted(
            via_bfs.out_of_palette
        )
        assert via_csr.colors_used == via_bfs.colors_used
        assert via_csr.explain() == via_bfs.explain()

    @pytest.mark.parametrize("seed", range(4))
    def test_generator_families_random_colorings(self, seed):
        import random

        rng = random.Random(seed)
        for graph in (
            gnp_fast(50, 0.1, seed=seed),
            random_regular(4, 24, seed=seed),
        ):
            csr = graph.csr_adjacency
            palette = 8
            coloring = {
                v: (
                    None
                    if rng.random() < 0.2
                    else rng.randrange(-1, palette + 1)
                )
                for v in range(csr.n)
            }
            for k in (1, 2):
                bfs = _sorted(
                    check_distance_k_coloring(
                        graph, coloring, k, palette
                    )
                )
                fast = _sorted(
                    check_distance_k_coloring(
                        graph, coloring, k, palette, adjacency=csr
                    )
                )
                assert fast.explain() == bfs.explain()
                assert fast.conflicts == bfs.conflicts
                assert fast.valid == bfs.valid

    @pytest.mark.parametrize(
        "coloring, fast",
        [
            ({0: 1.0, 1: 1, 2: 0, 3: 2}, False),  # float
            ({0: True, 1: 1, 2: 0, 3: False}, True),  # bool
            ({0: 2**62 - 1, 1: 0, 2: 1, 3: 2**62 - 1}, True),
            ({0: 1 - 2**62, 1: 1 - 2**62, 2: 0, 3: 1}, True),
            ({0: 2**62, 1: 0, 2: 1, 3: 2**62}, False),
            ({0: -(2**62), 1: 0, 2: -(2**62), 3: 1}, False),
            ({0: 2**63, 1: 0, 2: 2**63, 3: 1}, False),
            ({0: 2**63, 1: None, 2: 2**63, 3: 0}, False),
            ({0: 0, 1: 1, 2: 0, 3: 2, 9: 7, "x": 1}, True),  # extra keys
        ],
    )
    def test_edge_case_colorings(self, coloring, fast):
        from repro.verify.checker import _check_csr

        graph = nx.path_graph(4)
        csr = build_csr(graph)
        for k in (1, 2):
            for palette in (None, 3):
                bfs = _sorted(
                    check_distance_k_coloring(graph, coloring, k, palette)
                )
                via_csr = _sorted(
                    check_distance_k_coloring(
                        graph, coloring, k, palette, adjacency=csr
                    )
                )
                assert via_csr.valid == bfs.valid
                assert via_csr.conflicts == bfs.conflicts
                assert via_csr.explain() == bfs.explain()
                declined = _check_csr(csr, coloring, k, palette) is None
                assert declined != fast

    def test_huge_colors_fall_back_to_bfs(self):
        graph = nx.path_graph(4)
        coloring = {0: 2**63, 1: 0, 2: 1, 3: 2**63}
        csr = build_csr(graph)
        report = check_distance_k_coloring(
            graph, coloring, 2, adjacency=csr
        )
        # Both endpoints share a giant color at distance 3: valid,
        # and the fallback must not have int64-truncated anything.
        assert report.valid

    def test_selfloop_graphs_take_fast_path(self):
        from repro.verify.checker import _check_csr

        graph = nx.Graph([(0, 1), (1, 1), (1, 2)])
        csr = build_csr(graph)
        assert csr.has_selfloops
        coloring = {0: 0, 1: 1, 2: 0}
        assert _check_csr(csr, coloring, 2, None) is not None
        report = check_distance_k_coloring(
            graph, coloring, 2, adjacency=csr
        )
        assert not report.valid
        assert (0, 2) in report.conflicts

    @given(graph_with_selfloops_and_coloring(), st.integers(1, 2))
    @settings(max_examples=200)
    def test_selfloop_graphs_same_verdicts(self, case, k):
        """A self-loop never makes a node its own distance-k
        neighbor: the CSR rows skip it and G² has no diagonal, so the
        fast path answers, and answers like the BFS, on valid and
        invalid colorings alike."""
        from repro.verify.checker import _check_csr

        graph, colorings = case
        csr = build_csr(graph)
        pairs = colorings(k)
        greedy, _ = pairs[0]
        assert check_distance_k_coloring(graph, greedy, k).valid
        for coloring, palette in pairs:
            assert _check_csr(csr, coloring, k, palette) is not None
            via_bfs = _sorted(
                check_distance_k_coloring(graph, coloring, k, palette)
            )
            via_csr = _sorted(
                check_distance_k_coloring(
                    graph, coloring, k, palette, adjacency=csr
                )
            )
            assert via_csr.valid == via_bfs.valid
            assert via_csr.conflicts == via_bfs.conflicts
            assert sorted(via_csr.uncolored) == sorted(via_bfs.uncolored)
            assert sorted(via_csr.out_of_palette) == sorted(
                via_bfs.out_of_palette
            )


#: Colors at and around the int64 limits of the fast path: inside
#: ±2⁶² it answers, at or beyond it the check declines to the BFS.
#: Wide spreads take int64 keys (2³¹, 2⁴⁰) or dense ranks (±2⁶²).
_EDGE_VALUES = (
    2**31, 2**40, 2**62 - 1, 1 - 2**62, 2**62 - 2, 2**62, -(2**62),
    2**63 - 1, -(2**63), 2**63, 2**64 + 5,
)


@st.composite
def graph_with_relay_coloring(draw, max_n: int = 12):
    """A graph (self-loops allowed) and a ``(coloring, palette)``
    case for distance 2: a greedy valid coloring or a hostile one
    mixing ``None``, out-of-palette and int64-edge values."""
    graph = draw(random_graphs(max_n=max_n))
    if draw(st.booleans()):
        graph.add_edges_from(
            (v, v)
            for v in draw(st.lists(st.sampled_from(sorted(graph.nodes))))
        )
    palette = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        hoods = d2_neighborhoods(graph)
        coloring = {}
        for v in sorted(graph.nodes):
            taken = {coloring.get(u) for u in hoods[v]}
            coloring[v] = next(
                c for c in range(len(graph)) if c not in taken
            )
        return graph, coloring, len(graph)
    value = st.one_of(
        st.none(),
        st.integers(min_value=-3, max_value=palette + 3),
        st.sampled_from(_EDGE_VALUES),
    )
    coloring = {v: draw(value) for v in graph.nodes}
    return graph, coloring, palette


def _csr_born(graph):
    """The CSR-born twin of a self-loop-free graph on ``0..n-1``: its
    order is ``range(n)``, so a column input lines up with it."""
    us, vs = zip(*graph.edges) if graph.number_of_edges() else ((), ())
    return build_csr_from_edges(len(graph), list(us), list(vs))


class TestRelayCheckerMatchesBfs:
    """The k = 2 fast path checks that every closed neighbourhood of G
    is rainbow (no G²); it must answer exactly like the BFS, for dict
    and column inputs alike, and decline whatever int64 cannot hold
    exactly."""

    @given(graph_with_relay_coloring())
    @settings(max_examples=300)
    def test_same_verdicts(self, case):
        from repro.exec.sweep import Coloring
        from repro.verify.checker import _check_csr

        graph, coloring, palette = case
        bfs = _sorted(check_distance_k_coloring(graph, coloring, 2, palette))
        inside = all(
            c is None or -(2**62) < c < 2**62 for c in coloring.values()
        )
        csrs = [build_csr(graph)]
        if not csrs[0].has_selfloops:
            csrs.append(_csr_born(graph))
        for csr in csrs:
            for given_as in (coloring, Coloring.from_mapping(coloring)):
                fast = _check_csr(csr, given_as, 2, palette)
                assert (fast is not None) == inside
                report = _sorted(
                    check_distance_k_coloring(
                        graph, given_as, 2, palette, adjacency=csr
                    )
                )
                assert report.valid == bfs.valid
                assert report.conflicts == bfs.conflicts
                assert sorted(report.uncolored) == sorted(bfs.uncolored)
                assert sorted(report.out_of_palette) == sorted(
                    bfs.out_of_palette
                )
                assert report.colors_used == bfs.colors_used
                assert report.explain() == bfs.explain()
        assert not csrs[0].has_square

    @pytest.mark.parametrize("colored", [True, False])
    def test_columns_are_read_in_place(self, colored, monkeypatch):
        # A column input whose nodes are the CSR order is checked off
        # its int64 column; no (node, color) pair is ever built.
        from repro.exec.sweep import Coloring
        from repro.results import aligned_column

        graph = random_regular(4, 24, seed=1)
        csr = graph.csr_adjacency
        coloring = Coloring(range(csr.n), [v % 7 for v in range(csr.n)])
        if not colored:
            coloring = Coloring(range(csr.n), [None] + [1] * (csr.n - 1))
        bfs = _sorted(check_distance_k_coloring(graph, dict(coloring), 2))
        if colored:
            monkeypatch.setattr(Coloring, "__iter__", None)
        assert (aligned_column(coloring, csr.order) is not None) == colored
        report = _sorted(
            check_distance_k_coloring(graph, coloring, 2, adjacency=csr)
        )
        assert report.conflicts == bfs.conflicts
        assert report.uncolored == bfs.uncolored
        assert report.colors_used == bfs.colors_used

    @pytest.mark.parametrize("labels", [range(4), (10, 20, 30, 40)])
    def test_misaligned_columns_read_by_node(self, labels):
        # A column over other nodes than the CSR order (same length)
        # is read node by node: the graph's nodes it lacks are
        # uncolored, exactly as the BFS reads its pairs.
        from repro.exec.sweep import Coloring

        graph = nx.relabel_nodes(nx.path_graph(4), dict(enumerate(labels)))
        csr = (
            build_csr_from_edges(4, [0, 1, 2], [1, 2, 3])
            if isinstance(labels, range)
            else build_csr(graph)
        )
        shifted = Coloring([v + 1 for v in labels], [0, 1, 2, 0])
        bfs = _sorted(check_distance_k_coloring(graph, dict(shifted), 2))
        report = _sorted(
            check_distance_k_coloring(graph, shifted, 2, adjacency=csr)
        )
        assert report.uncolored == bfs.uncolored != []
        assert report.conflicts == bfs.conflicts
        assert report.valid == bfs.valid

    def test_dense_rank_keys(self):
        # Colors spread over ±2⁶² leave no room for x·span keys: the
        # check ranks them densely and still finds every clash.
        graph = nx.path_graph(5)
        coloring = {0: 2**62 - 1, 1: 1 - 2**62, 2: 2**62 - 1, 3: 0, 4: 0}
        csr = build_csr(graph)
        report = _sorted(
            check_distance_k_coloring(graph, coloring, 2, adjacency=csr)
        )
        assert report.conflicts == [(0, 2), (3, 4)]


class TestDigestStability:
    """Satellite (f): cache identity is representation-independent —
    a CSR-born instance and its nx-built twin share a digest."""

    @pytest.mark.parametrize("seed", range(3))
    def test_csr_born_equals_nx_twin(self, seed):
        view = gnp_fast(200, 0.03, seed=seed)
        twin = nx.Graph()
        twin.add_nodes_from(range(200))
        twin.add_edges_from(view.edges)
        born = Instance.from_graph("gnp", seed, view)
        built = Instance.from_graph("gnp", seed, twin)
        assert born._csr_born and not built._csr_born
        assert born.digest() == built.digest()
        assert born.nodes == built.nodes
        assert born.edges == built.edges

    def test_edge_cases(self):
        cases = [
            (nx.empty_graph(0), nx.empty_graph(0)),
            (nx.empty_graph(1), nx.empty_graph(1)),
            (nx.Graph([(0, 1)]), nx.Graph([(0, 1)])),
        ]
        for graph, twin in cases:
            view = CSRGraphView(build_csr(graph))
            born = Instance.from_graph("w", 0, view)
            built = Instance.from_graph("w", 0, twin)
            assert born.digest() == built.digest()

    def test_digest_survives_pickle(self):
        import pickle

        view = random_regular(4, 30, seed=7)
        born = Instance.from_graph("rr", 7, view)
        clone = pickle.loads(pickle.dumps(born))
        assert clone.digest() == born.digest()
        assert clone._csr_born


class TestHugeDigestPins:
    """Seed-0 content digests of the CSR-born huge tier.  A drift in
    the sampler (or in numpy's ``log`` on another CPU or version)
    moves one of these instead of silently moving every fingerprint
    built on it."""

    PINS = {
        "gnp-huge-16384": "08375081f518c671145518eb5fa6579b"
        "38f1a3cd601960c8b77c48bd0e5d17a7",
        "gnp-huge-65536": "7fa2b12f943631d2dccb22dc507d7457"
        "96c3cf38a8cf2da884376b0346e53bfd",
        "rr4-huge-16384": "6c7bd9069d3b9f79c9188fb7b079cb51"
        "7a3387c2c779b29378a3c8f832443619",
        "gnp-huge-262144": "f3dd0491a9a137f113baea0fd4e5ed04"
        "f8ad768a0383129df86df0a88b1b5afe",
        "gnp-huge-1048576": "2c0303a90e9f76aa92875a613b0437bd"
        "efeedee02806192af19681d14eb88021",
    }

    @pytest.mark.parametrize(
        "workload",
        [
            "gnp-huge-16384",
            "gnp-huge-65536",
            "rr4-huge-16384",
            pytest.param("gnp-huge-262144", marks=pytest.mark.slow),
            pytest.param("gnp-huge-1048576", marks=pytest.mark.slow),
        ],
    )
    def test_seed0_digest(self, workload):
        instance = InstanceCache().get(workload, 0)
        assert instance._csr_born
        assert instance.digest() == self.PINS[workload]
