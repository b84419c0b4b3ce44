"""The workload subsystem: registry, new families, instance cache.

Property tests (hypothesis) pin the registry contract for the new
generator families — power-law, weighted G(n,p), color-sampling,
congested-relay, virtualized-clique: builders are deterministic in
the seed, built graphs respect their declared n/Δ bounds, and every
family produces graphs the whole pipeline accepts end-to-end (run a
registry algorithm spec, validate with the independent checker).

The cache tests pin what the sweep hot path relies on: one build and
one G² derivation per (workload, params, seed) whatever the number of
cells, content-addressed interning for ad-hoc graphs, and pickling
that ships computed artifacts across process boundaries.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import graphs
from repro.registry import get_algorithm
from repro.verify.checker import check_d2_coloring
from repro.workloads import (
    InstanceCache,
    adhoc,
    build_corpus,
    build_large_corpus,
    get_workload,
    instance_cache,
    workload_names,
    workloads,
)

#: The families this PR introduces; each name is a registered
#: ``corpus``-tagged workload built by a new generator.
NEW_FAMILY_WORKLOADS = (
    "powerlaw24",
    "weighted-gnp24",
    "relay3x4",
    "virtual-clique5x3",
    "sampling-slack24",
)

seeds = st.integers(min_value=0, max_value=200)


def canonical(graph):
    return (
        tuple(sorted(graph.nodes)),
        tuple(sorted(tuple(sorted(e)) for e in graph.edges)),
    )


class TestRegistry:
    def test_corpus_slices_are_tagged(self):
        assert all("corpus" in s.tags for s in build_corpus())
        assert all("large" in s.tags for s in build_large_corpus())

    def test_names_unique_and_resolvable(self):
        corpus = build_corpus() + build_large_corpus()
        names = [s.name for s in corpus]
        assert len(names) == len(set(names))
        for spec in corpus:
            assert get_workload(spec.name) is spec

    def test_new_families_are_in_the_corpus(self):
        names = set(workload_names("corpus"))
        assert set(NEW_FAMILY_WORKLOADS) <= names

    def test_tag_filtering_is_conjunctive(self):
        relay = workloads("corpus", "relay")
        assert {s.name for s in relay} == {
            "relay3x4",
            "virtual-clique5x3",
        }

    def test_huge_tier_is_opt_in(self):
        huge = {s.name for s in workloads("huge")}
        assert huge
        assert not huge & {s.name for s in build_corpus()}
        assert not huge & {s.name for s in build_large_corpus()}

    def test_params_are_frozen_and_exposed(self):
        spec = get_workload("sampling-slack24")
        params = spec.param_dict()
        assert params["palette_slack"] == 2.0
        assert spec.params == tuple(sorted(params.items()))

    def test_adhoc_builds_unregistered_specs(self):
        import networkx as nx

        scenario = adhoc(
            "adhoc-path", lambda s: nx.path_graph(5), frozenset({"x"})
        )
        assert scenario.name == "adhoc-path"
        assert "x" in scenario.tags
        assert scenario.graph(3).number_of_nodes() == 5

    def test_named_instances_resolve_through_registry(self):
        cache = instance_cache()
        for name, n in (
            ("cycle5", 5), ("hoffman-singleton", 50), ("pg2_3", 26)
        ):
            spec = get_workload(name)
            assert "named" in spec.tags
            assert cache.get(spec, 0).n == n
        try:
            get_workload("nope")
        except KeyError as exc:
            assert "pg2_3" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected KeyError")


@st.composite
def new_family_specs(draw):
    return get_workload(draw(st.sampled_from(NEW_FAMILY_WORKLOADS)))


class TestNewFamilies:
    @given(spec=new_family_specs(), seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_builders_are_seed_deterministic(self, spec, seed):
        first = spec.graph(seed)
        second = spec.graph(seed)
        assert canonical(first) == canonical(second)

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_weighted_gnp_weights_are_seed_deterministic(self, seed):
        first = graphs.weighted_gnp(20, 0.2, seed=seed)
        second = graphs.weighted_gnp(20, 0.2, seed=seed)
        assert canonical(first) == canonical(second)
        for u, v in first.edges:
            weight = first.edges[u, v]["weight"]
            assert weight == second.edges[u, v]["weight"]
            assert 1 <= weight <= 16

    @given(spec=new_family_specs(), seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_declared_bounds_hold(self, spec, seed):
        graph = spec.graph(seed)
        delta = max((d for _, d in graph.degree), default=0)
        assert spec.n_bound is not None
        assert graph.number_of_nodes() <= spec.n_bound
        if spec.delta_bound is not None:
            assert delta <= spec.delta_bound

    @given(spec=new_family_specs(), seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_checker_accepts_family_end_to_end(self, spec, seed):
        """One registry spec, one new-family instance, full contract:
        run through AlgorithmSpec.run and validate independently."""
        algorithm = get_algorithm("trial")
        cache = InstanceCache()
        instance = cache.get(spec, seed)
        result = algorithm.run_on(instance, seed=seed)
        report = check_d2_coloring(
            instance.graph(),
            result.coloring,
            algorithm.palette_bound(instance.delta),
        )
        assert report.valid, report.explain()

    def test_relay_routes_cliques_through_relays(self):
        graph = graphs.congested_relay(4, 5, relays=2, seed=0)
        # Removing the relay nodes disconnects the cliques entirely.
        import networkx as nx

        stripped = graph.copy()
        stripped.remove_nodes_from([20, 21])
        components = list(nx.connected_components(stripped))
        assert len(components) == 4

    def test_virtualized_clique_shape(self):
        graph = graphs.virtualized_clique(4, parts=3, seed=1)
        assert graph.number_of_nodes() == 12
        # parts-1 path edges per virtual node + C(virtual, 2) edges.
        assert graph.number_of_edges() == 4 * 2 + 6

    def test_power_law_is_hub_skewed(self):
        graph = graphs.power_law(200, attach=2, seed=3)
        degrees = sorted((d for _, d in graph.degree), reverse=True)
        assert degrees[0] >= 3 * degrees[len(degrees) // 2]


class TestInstanceCache:
    def test_one_build_per_key(self):
        cache = InstanceCache()
        spec = get_workload("gnp24")
        first = cache.get(spec, 7)
        for _ in range(10):
            assert cache.get("gnp24", 7) is first
        assert cache.stats.builds == 1
        assert cache.stats.hits == 10

    def test_square_derived_once_and_matches_graphs_square(self):
        cache = InstanceCache()
        instance = cache.get("relay3x4", 2)
        csr = instance.square_csr()
        assert instance.square_csr() is csr
        assert cache.stats.square_builds == 1
        from repro.graphs.square import d2_neighborhoods

        indptr, indices = csr.g2_indptr, csr.g2_indices
        rows = {
            v: frozenset(
                csr.order[j]
                for j in indices[indptr[i]:indptr[i + 1]].tolist()
            )
            for i, v in enumerate(csr.order)
        }
        assert rows == d2_neighborhoods(instance.graph())
        assert cache.stats.square_builds == 1

    def test_distinct_seeds_are_distinct_entries(self):
        cache = InstanceCache()
        assert cache.get("gnp24", 0) is not cache.get("gnp24", 1)
        assert cache.stats.builds == 2

    def test_seed_free_workload_builds_once(self):
        cache = InstanceCache()
        first = cache.get("hoffman-singleton", 0)
        assert cache.get("hoffman-singleton", 1) is first
        assert cache.get(get_workload("hoffman-singleton"), 63) is first
        assert cache.stats.builds == 1 and cache.stats.hits == 2
        assert first.seed is None
        assert first.key == ("hoffman-singleton", (), None)

    def test_seed_free_specs_ignore_their_seed(self):
        for spec in workloads():
            if spec.seed_free:
                assert canonical(spec.graph(0)) == canonical(
                    spec.graph(12345)
                ), spec.name

    def test_seed_free_install_resolves_every_seed(self):
        # The spawn-worker path for a workload registered only in the
        # parent: one shipped instance answers every seed's cell.
        import networkx as nx

        from repro.workloads import Instance

        built = Instance.from_graph(
            "parent-only-path", None, nx.path_graph(5),
            registered=True,
        )
        worker = InstanceCache()
        worker.install([built])
        assert worker.get("parent-only-path", 0) is built
        assert worker.get("parent-only-path", 9) is built
        assert worker.stats.builds == 0

    def test_seed_free_prebuild_ships_one_instance(self):
        from repro.exec.sweep import SweepCell, prebuild_instances

        cells = [
            SweepCell.from_workload("trial", "petersen", seed)
            for seed in range(4)
        ]
        [instance] = prebuild_instances(cells)
        # Both engines read the CSR, so it is built before shipping.
        assert instance._csr is not None

    def test_adhoc_interning_is_content_addressed(self):
        import networkx as nx

        cache = InstanceCache()
        a = cache.intern_graph("thing", 0, nx.path_graph(6))
        b = cache.intern_graph("thing", 0, nx.path_graph(6))
        c = cache.intern_graph("thing", 0, nx.cycle_graph(6))
        assert a is b
        assert c is not a
        assert a.digest() != c.digest()

    def test_pickle_ships_computed_artifacts(self):
        cache = InstanceCache()
        instance = cache.get("powerlaw24", 4)
        instance.square_csr()
        delta = instance.delta
        shipped = pickle.loads(pickle.dumps(instance))
        # Artifacts arrive prebuilt: reading them must not recompute.
        receiver = InstanceCache()
        receiver.install([shipped])
        assert receiver.get("powerlaw24", 4) is shipped
        assert receiver.stats.builds == 0
        assert shipped.csr().has_square
        shipped.square_csr()
        assert receiver.stats.square_builds == 0
        assert receiver.stats.csr_builds == 0
        assert shipped.delta == delta
        assert canonical(shipped.graph()) == canonical(
            instance.graph()
        )

    def test_global_cache_is_shared(self):
        assert instance_cache() is instance_cache()

    def test_installed_instances_resolve_without_registration(self):
        """The spawn-worker path: a workload registered only in the
        parent still resolves by name once its prebuilt instance is
        installed (no worker-side registry entry needed)."""
        from repro.workloads import Instance, workload

        parent_only = workload(
            "parent-only-gnp",
            "gnp",
            lambda seed, n: graphs.weighted_gnp(n, 0.2, seed=seed),
            {"n": 12},
        )
        assert parent_only.name not in set(workload_names())
        built = Instance.from_graph(
            parent_only.name, 5, parent_only.graph(5),
            parent_only.params,
            registered=True,  # was registered on the parent side
        )
        worker = InstanceCache()
        worker.install([built])
        assert worker.get("parent-only-gnp", 5) is built
        assert worker.stats.builds == 0

    def test_adhoc_install_never_answers_workload_lookups(self):
        """A name collision between an ad-hoc scenario and a
        parent-only workload must not resolve workload-keyed cells
        to the ad-hoc graph."""
        import networkx as nx

        from repro.workloads import Instance

        adhoc_built = Instance.from_graph(
            "collides", 5, nx.path_graph(4)
        )
        worker = InstanceCache()
        worker.install([adhoc_built])
        try:
            worker.get("collides", 5)
        except KeyError:
            pass
        else:  # pragma: no cover
            raise AssertionError("ad-hoc instance leaked by name")

    def test_unregistered_spec_objects_are_content_interned(self):
        """Two ad-hoc specs sharing a name never alias each other."""
        import networkx as nx

        cache = InstanceCache()
        first = cache.get(adhoc("x", lambda s: nx.path_graph(5)), 0)
        second = cache.get(adhoc("x", lambda s: nx.cycle_graph(5)), 0)
        assert first is not second
        assert first.digest() != second.digest()
        assert len(second.graph().edges) == 5  # really the cycle

    def test_weighted_attrs_survive_pickling(self):
        """Edge weights (and node attrs) reapply on the rebuilt
        graph after a process/shard boundary."""
        cache = InstanceCache()
        instance = cache.get("weighted-gnp24", 3)
        original = instance.graph()
        shipped = pickle.loads(pickle.dumps(instance))
        rebuilt = shipped.graph()
        assert rebuilt.edges == original.edges
        for u, v in original.edges:
            assert (
                rebuilt.edges[u, v]["weight"]
                == original.edges[u, v]["weight"]
            )

    def test_intern_canonicalizes_payload(self):
        """Regression: duplicate/reversed edges and self-loops in the
        caller payload used to inflate ``delta`` and split digests."""
        cache = InstanceCache()
        clean = cache.intern(
            "canon", 0, (0, 1, 2, 3), ((0, 1), (1, 2), (2, 3))
        )
        messy = cache.intern(
            "canon", 0, (3, 2, 1, 0),
            ((1, 0), (0, 1), (1, 2), (2, 3), (2, 2), (3, 3)),
        )
        assert messy is clean
        assert messy.digest() == clean.digest()
        assert messy.delta == 2  # not inflated by dups/self-loops
        assert canonical(messy.graph()) == canonical(clean.graph())

    def test_intern_graph_carries_attrs_through_pickle(self):
        """Regression: ``intern_graph`` used to drop node/edge
        attributes, so weighted ad-hoc graphs lost their weights at
        every process/shard boundary."""
        cache = InstanceCache()
        weighted = graphs.weighted_gnp(12, 0.3, seed=6, max_weight=9)
        instance = cache.intern_graph("adhoc-weighted", 0, weighted)
        shipped = pickle.loads(pickle.dumps(instance))
        shipped._graph = None  # force a rebuild from the payload
        rebuilt = shipped.graph()
        assert set(rebuilt.edges) == set(weighted.edges)
        for u, v in weighted.edges:
            assert (
                rebuilt.edges[u, v]["weight"]
                == weighted.edges[u, v]["weight"]
            )

    def test_attrs_are_part_of_the_content_digest(self):
        """Same topology, different attributes: distinct instances."""
        import networkx as nx

        cache = InstanceCache()
        bare = nx.path_graph(4)
        weighted = nx.path_graph(4)
        for u, v in weighted.edges:
            weighted.edges[u, v]["weight"] = u + v
        a = cache.intern_graph("attr-digest", 0, bare)
        b = cache.intern_graph("attr-digest", 0, weighted)
        assert a is not b
        assert a.digest() != b.digest()

    def test_install_adhoc_does_not_shadow_registered_workload(self):
        """Regression: ``install()`` used to store ad-hoc instances
        under the ``(name, params, seed)`` primary key, shadowing (or
        evicting) a registered workload of the same name."""
        import networkx as nx

        from repro.workloads import Instance

        cache = InstanceCache()
        registered = cache.get("petersen", 0)
        impostor = Instance.from_graph(
            "petersen", 0, nx.path_graph(3)
        )
        cache.install([impostor])
        assert cache.get("petersen", 0) is registered
        assert cache.get("petersen", 0).delta == 3

    def test_lru_eviction_bounds_the_store(self):
        cache = InstanceCache(max_instances=2)
        first = cache.get("gnp24", 0)
        cache.get("gnp24", 1)
        cache.get("gnp24", 0)  # refresh: 0 is now most recent
        cache.get("gnp24", 2)  # evicts seed 1, not seed 0
        assert len(cache) == 2
        assert cache.get("gnp24", 0) is first
        builds = cache.stats.builds
        cache.get("gnp24", 1)  # evicted: rebuilt
        assert cache.stats.builds == builds + 1


class TestAliasLeakRegression:
    """Regression: re-storing a primary key with a *different* alias
    set used to leak the old aliases — they survived the primary's
    eviction and resolved to a dead key forever."""

    def _registered_instance(self, edges):
        from repro.workloads import Instance

        nodes = tuple(sorted({v for e in edges for v in e}))
        return Instance(
            "restored-workload", 0, nodes, tuple(edges),
            registered=True,
        )

    def test_restore_drops_the_previous_alias_set(self):
        old = self._registered_instance([(0, 1)])
        new = self._registered_instance([(0, 1), (1, 2)])
        assert old.key == new.key and old.digest() != new.digest()
        cache = InstanceCache()
        cache.install([old])
        stale_alias = ("adhoc", old.workload, old.seed, old.digest())
        assert cache._lookup(stale_alias) is old
        cache.install([new])  # same primary, different content alias
        assert stale_alias not in cache._aliases
        assert cache._lookup(stale_alias) is None
        fresh_alias = ("adhoc", new.workload, new.seed, new.digest())
        assert cache._lookup(fresh_alias) is new

    def test_no_alias_outlives_its_evicted_primary(self):
        cache = InstanceCache(max_instances=1)
        cache.install([self._registered_instance([(0, 1)])])
        cache.install(
            [self._registered_instance([(0, 1), (1, 2)])]
        )
        # Evict the (single) re-stored primary with an unrelated get.
        cache.get("gnp24", 0)
        assert len(cache) == 1
        assert cache._aliases == {}  # nothing points at dead keys

    def test_prewarm_tags_survive_until_clear(self):
        cache = InstanceCache()
        tag = ("shard-prebuild", "digest", "reference")
        assert not cache.was_prewarmed(tag)
        cache.mark_prewarmed(tag)
        assert cache.was_prewarmed(tag)
        cache.clear()
        assert not cache.was_prewarmed(tag)


class TestConformanceUsesCache:
    def test_serial_conformance_derives_square_once_per_scenario(self):
        """The satellite fix: contract checks take the cached G²
        instead of recomputing per spec × scenario."""
        from repro.conformance import run_conformance

        cache = instance_cache()
        cache.clear()
        specs = [get_algorithm(n) for n in ("trial", "greedy-oracle")]
        scenarios = [
            get_workload(n) for n in ("gnp24", "relay3x4", "petersen")
        ]
        report = run_conformance(
            specs=specs, scenarios=scenarios, seed=9
        )
        assert report.ok, report.explain()
        # 6 (spec, scenario) cells, but G² derived once per scenario.
        assert len(report.records) == 6
        assert cache.stats.square_builds == len(scenarios)
        cache.clear()
