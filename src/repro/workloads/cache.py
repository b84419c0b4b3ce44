"""Content-addressed instance cache with memoized derived artifacts.

Building a workload graph is cheap; the *derived* artifacts — Δ and
the CSR arrays of G and G² (:meth:`Instance.csr`,
:meth:`Instance.square_csr`) — are the dominant cost of a sweep cell
now that the round loop is fast.  An :class:`Instance` bundles a
built graph with those artifacts, computed lazily and exactly once;
an :class:`InstanceCache` content-addresses instances by
``(workload, params, seed)`` so every spec × backend × seed cell of a
grid shares the same artifact instead of rebuilding it.

Process-pool workers receive the *prebuilt* artifact, not a rebuild
recipe: :meth:`SweepBackend.map <repro.exec.sweep.SweepBackend.map>`
ships prewarmed instances through the pool initializer
(:func:`install_prebuilt`), and pickling an :class:`Instance`
preserves whatever derived artifacts were already computed.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

import networkx as nx

from repro.exec.arrays import (
    CSRAdjacency,
    build_csr_from_payload,
    csr_upper_edges,
    register_csr,
)
from repro.graphs.csrgraph import CSRGraphView
from repro.obs import trace as obs_trace
from repro.workloads.spec import ParamsKey, get_workload

#: str-chunk size for the streaming digest / payload materialization.
_CHUNK = 65536


def _stream_csr_digest(csr: CSRAdjacency) -> str:
    """sha256 of ``repr((nodes, edges, ((), ())))`` computed straight
    from the CSR arrays, byte-identical to the tuple-repr digest an
    nx-built twin produces — without materializing the tuples.

    Only valid for attribute-free identity-labeled instances (what
    the CSR-direct generators emit); the equivalence is pinned by the
    digest-stability regression test.
    """
    h = hashlib.sha256()
    n = csr.n
    # repr of the node tuple (0, 1, ..., n-1)
    if n == 0:
        h.update(b"((), ")
    elif n == 1:
        h.update(b"((0,), ")
    else:
        h.update(b"((")
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            tail = ", " if hi < n else "), "
            h.update(
                (", ".join(map(str, range(lo, hi))) + tail)
                .encode("utf-8")
            )
    # repr of the sorted edge tuple ((u0, v0), (u1, v1), ...)
    us, vs = csr_upper_edges(csr)
    m = us.size
    if m == 0:
        h.update(b"(), ")
    elif m == 1:
        h.update(f"(({us[0]}, {vs[0]}),), ".encode("utf-8"))
    else:
        h.update(b"(")
        for lo in range(0, m, _CHUNK):
            hi = min(lo + _CHUNK, m)
            chunk = ", ".join(
                f"({u}, {v})"
                for u, v in zip(
                    us[lo:hi].tolist(), vs[lo:hi].tolist()
                )
            )
            tail = ", " if hi < m else "), "
            h.update((chunk + tail).encode("utf-8"))
    # repr of the empty attrs pair, closing the outer tuple
    h.update(b"((), ()))")
    return h.hexdigest()


def canonical_nodes_edges(
    graph: nx.Graph,
) -> Tuple[Tuple[Any, ...], Tuple[Tuple[Any, Any], ...]]:
    """The canonical picklable payload of a graph: sorted nodes and
    sorted normalized edges (the same form :class:`SweepCell` ships)."""
    nodes = tuple(sorted(graph.nodes))
    edges = tuple(sorted(tuple(sorted(e)) for e in graph.edges))
    return nodes, edges


def canonical_payload(
    nodes: Iterable[Any], edges: Iterable[Tuple[Any, Any]]
) -> Tuple[Tuple[Any, ...], Tuple[Tuple[Any, Any], ...]]:
    """Normalize a caller-supplied payload to the canonical form:
    sorted unique nodes (endpoints included), sorted deduplicated
    undirected edges, self-loops dropped.  Without this, duplicate or
    reversed edges inflate :attr:`Instance.delta` (degree is summed
    over the raw edge list) and the same graph gets two different
    content digests."""
    node_set = set(nodes)
    edge_set = set()
    for u, v in edges:
        if u == v:
            continue
        if v < u:
            u, v = v, u
        edge_set.add((u, v))
        node_set.add(u)
        node_set.add(v)
    return tuple(sorted(node_set)), tuple(sorted(edge_set))


def extract_attrs(
    graph: nx.Graph,
) -> Tuple[Dict[Any, Dict], Dict[Tuple, Dict]]:
    """Node/edge attribute dicts in the separately-carried form
    :class:`Instance` reapplies after a process or shard boundary."""
    node_attrs = {
        v: dict(data) for v, data in graph.nodes(data=True) if data
    }
    edge_attrs = {
        tuple(sorted((u, v))): dict(data)
        for u, v, data in graph.edges(data=True)
        if data
    }
    return node_attrs, edge_attrs


class Instance:
    """One built workload instance plus its memoized derived artifacts.

    Node/edge payloads are canonical (sorted, attribute-free) — the
    same normal form sweep cells have always shipped — so the content
    digest, and therefore every run fingerprint, is independent of
    builder-side dict ordering and of graph attributes.  Attributes
    (edge weights, node positions) are carried *separately* and
    reapplied when the graph is rebuilt after a process or shard
    boundary, so attribute-consuming policies see the same graph on
    every execution path.

    CSR-born instances (built by the CSR-direct generators, arriving
    as a :class:`CSRGraphView`) keep the arrays as the *primary*
    artifact: the node/edge tuples, the content digest, Δ, and the
    G² rows all come straight from the CSR, and the nx graph
    is built (as a copy of the view) only if a fallback/reference
    path asks for it.

    The graph returned by :meth:`graph` is the shared cached object —
    callers must not mutate it (copy first).  ``seed`` is the build
    seed, ``None`` for a seed-free workload (one instance serves every
    seed; a cell's own seed lives on the cell).
    """

    __slots__ = (
        "workload",
        "params",
        "seed",
        "_nodes",
        "_edges",
        "registered",
        "_node_attrs",
        "_edge_attrs",
        "_graph",
        "_graphlike",
        "_csr_born",
        "_delta",
        "_csr",
        "_digest",
        "_stats",
    )

    def __init__(
        self,
        workload: str,
        seed: int,
        nodes: Optional[Tuple[Any, ...]],
        edges: Optional[Tuple[Tuple[Any, Any], ...]],
        params: ParamsKey = (),
        graph: Optional[nx.Graph] = None,
        registered: bool = False,
        node_attrs: Optional[Dict[Any, Dict]] = None,
        edge_attrs: Optional[Dict[Tuple, Dict]] = None,
        csr: Optional[CSRAdjacency] = None,
        graphlike: Optional[nx.Graph] = None,
    ):
        if nodes is None and csr is None:
            raise ValueError(
                "an Instance needs a payload or a CSR artifact"
            )
        self.workload = workload
        self.seed = seed
        self._nodes = nodes
        self._edges = edges
        self.params = params
        #: True when built from a *registered* workload spec — the
        #: only instances a worker may resolve by bare (name, seed).
        self.registered = registered
        self._node_attrs = node_attrs or {}
        self._edge_attrs = edge_attrs or {}
        self._graph = graph
        #: The compatibility view a CSR-born instance was built from
        #: (not pickled — rebuilt from the CSR after a boundary);
        #: :meth:`graph` is its ``copy()``.
        self._graphlike = graphlike
        self._csr_born = csr is not None and nodes is None
        self._delta: Optional[int] = None
        self._csr = csr
        self._digest: Optional[str] = None
        #: Stats of the owning cache (bound on get/intern/install) so
        #: derivation counters land where the instance lives.
        self._stats: Optional["CacheStats"] = None

    @classmethod
    def from_graph(
        cls,
        workload: str,
        seed: int,
        graph: nx.Graph,
        params: ParamsKey = (),
        registered: bool = False,
    ) -> "Instance":
        born = getattr(graph, "csr_adjacency", None)
        if (
            isinstance(graph, CSRGraphView)
            and born is not None
            and not born.has_selfloops
        ):
            # CSR-born: the arrays ARE the payload (identity labels,
            # no attributes) — nothing tuple-shaped gets built here.
            return cls(
                workload,
                seed,
                None,
                None,
                params,
                registered=registered,
                csr=born,
                graphlike=graph,
            )
        nodes, edges = canonical_nodes_edges(graph)
        node_attrs, edge_attrs = extract_attrs(graph)
        return cls(
            workload,
            seed,
            nodes,
            edges,
            params,
            graph,
            registered=registered,
            node_attrs=node_attrs,
            edge_attrs=edge_attrs,
        )

    # -- the canonical payload (lazy for CSR-born instances) -------------

    @property
    def nodes(self) -> Tuple[Any, ...]:
        if self._nodes is None:
            self._nodes = tuple(range(self._csr.n))
        return self._nodes

    @property
    def edges(self) -> Tuple[Tuple[Any, Any], ...]:
        if self._edges is None:
            us, vs = csr_upper_edges(self._csr)
            self._edges = tuple(zip(us.tolist(), vs.tolist()))
        return self._edges

    # -- identity --------------------------------------------------------

    @property
    def key(self) -> Tuple[str, ParamsKey, int]:
        return (self.workload, self.params, self.seed)

    def digest(self) -> str:
        """Content address: sha256 over the canonical payload plus
        the carried attributes (two topologically equal graphs with
        different edge weights are different content).  CSR-born
        instances stream the identical bytes from the arrays — the
        digest-stability regression test pins the equivalence."""
        if self._digest is None:
            if self._csr_born:
                self._digest = _stream_csr_digest(self._csr)
            else:
                attrs = (
                    tuple(sorted(
                        (v, tuple(sorted(data.items())))
                        for v, data in self._node_attrs.items()
                    )),
                    tuple(sorted(
                        (edge, tuple(sorted(data.items())))
                        for edge, data in self._edge_attrs.items()
                    )),
                )
                payload = repr(
                    (self.nodes, self.edges, attrs)
                ).encode("utf-8")
                self._digest = hashlib.sha256(payload).hexdigest()
        return self._digest

    # -- the graph and its derived artifacts -----------------------------

    def graph(self) -> nx.Graph:
        """A real ``nx.Graph`` for fallback/reference paths
        (memoized; rebuilt — attributes included — from the canonical
        payload after crossing a process boundary).  Hot paths should
        prefer :meth:`graphlike`, which keeps CSR-born instances on
        the array view.  Shared: do not mutate."""
        if self._graph is None:
            if self._csr_born:
                graph = self.graphlike().copy()
            else:
                graph = nx.Graph()
                graph.add_nodes_from(self.nodes)
                graph.add_edges_from(self.edges)
                for v, data in self._node_attrs.items():
                    graph.nodes[v].update(data)
                for (u, v), data in self._edge_attrs.items():
                    if graph.has_edge(u, v):
                        graph.edges[u, v].update(data)
            self._graph = graph
            if self._csr is not None:
                # A shipped CSR artifact must be reachable from the
                # rebuilt graph object, not just from the instance.
                register_csr(graph, self._csr)
        return self._graph

    def graphlike(self) -> nx.Graph:
        """The cheapest graph-shaped object for this instance: the
        :class:`CSRGraphView` for CSR-born instances (rebuilt from
        the arrays after a process boundary), the real graph
        otherwise.  Every read-only consumer should take this."""
        if self._csr_born:
            if self._graphlike is None:
                self._graphlike = CSRGraphView(self.csr())
            return self._graphlike
        return self.graph()

    @property
    def n(self) -> int:
        if self._nodes is None:
            return self._csr.n
        return len(self._nodes)

    @property
    def m(self) -> int:
        """Number of edges (self-loops of a payload included)."""
        if self._edges is None:
            return int(self._csr.g_indices.size) // 2
        return len(self._edges)

    @property
    def delta(self) -> int:
        """Maximum degree (memoized, computable without the graph)."""
        if self._delta is None:
            if self._csr is not None and not self._csr.has_selfloops:
                self._delta = int(
                    self._csr.degrees.max(initial=0)
                )
            else:
                # Legacy payload walk; counts a self-loop as +2 like
                # nx degree does (the CSR arrays drop self-loops, so
                # they cannot answer this case).
                degree: Dict[Any, int] = {}
                for u, v in self.edges:
                    degree[u] = degree.get(u, 0) + 1
                    degree[v] = degree.get(v, 0) + 1
                self._delta = max(degree.values(), default=0)
        return self._delta

    def square_csr(self) -> CSRAdjacency:
        """The CSR artifact with its G² rows forced, counting the
        derivation exactly once per instance.  Callers that need the
        distance-2 structure (checker fast path, conformance prewarm)
        should take this rather than touching ``csr().g2_indptr``
        directly, so ``stats.square_builds`` keeps meaning "G²
        derivations"."""
        csr = self.csr()
        if not csr.has_square and self._stats is not None:
            self._stats.square_builds += 1
        csr.g2_indptr  # noqa: B018 - forces the lazy derivation
        return csr

    def csr(self) -> CSRAdjacency:
        """The CSR-form G/G² adjacency arrays the ``vectorized``
        backend and the checker fast path execute over (see
        :mod:`repro.exec.arrays`) — the primary artifact, shipped
        prebuilt through pickling.  Never materializes the nx graph;
        if one already exists it is seeded into the per-graph-object
        registry so kernels running on :meth:`graph` find the same
        arrays."""
        if self._csr is None:
            if self._stats is not None:
                self._stats.csr_builds += 1
            self._csr = build_csr_from_payload(
                self.nodes, self.edges
            )
        if self._graph is not None:
            register_csr(self._graph, self._csr)
        return self._csr

    # -- pickling: ship computed artifacts, drop rebuildable objects -----

    def __getstate__(self):
        return {
            "workload": self.workload,
            "params": self.params,
            "seed": self.seed,
            "nodes": self._nodes,
            "edges": self._edges,
            "registered": self.registered,
            "node_attrs": self._node_attrs,
            "edge_attrs": self._edge_attrs,
            "csr_born": self._csr_born,
            "delta": self._delta,
            "csr": self._csr,
            "digest": self._digest,
        }

    def __setstate__(self, state):
        self.workload = state["workload"]
        self.params = state["params"]
        self.seed = state["seed"]
        self._nodes = state["nodes"]
        self._edges = state["edges"]
        self.registered = state["registered"]
        self._node_attrs = state["node_attrs"]
        self._edge_attrs = state["edge_attrs"]
        self._graph = None
        self._graphlike = None
        self._csr_born = state.get("csr_born", False)
        self._delta = state["delta"]
        self._csr = state.get("csr")
        self._digest = state["digest"]
        self._stats = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Instance {self.workload!r} seed={self.seed} "
            f"n={self.n} m={self.m}>"
        )


@dataclass
class CacheStats:
    """Counters exposed for tests and the bench assertions."""

    hits: int = 0
    misses: int = 0
    builds: int = 0
    square_builds: int = 0
    csr_builds: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "square_builds": self.square_builds,
            "csr_builds": self.csr_builds,
        }

    def delta(self, baseline: Dict[str, int]) -> "CacheStats":
        """The activity since ``baseline`` (a prior :meth:`snapshot`)
        as a fresh :class:`CacheStats` — what a sweep attributes to
        itself when the cache is shared across runs."""
        current = self.snapshot()
        return CacheStats(
            **{
                name: current[name] - baseline.get(name, 0)
                for name in current
            }
        )

    def add(self, other: "CacheStats") -> None:
        """Accumulate another stats object into this one (shard
        merge)."""
        self.hits += other.hits
        self.misses += other.misses
        self.builds += other.builds
        self.square_builds += other.square_builds
        self.csr_builds += other.csr_builds


class InstanceCache:
    """Memoizing store of built :class:`Instance` objects.

    Primary keys are ``(workload name, params, seed)`` — valid
    because the registry contract makes builders deterministic in the
    seed — with ``None`` for the seed of a ``seed_free`` spec, whose
    one instance serves every seed.  Ad-hoc graphs (never registered) are interned under their
    content digest instead, so two different ad-hoc instances can
    share a display name without colliding.  Installed (prebuilt)
    instances are additionally reachable by ``(name, seed)`` alone,
    so a pool worker resolves workload-keyed cells even when the
    workload was registered only in the parent process.

    ``max_instances`` bounds the store (least-recently-used instance
    evicted, with all its alias keys); the default keeps long-lived
    processes from accumulating every large-tier G² ever derived.
    """

    def __init__(self, max_instances: Optional[int] = 256):
        #: primary key -> instance, in LRU order.
        self._primary: "OrderedDict[Tuple, Instance]" = OrderedDict()
        #: alias key -> primary key.
        self._aliases: Dict[Tuple, Tuple] = {}
        #: primary key -> alias keys, for eviction.
        self._alias_index: Dict[Tuple, Tuple[Tuple, ...]] = {}
        #: advisory prewarm markers (see :meth:`mark_prewarmed`).
        self._prewarmed: set = set()
        self.max_instances = max_instances
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._primary)

    def clear(self) -> None:
        self._primary.clear()
        self._aliases.clear()
        self._alias_index.clear()
        self._prewarmed.clear()
        self.stats = CacheStats()

    # -- the keyed store -------------------------------------------------

    def _lookup(self, key: Tuple) -> Optional[Instance]:
        primary = self._aliases.get(key, key)
        hit = self._primary.get(primary)
        if hit is not None:
            self._primary.move_to_end(primary)
        return hit

    def _store(
        self,
        primary: Tuple,
        instance: Instance,
        aliases: Tuple[Tuple, ...] = (),
    ) -> Instance:
        instance._stats = self.stats
        # Re-storing a primary replaces its alias set: the previous
        # aliases would otherwise leak — surviving the primary's
        # eviction and resolving to a dead key forever.
        for stale in self._alias_index.pop(primary, ()):
            if self._aliases.get(stale) == primary:
                del self._aliases[stale]
        self._primary[primary] = instance
        self._primary.move_to_end(primary)
        self._alias_index[primary] = aliases
        for alias in aliases:
            self._aliases[alias] = primary
        while (
            self.max_instances is not None
            and len(self._primary) > self.max_instances
        ):
            evicted, _ = self._primary.popitem(last=False)
            for alias in self._alias_index.pop(evicted, ()):
                self._aliases.pop(alias, None)
        return instance

    # -- lookup / build --------------------------------------------------

    def get(self, workload, seed: int = 0) -> Instance:
        """The cached instance for a workload (building, once, on
        miss).  ``workload`` is a spec or a registry name.

        An unregistered *name* still resolves if a prebuilt
        registered instance was :meth:`install`-ed under it (the
        worker-pool path).  An unregistered *spec object* (e.g. a
        :func:`~repro.workloads.adhoc` spec) is content-interned instead of
        keyed by name, so two ad-hoc specs sharing a name can never
        alias each other's graphs.
        """
        from repro.workloads.spec import is_registered_spec

        if isinstance(workload, str):
            try:
                spec = get_workload(workload)
            except KeyError:
                hit = self._lookup(
                    ("installed", workload, seed)
                ) or self._lookup(("installed", workload, None))
                if hit is not None:
                    self.stats.hits += 1
                    return hit
                raise
        else:
            spec = workload
        if not is_registered_spec(spec):
            return self.intern_graph(
                spec.name, seed, spec.graph(seed)
            )
        key_seed = None if spec.seed_free else seed
        key = (spec.name, spec.params, key_seed)
        hit = self._lookup(key)
        if hit is not None:
            self.stats.hits += 1
            return hit
        self.stats.misses += 1
        self.stats.builds += 1
        with obs_trace.span(
            "workloads.build", workload=spec.name, seed=seed
        ) as sp:
            instance = Instance.from_graph(
                spec.name, key_seed, spec.graph(seed), spec.params,
                registered=True,
            )
            sp.annotate(n=instance.n, m=instance.m)
        return self._store(key, instance)

    def intern(
        self,
        name: str,
        seed: int,
        nodes: Tuple[Any, ...],
        edges: Tuple[Tuple[Any, Any], ...],
        node_attrs: Optional[Dict[Any, Dict]] = None,
        edge_attrs: Optional[Dict[Tuple, Dict]] = None,
    ) -> Instance:
        """The cached instance for an ad-hoc (unregistered) payload,
        content-addressed so equal payloads share artifacts.

        The payload is canonicalized first (duplicate/reversed edges
        and self-loops would otherwise inflate ``delta`` and split
        the content address), and node/edge attributes are carried on
        the instance so they survive pickling to workers and shards.
        """
        nodes, edges = canonical_payload(nodes, edges)
        node_attrs = {
            v: dict(data)
            for v, data in (node_attrs or {}).items()
            if data
        }
        edge_attrs = {
            tuple(sorted((u, v))): dict(data)
            for (u, v), data in (edge_attrs or {}).items()
            if data and u != v
        }
        probe = Instance(
            name,
            seed,
            nodes,
            edges,
            node_attrs=node_attrs,
            edge_attrs=edge_attrs,
        )
        key = ("adhoc", name, seed, probe.digest())
        hit = self._lookup(key)
        if hit is not None:
            self.stats.hits += 1
            return hit
        self.stats.misses += 1
        return self._store(key, probe)

    def intern_graph(
        self, name: str, seed: int, graph: nx.Graph
    ) -> Instance:
        nodes, edges = canonical_nodes_edges(graph)
        node_attrs, edge_attrs = extract_attrs(graph)
        instance = self.intern(
            name,
            seed,
            nodes,
            edges,
            node_attrs=node_attrs,
            edge_attrs=edge_attrs,
        )
        born = getattr(graph, "csr_adjacency", None)
        selfloop_free = (
            not born.has_selfloops
            if born is not None
            else nx.number_of_selfloops(graph) == 0
        )
        if instance._graph is None and selfloop_free:
            # Self-loop graphs were canonicalized away from the
            # caller's object — let graph() rebuild those instead.
            instance._graph = graph
            if instance._csr is None and born is not None:
                instance._csr = born
        return instance

    # -- prewarm bookkeeping ---------------------------------------------

    def mark_prewarmed(self, tag: Tuple) -> None:
        """Record that the work named by ``tag`` (e.g. "every
        instance of manifest X is built") has been done in this
        process, so repeat callers — a fleet worker claiming its
        second, third, ... shard of the same manifest — skip the
        prebuild scan.  Advisory only: eviction may still drop an
        instance, in which case the normal cache miss path rebuilds
        it (correctness is unaffected, the prewarm is purely warm-up).
        """
        self._prewarmed.add(tag)

    def was_prewarmed(self, tag: Tuple) -> bool:
        return tag in self._prewarmed

    # -- prebuilt installation (worker-side) -----------------------------

    def install(self, instances: Iterable[Instance]) -> int:
        """Adopt prebuilt instances (pool-initializer path).

        Instances built from a *registered* workload land under their
        registry key, an ad-hoc content alias, and an
        ``("installed", name, seed)`` alias, so a worker resolves
        workload-keyed cells even when the workload is registered
        only in the parent.  Ad-hoc instances live *only* in the
        ad-hoc content namespace — storing them under the bare
        ``(name, params, seed)`` registry key would collide with (and
        evict or shadow) a same-named registered workload with empty
        params, and a name collision must never let a workload-keyed
        cell resolve to an ad-hoc graph.
        """
        count = 0
        for instance in instances:
            content_key = (
                "adhoc",
                instance.workload,
                instance.seed,
                instance.digest(),
            )
            if instance.registered:
                aliases = (
                    content_key,
                    ("installed", instance.workload, instance.seed),
                )
                self._store(instance.key, instance, aliases)
            else:
                self._store(content_key, instance)
            count += 1
        return count


# ----------------------------------------------------------------------
# the process-global cache

_CACHE = InstanceCache()


def instance_cache() -> InstanceCache:
    """The process-global cache (each pool worker holds its own,
    seeded by :func:`install_prebuilt` for process executors)."""
    return _CACHE


def install_prebuilt(instances: Iterable[Instance]) -> None:
    """Pool-initializer target: adopt parent-prebuilt instances."""
    _CACHE.install(instances)
