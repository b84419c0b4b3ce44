"""The sweep grid executor: batch grids over worker pools.

A *sweep* executes a grid of independent cells — algorithm × instance
× seed — and aggregates the results.  Cells are self-contained and
picklable: the algorithm travels by registry name, the policy as a
frozen dataclass, and the instance either as a *workload key*
(resolved through :mod:`repro.workloads` and its content-addressed
:class:`~repro.workloads.cache.InstanceCache`) or, for ad-hoc graphs,
as a plain node/edge listing.  The same grid runs unchanged on a
serial loop, a thread pool, a process pool — or sharded across hosts
through :mod:`repro.exec.shards`.

Workload-keyed cells are the fast path: the parent prebuilds each
referenced instance once (graph, Δ, and whatever CSR/G² arrays the
caller has derived) and process-pool workers receive the prebuilt
artifact through the pool initializer instead of rebuilding per cell.

Determinism is a contract, not an accident: results are collected in
*submission order* (never completion order) and each cell is seeded
individually from its own ``seed`` field, so the same grid produces
byte-identical aggregated results whatever the worker count or
scheduling interleaving (property-tested in
``tests/test_sweep_properties.py``; shard-merge equivalence in
``tests/test_sweep_shards.py``).

A :class:`SweepBackend` is not an engine: each cell runs on its
``inner`` engine (``reference`` or ``vectorized``).
"""

from __future__ import annotations

import concurrent.futures
import hashlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import networkx as nx
import numpy as np

from repro.congest.metrics import RunMetrics
from repro.congest.policy import BandwidthPolicy
from repro.obs import trace as obs_trace
from repro.results import ArrayColoring, column

#: Admissible ``executor`` values for :class:`SweepBackend`.
EXECUTORS = ("serial", "thread", "process")


@dataclass(frozen=True)
class SweepCell:
    """One self-contained grid point: algorithm × instance × seed.

    The instance is referenced by ``workload`` key when it comes from
    the workload registry — workers resolve it through the shared
    :class:`~repro.workloads.cache.InstanceCache`, so one build serves
    every cell of the same (workload, seed) — and travels as
    ``(nodes, edges)`` tuples otherwise (ad-hoc graphs), so the cell
    pickles cheaply and every worker rebuilds the *identical* instance
    (no generator re-sampling drift).
    """

    algorithm: str
    scenario: str
    seed: int
    nodes: Tuple[int, ...] = ()
    edges: Tuple[Tuple[int, int], ...] = ()
    policy: Optional[BandwidthPolicy] = None
    #: Workload registry key; when set, ``nodes``/``edges`` stay empty
    #: and the instance resolves through the cache.
    workload: Optional[str] = None
    #: Node/edge attributes of ad-hoc payloads, in canonical hashable
    #: form: ``((node, ((key, value), ...)), ...)`` sorted by node and
    #: ``(((u, v), ((key, value), ...)), ...)`` sorted by edge.  Empty
    #: for attribute-free graphs, so old pickles/JSON stay valid.
    node_attrs: Tuple = ()
    edge_attrs: Tuple = ()

    @staticmethod
    def from_graph(
        algorithm: str,
        scenario: str,
        seed: int,
        graph: nx.Graph,
        policy: Optional[BandwidthPolicy] = None,
    ) -> "SweepCell":
        return SweepCell(
            algorithm=algorithm,
            scenario=scenario,
            seed=seed,
            nodes=tuple(sorted(graph.nodes)),
            edges=tuple(
                sorted(tuple(sorted(e)) for e in graph.edges)
            ),
            policy=policy,
            node_attrs=tuple(
                sorted(
                    (v, tuple(sorted(data.items())))
                    for v, data in graph.nodes(data=True)
                    if data
                )
            ),
            edge_attrs=tuple(
                sorted(
                    (tuple(sorted((u, v))), tuple(sorted(data.items())))
                    for u, v, data in graph.edges(data=True)
                    if data and u != v
                )
            ),
        )

    @staticmethod
    def from_workload(
        algorithm: str,
        workload: str,
        seed: int,
        policy: Optional[BandwidthPolicy] = None,
    ) -> "SweepCell":
        """A cell referencing a registered workload by key."""
        return SweepCell(
            algorithm=algorithm,
            scenario=workload,
            seed=seed,
            policy=policy,
            workload=workload,
        )

    def instance(self):
        """The cached :class:`~repro.workloads.cache.Instance` backing
        this cell (workload-keyed cells hit the registry cache; ad-hoc
        payloads are interned by content digest)."""
        from repro.workloads import instance_cache

        cache = instance_cache()
        if self.workload is not None:
            return cache.get(self.workload, self.seed)
        return cache.intern(
            self.scenario,
            self.seed,
            self.nodes,
            self.edges,
            node_attrs={v: dict(items) for v, items in self.node_attrs},
            edge_attrs={
                edge: dict(items) for edge, items in self.edge_attrs
            },
        )

    def graph(self) -> nx.Graph:
        """The cheapest graph-shaped object for this cell, shared
        through the cache (a CSR-backed view for CSR-born
        instances)."""
        return self.instance().graphlike()

    def delta(self) -> int:
        """Maximum degree (from the cached instance artifact)."""
        return self.instance().delta


class Coloring:
    """A cell's coloring as two aligned columns: ``nodes`` (strictly
    ascending) and ``colors``.

    A column is int64 when every value is an exact ``int`` (not
    ``bool``) inside int64, and an object array otherwise (a ``None``
    left by a cut-off run, an int beyond int64); ``dtype == object``
    is the one branch its readers take.  Iteration yields ``(node,
    color)`` pairs in node order, so ``dict(coloring)`` is the plain
    mapping.  ``repr`` and equality go through :attr:`sha256`, a
    digest of the canonical bytes, so a 2**20-node coloring prints in
    one short line.  Immutable.
    """

    __slots__ = ("nodes", "colors", "_sha256")

    def __init__(self, nodes=(), colors=()):
        nodes, colors = column(nodes), column(colors)
        if len(nodes) != len(colors):
            raise ValueError(
                f"coloring columns differ in length: {len(nodes)} "
                f"nodes, {len(colors)} colors"
            )
        if nodes.dtype != object and not _ascending(nodes):
            raise ValueError("coloring nodes must be strictly ascending")
        self.nodes = nodes
        self.colors = colors
        self._sha256: Optional[str] = None

    @classmethod
    def from_mapping(cls, mapping) -> "Coloring":
        """The coloring of a ``{node: color}`` mapping, sorted by node
        (argsorted only when the keys are not already ascending).  An
        :class:`~repro.results.ArrayColoring` hands over its columns
        without a per-node pass."""
        if isinstance(mapping, ArrayColoring):
            return cls(*mapping.columns())
        nodes = column(mapping.keys())
        colors = column(mapping.values())
        if nodes.dtype == object:
            order = sorted(range(len(nodes)), key=nodes.__getitem__)
        elif not _ascending(nodes):
            order = np.argsort(nodes, kind="stable")
        else:
            return cls(nodes, colors)
        return cls(nodes[order], colors[order])

    @property
    def sha256(self) -> str:
        """Hex digest of both columns' canonical bytes: an int64
        column hashes as little-endian int64, an object column as the
        ``repr`` of its list; each under its own tag and length."""
        if self._sha256 is None:
            digest = hashlib.sha256()
            for col in (self.nodes, self.colors):
                if col.dtype == object:
                    tag, data = b"object", repr(col.tolist()).encode()
                else:
                    tag, data = b"<i8", col.astype("<i8").tobytes()
                digest.update(b"%s:%d:" % (tag, len(data)))
                digest.update(data)
            self._sha256 = digest.hexdigest()
        return self._sha256

    def columns(self):
        """``(nodes, colors)``, the two columns as they are."""
        return self.nodes, self.colors

    def __iter__(self):
        return zip(self.nodes.tolist(), self.colors.tolist())

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self.sha256 == other.sha256

    def __repr__(self) -> str:
        return f"Coloring(n={len(self)}, sha256={self.sha256})"


def _ascending(col: np.ndarray) -> bool:
    return bool((col[1:] > col[:-1]).all())


@dataclass
class CellResult:
    """Outcome of one executed :class:`SweepCell`."""

    algorithm: str
    scenario: str
    seed: int
    colors_used: int = 0
    palette_size: int = 0
    rounds: int = 0
    metrics: RunMetrics = field(default_factory=RunMetrics)
    #: The final coloring, node-sorted columns (``dict(coloring)`` is
    #: the ``{node: color}`` mapping; ``repr`` is its digest).
    coloring: Coloring = field(default_factory=Coloring)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepResult:
    """All cell results of one grid execution, in submission order."""

    cells: List[CellResult] = field(default_factory=list)
    #: Instance-cache activity attributed to this sweep (hits, misses,
    #: csr/square builds) — filled by :meth:`SweepBackend.run_grid`
    #: and shard merging; ``None`` for hand-assembled results.
    #: Deliberately excluded from :meth:`fingerprint`: cache hit/miss
    #: patterns depend on what ran before, not on the grid's outcome.
    cache_stats: Optional[Any] = None

    @property
    def failures(self) -> List[CellResult]:
        return [c for c in self.cells if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def aggregate_metrics(self) -> RunMetrics:
        """Merge every cell's :class:`RunMetrics` (rounds add up).

        When cache activity was recorded (:attr:`cache_stats`), the
        returned object additionally carries it as a plain
        ``cache_stats`` attribute — *not* a dataclass field, so the
        metrics ``repr`` (and every fingerprint built from it) is
        byte-identical with and without observability."""
        merged = RunMetrics()
        for cell in self.cells:
            merged = merged.merge(cell.metrics)
        if self.cache_stats is not None:
            merged.cache_stats = self.cache_stats
        return merged

    def fingerprint(self) -> bytes:
        """Canonical byte serialization, for determinism checks: the
        ``repr`` of every cell's fields, so each coloring enters as
        its :class:`Coloring` digest and a cell costs a few hundred
        bytes however large its instance."""
        return repr(
            [
                (
                    c.algorithm,
                    c.scenario,
                    c.seed,
                    c.colors_used,
                    c.palette_size,
                    c.rounds,
                    c.metrics,
                    c.coloring,
                    c.error,
                )
                for c in self.cells
            ]
        ).encode("utf-8")


def run_cell(cell: SweepCell, inner: str = "reference") -> CellResult:
    """Execute one cell (module-level, so process pools can pickle it).

    Exceptions become ``error`` fields rather than poisoning the whole
    grid — a sweep is a survey, not an assertion.
    """
    from repro import registry

    rec = obs_trace.recorder()
    trace_t0 = rec.clock() if rec is not None else 0.0

    def traced(cell_result: CellResult) -> CellResult:
        if rec is not None:
            attrs = {
                "algorithm": cell.algorithm,
                "scenario": cell.scenario,
                "seed": cell.seed,
                "rounds": cell_result.rounds,
                "messages": cell_result.metrics.total_messages,
                "bits": cell_result.metrics.total_bits,
            }
            if cell_result.error is not None:
                attrs["error"] = cell_result.error
            rec.complete("sweep.cell", trace_t0, attrs)
        return cell_result

    try:
        spec = registry.get_algorithm(cell.algorithm)
        graph = cell.graph()
        result = spec.run(
            graph, seed=cell.seed, policy=cell.policy, backend=inner
        )
    except Exception as exc:  # noqa: BLE001 - reported per cell
        return traced(
            CellResult(
                algorithm=cell.algorithm,
                scenario=cell.scenario,
                seed=cell.seed,
                error=f"{type(exc).__name__}: {exc}",
            )
        )
    return traced(
        CellResult(
            algorithm=cell.algorithm,
            scenario=cell.scenario,
            seed=cell.seed,
            colors_used=result.colors_used,
            palette_size=result.palette_size,
            rounds=result.rounds,
            metrics=result.metrics,
            coloring=Coloring.from_mapping(result.coloring),
        )
    )


def prebuild_instances(cells: Sequence[SweepCell]) -> List:
    """Build (once, via the cache) every instance a grid references.

    Returns the distinct :class:`~repro.workloads.cache.Instance`
    objects in first-reference order — the payload
    :meth:`SweepBackend.map` ships to process-pool workers.  Their CSR
    arrays, which both engines read (the reference engine resumes
    nodes in their order), are built in the parent too, so workers
    never rebuild them.
    """
    seen = {}
    for cell in cells:
        # Workload-keyed and ad-hoc cells live in separate dedup
        # namespaces: an ad-hoc scenario sharing a workload's name
        # must not shadow (or be shadowed by) the workload instance.
        if cell.workload is not None:
            key = ("workload", cell.workload, cell.seed)
        else:
            key = (
                "adhoc",
                cell.scenario,
                cell.seed,
                cell.nodes,
                cell.edges,
                cell.node_attrs,
                cell.edge_attrs,
            )
        if key in seen:
            continue
        seen[key] = cell.instance()
    # A seed-free workload's seeds share one instance: ship it once.
    instances = list({id(inst): inst for inst in seen.values()}.values())
    for instance in instances:
        instance.delta  # noqa: B018 - memoize before pickling
        instance.csr()
    return instances


class SweepBackend:
    """Grid executor over :mod:`concurrent.futures` workers.

    Parameters
    ----------
    max_workers:
        Pool width (``None``: the executor's default).  ``1`` always
        degrades to the serial loop.
    executor:
        ``"process"`` (default; true parallelism for the CPU-bound
        simulator), ``"thread"`` (cheap startup, useful for small
        grids and property tests) or ``"serial"``.
    inner:
        Engine each cell runs on: a registered engine name, or (on
        the serial executor) an engine object or ``None`` for the
        ambient engine.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        executor: str = "process",
        inner: str = "reference",
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}; got {executor!r}"
            )
        self.max_workers = max_workers
        self.executor = executor
        self.inner = inner

    def _pool(self, instances: Sequence = ()):
        if self.executor == "thread":
            # Threads share the parent's cache; nothing to ship.
            return concurrent.futures.ThreadPoolExecutor(
                max_workers=self.max_workers
            )
        if instances:
            from repro.workloads import install_prebuilt

            return concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=install_prebuilt,
                initargs=(list(instances),),
            )
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers
        )

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        instances: Sequence = (),
    ) -> List[Any]:
        """Run ``fn`` over ``items``, results in submission order.

        The submission-order guarantee (as opposed to completion
        order) is what makes sweep aggregation deterministic under
        any worker count.  ``instances`` are prebuilt workload
        instances (see :func:`prebuild_instances`) installed into each
        process worker's cache before the first cell runs.
        """
        items = list(items)
        serial = (
            self.executor == "serial"
            or self.max_workers == 1
            or len(items) <= 1
        )
        if serial:
            return [fn(item) for item in items]
        with self._pool(instances) as pool:
            futures = [pool.submit(fn, item) for item in items]
            return [future.result() for future in futures]

    def run_grid(self, cells: Sequence[SweepCell]) -> SweepResult:
        """Execute every cell and aggregate, deterministically.

        Instances referenced by the grid are prebuilt once in the
        parent and shared with the workers (shipped prebuilt for
        process pools; via the common cache otherwise).
        """
        from repro.workloads import instance_cache

        cache = instance_cache()
        baseline = cache.stats.snapshot()
        with obs_trace.span(
            "sweep.grid",
            cells=len(cells),
            inner=self.inner,
            executor=self.executor,
        ) as sp:
            with obs_trace.span("sweep.prebuild"):
                instances = prebuild_instances(cells)
            results = self.map(
                _CellRunner(self.inner), cells, instances=instances
            )
            errors = sum(1 for c in results if not c.ok)
            # The cache activity this grid caused in *this* process
            # (prebuild + serial/thread cells; process-pool workers
            # keep their own caches).  Traced on the span and
            # attached to the result — never part of the fingerprint.
            delta = cache.stats.delta(baseline)
            sp.annotate(errors=errors, cache=delta.snapshot())
        return SweepResult(cells=results, cache_stats=delta)


class _CellRunner:
    """Picklable ``cell -> CellResult`` closure over the inner backend."""

    __slots__ = ("inner",)

    def __init__(self, inner: str):
        self.inner = inner

    def __call__(self, cell: SweepCell) -> CellResult:
        return run_cell(cell, inner=self.inner)


def grid_cells(
    specs: Optional[Sequence] = None,
    scenarios: Optional[Sequence] = None,
    seeds: Iterable[int] = (0,),
    policy: Optional[BandwidthPolicy] = None,
) -> List[SweepCell]:
    """Build the registry × workload × seed grid.

    ``specs`` defaults to the full algorithm registry; ``scenarios``
    (anything with ``.name`` and ``.graph(seed)`` — workload specs,
    or ad-hoc scenario objects) defaults to
    :func:`repro.workloads.build_corpus`.  Registered workloads yield
    workload-keyed cells (cache-shared instances); ad-hoc scenarios
    embed their node/edge payload.  Cells a spec's ``supports``
    predicate rejects are left out of the grid.
    """
    from repro import registry
    from repro.workloads import instance_cache, is_registered_spec

    if specs is None:
        specs = list(registry.ALGORITHMS)
    if scenarios is None:
        from repro.workloads import build_corpus

        scenarios = build_corpus()
    cells: List[SweepCell] = []
    cache = instance_cache()
    for scenario in scenarios:
        registered = is_registered_spec(scenario)
        for seed in seeds:
            if registered:
                graph = cache.get(scenario, seed).graphlike()
            else:
                graph = scenario.graph(seed)
            for spec in specs:
                if not spec.applicable(graph):
                    continue
                if registered:
                    cells.append(
                        SweepCell.from_workload(
                            spec.name, scenario.name, seed, policy
                        )
                    )
                else:
                    cells.append(
                        SweepCell.from_graph(
                            spec.name, scenario.name, seed, graph, policy
                        )
                    )
    return cells
