"""The differential conformance runner.

Executes every registered algorithm on every applicable scenario and
checks the shared contract:

- the coloring is checker-valid (``repro.verify.checker``, reading
  the G² CSR rows of the workload instance cache, so G² is derived
  once per instance instead of once per spec × scenario — the
  CSR-vs-BFS agreement itself is property-tested independently in
  ``tests/test_csr_parity.py``);
- the coloring is complete and uses at most the spec's palette bound;
- distributed runs are metered by :mod:`repro.congest.metrics`
  against the bandwidth policy (budget recorded, zero violations when
  the spec promises compliance, traffic actually observed);
- differentially: algorithms must agree with the centralized oracle
  that the instance is colorable within the common Δ²+1 budget, and
  no distributed algorithm may use *fewer* colors than the scenario's
  chromatic lower bound witnessed by the oracle's validity check.
- the same seed reproduces the identical coloring (repeatability).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro import registry
from repro.congest.policy import BandwidthPolicy
from repro.graphs.square import max_degree
from repro.obs import trace as obs_trace
from repro.registry import AlgorithmSpec
from repro.results import ColoringResult
from repro.util.tables import ascii_table
from repro.verify.checker import check_d2_coloring
from repro.workloads import (
    Instance,
    WorkloadSpec,
    build_corpus,
    instance_cache,
    is_registered_spec,
)

#: Specs whose runs (on every engine) and checks never read G²: their
#: try phases and the checker decide distance-2 clashes at the common
#: neighbours.  A scenario running only these is not prewarmed with G².
_NO_SQUARE = frozenset({"trial", "trial-slack"})


def coloring_fingerprint(result: ColoringResult) -> Tuple:
    """Canonical, comparable form of a coloring (for repeatability)."""
    return tuple(sorted(result.coloring.items()))


def _scenario_instance(scenario, seed: int) -> Instance:
    """The cached instance behind a scenario (registered workloads hit
    the registry cache; ad-hoc scenarios are interned by content)."""
    cache = instance_cache()
    if is_registered_spec(scenario):
        return cache.get(scenario, seed)
    return cache.intern_graph(scenario.name, seed, scenario.graph(seed))


@dataclass
class ConformanceRecord:
    """Outcome of one (algorithm, scenario) execution."""

    scenario: str
    algorithm: str
    colors_used: int = 0
    palette_bound: int = 0
    rounds: int = 0
    messages: int = 0
    failures: List[str] = field(default_factory=list)
    #: True when the run raised instead of returning a coloring; such
    #: records carry no result and are excluded from differential
    #: cross-checks.
    raised: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


@dataclass
class ConformanceReport:
    """All records of one conformance sweep."""

    records: List[ConformanceRecord] = field(default_factory=list)
    #: (scenario, algorithm) pairs skipped by the supports predicate.
    skipped: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def failures(self) -> List[ConformanceRecord]:
        return [r for r in self.records if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def explain(self) -> str:
        if self.ok:
            return (
                f"conformance ok: {len(self.records)} runs, "
                f"{len(self.skipped)} skipped"
            )
        lines = [f"conformance FAILED ({len(self.failures)} records):"]
        for record in self.failures:
            for reason in record.failures:
                lines.append(
                    f"  {record.scenario} / {record.algorithm}: {reason}"
                )
        return "\n".join(lines)

    def summary(self) -> str:
        rows = [
            [
                r.scenario,
                r.algorithm,
                r.colors_used,
                r.palette_bound,
                r.rounds,
                r.messages,
                "ok" if r.ok else "; ".join(r.failures),
            ]
            for r in self.records
        ]
        return ascii_table(
            [
                "scenario",
                "algorithm",
                "colors",
                "bound",
                "rounds",
                "messages",
                "status",
            ],
            rows,
        )


def _check_record(
    record: ConformanceRecord,
    spec: AlgorithmSpec,
    graph: nx.Graph,
    result: ColoringResult,
    policy: BandwidthPolicy,
    check_repeatability: bool,
    seed: int,
    backend=None,
    instance: Optional[Instance] = None,
) -> None:
    """Validate one run against the contract.

    ``instance``, when given, supplies the cached derived artifacts
    (Δ, the CSR rows the checker's relay check reads) so the checks
    reuse one computation per instance instead of recomputing per
    spec × scenario.
    """
    if instance is not None:
        delta = instance.delta
        adjacency = instance.csr()
    else:
        delta = max_degree(graph)
        adjacency = None
    bound = spec.palette_bound(delta)
    record.colors_used = result.colors_used
    record.palette_bound = bound
    record.rounds = result.rounds
    record.messages = result.metrics.total_messages

    report = check_d2_coloring(
        graph, result.coloring, bound, adjacency=adjacency
    )
    if not report.valid:
        record.fail(f"checker: {report.explain()}")
    if not result.complete:
        record.fail("coloring incomplete (uncolored nodes)")
    if set(result.coloring) != set(graph.nodes):
        record.fail("coloring domain differs from node set")
    if result.colors_used > bound:
        record.fail(
            f"palette bound exceeded: {result.colors_used} > {bound}"
        )

    if spec.distributed:
        metrics = result.metrics
        expected_budget = policy.budget_bits(graph.number_of_nodes())
        # Zero-communication runs (e.g. Δ = 0 early exits) have no
        # traffic to meter; otherwise the recorded budget must be the
        # policy's.
        if metrics.total_messages > 0 and metrics.budget_bits != expected_budget:
            record.fail(
                "bandwidth not metered against the policy budget "
                f"({metrics.budget_bits} != {expected_budget})"
            )
        if (
            graph.number_of_edges() > 0
            and result.rounds > 0
            and metrics.total_messages == 0
        ):
            record.fail("no traffic metered despite communication rounds")
        if spec.expects_compliant and not metrics.compliant:
            record.fail(
                f"{metrics.violations} bandwidth violations "
                f"(worst {metrics.worst_violation_bits} bits over "
                f"budget {metrics.budget_bits})"
            )

    if check_repeatability:
        again = spec.run(graph, seed=seed, policy=policy, backend=backend)
        if coloring_fingerprint(again) != coloring_fingerprint(result):
            record.fail("same seed produced a different coloring")


def evaluate_pair(
    spec: AlgorithmSpec,
    graph: nx.Graph,
    scenario_name: str,
    seed: int,
    policy: BandwidthPolicy,
    check_repeatability: bool = False,
    backend=None,
    instance: Optional[Instance] = None,
) -> ConformanceRecord:
    """Run one (algorithm, scenario) cell and check the contract."""
    record = ConformanceRecord(scenario_name, spec.name)
    with obs_trace.span(
        "conformance.pair",
        algorithm=spec.name,
        scenario=scenario_name,
        seed=seed,
    ) as sp:
        try:
            result = spec.run(
                graph, seed=seed, policy=policy, backend=backend
            )
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            record.raised = True
            record.fail(f"raised {type(exc).__name__}: {exc}")
            sp.annotate(passed=False, error=True)
            return record
        _check_record(
            record,
            spec,
            graph,
            result,
            policy,
            check_repeatability,
            seed,
            backend,
            instance=instance,
        )
        sp.annotate(passed=record.ok)
    return record


class _CellEvaluator:
    """Picklable per-cell conformance worker for sweep grids.

    Runs the full contract check (checker validity, palette bound,
    metering, repeatability) *inside* the worker, so the expensive
    part of large-instance conformance parallelizes instead of
    serializing in the parent.  The cell's instance — including the
    prebuilt CSR and G² rows shipped through the pool initializer —
    comes from the worker's :func:`~repro.workloads.instance_cache`,
    so neither the kernels nor the checks rebuild them per cell.

    Registered specs travel by name and are re-resolved from the
    worker's registry; ad-hoc specs (``run_conformance(specs=[...])``
    with something never registered — a spec under development, a
    deliberately lying spec in a test) travel by value in
    ``extra_specs``.  Ad-hoc specs therefore work on any executor
    whose task transport can carry them (always for ``serial`` and
    ``thread``; for ``process`` they must be picklable).
    """

    __slots__ = ("policy", "check_repeatability", "inner", "extra_specs")

    def __init__(self, policy, check_repeatability, inner, extra_specs):
        self.policy = policy
        self.check_repeatability = check_repeatability
        self.inner = inner
        self.extra_specs = extra_specs

    def __call__(self, cell) -> ConformanceRecord:
        spec = self.extra_specs.get(cell.algorithm)
        if spec is None:
            spec = registry.get_algorithm(cell.algorithm)
        instance = cell.instance()
        return evaluate_pair(
            spec,
            instance.graphlike(),
            cell.scenario,
            cell.seed,
            self.policy,
            self.check_repeatability,
            self.inner,
            instance=instance,
        )


def _differential_checks(
    scenario,
    n: int,
    delta: int,
    scenario_records: List[ConformanceRecord],
) -> None:
    """Cross-checks over one scenario's full result set (in place)."""
    # On Moore graphs ("tight" scenarios) G² is complete, so every
    # valid coloring is a rainbow: all algorithms must agree on
    # exactly n colors, whatever their palette bound.
    if "tight" in scenario.tags:
        for record in scenario_records:
            if record.ok and record.colors_used != n:
                record.fail(
                    "differential: Moore instance needs exactly "
                    f"{n} colors, used {record.colors_used}"
                )
    # Feasibility agreement: of the algorithms whose declared bound
    # fits the common Δ²+1 budget, at least one must witness a
    # coloring within it.  (Slack-palette specs are allowed to exceed
    # it; they are no witness either way.)
    common = delta * delta + 1
    witnesses = [
        r for r in scenario_records if r.palette_bound <= common
    ]
    if witnesses and min(r.colors_used for r in witnesses) > common:
        for record in witnesses:
            record.fail(
                "differential: no algorithm stayed within the "
                f"common Δ²+1 = {common} budget"
            )


def run_conformance(
    specs: Optional[Sequence[AlgorithmSpec]] = None,
    scenarios: Optional[Sequence[WorkloadSpec]] = None,
    seed: int = 0,
    policy: Optional[BandwidthPolicy] = None,
    check_repeatability: bool = False,
    backend=None,
) -> ConformanceReport:
    """Differentially run ``specs`` × ``scenarios`` and check them all.

    Scenario instances come from the workload cache, built once per
    scenario with their derived artifacts (Δ, the G² CSR rows) shared
    by every algorithm — that is what makes the sweep differential
    rather than a set of independent smoke tests, and what keeps the
    contract checks off the per-cell G²-rebuild path.

    The matrix is always a grid of cells mapped through a
    :class:`~repro.exec.sweep.SweepBackend`, with the contract checks
    executing inside its workers against prebuilt instances.
    ``backend`` is that grid executor, or the engine every cell runs
    on (a name such as "vectorized", an engine object, or ``None``
    for the ambient engine), run on a serial grid.  Reports are
    identical either way — cells are self-contained and collected in
    grid order.
    """
    from repro.exec import get_backend
    from repro.exec.sweep import SweepBackend, SweepCell

    # Read ALGORITHMS through the module attribute (not a frozen
    # from-import) so specs registered after import are swept too.
    specs = (
        list(specs) if specs is not None else list(registry.ALGORITHMS)
    )
    scenarios = (
        list(scenarios) if scenarios is not None else build_corpus()
    )
    policy = policy or BandwidthPolicy()
    grid = (
        backend
        if isinstance(backend, SweepBackend)
        else SweepBackend(executor="serial", inner=backend)
    )
    # An unknown engine name raises here, not inside every cell.
    get_backend(grid.inner)
    report = ConformanceReport()

    cells = []
    positions = []  # the scenario position of each cell
    instances = []
    for position, scenario in enumerate(scenarios):
        instance = _scenario_instance(scenario, seed)
        instances.append(instance)
        graph = instance.graphlike()
        keyed = is_registered_spec(scenario)
        first_cell = len(cells)
        for spec in specs:
            if not spec.applicable(graph):
                report.skipped.append((scenario.name, spec.name))
                continue
            # The evaluator carries the policy; cells stay lean:
            # workload-keyed when registered (resolved through the
            # worker cache seeded with the prebuilt instances),
            # payload- and attribute-carrying otherwise.
            if keyed:
                cells.append(
                    SweepCell.from_workload(spec.name, scenario.name, seed)
                )
            else:
                cells.append(
                    SweepCell.from_graph(
                        spec.name, scenario.name, seed, graph
                    )
                )
            positions.append(position)
        if any(
            cell.algorithm not in _NO_SQUARE for cell in cells[first_cell:]
        ):
            # Derive G² once, in the parent, so process workers
            # running G²-reading kernels receive the rows prebuilt.
            instance.square_csr()
    extra_specs = {}
    for spec in specs:
        try:
            registered = registry.get_algorithm(spec.name)
        except KeyError:
            registered = None
        if registered is not spec:
            extra_specs[spec.name] = spec
    evaluator = _CellEvaluator(
        policy, check_repeatability, grid.inner, extra_specs
    )
    report.records = grid.map(evaluator, cells, instances=instances)

    # Differential cross-checks over each scenario's result set,
    # grouped by position: two scenarios may share a name.
    by_position: Dict[int, List[ConformanceRecord]] = {}
    for position, record in zip(positions, report.records):
        if not record.raised:
            by_position.setdefault(position, []).append(record)
    for position, records in by_position.items():
        instance = instances[position]
        _differential_checks(
            scenarios[position], instance.n, instance.delta, records
        )
    return report
