"""E21 — execution backends head-to-head.

Regenerates the E21 table: the round-level backends (``reference``,
``vectorized``) must produce identical colorings and round counts on
the large-tier workloads, ``vectorized`` must beat the ``reference``
generator loop wall-clock where a kernel applies, and a sweep grid
(the grid executor over those two engines) must aggregate
byte-identically at any worker count.

pytest-benchmark prints the timing rows: the per-backend wall-clock
on the largest corpus workload, the vectorized-over-reference speedup
on the trial kernel, and a per-kernel speedup row with a hard >= 2x
floor for the Step-0 deterministic chain that ``improved-d2color``
takes on rr4, the randomized d2-Color kernels on the Δ²-tight
Hoffman–Singleton graph (every stage runs as arrays) and the
locally-iterative / part-offset poly-phase kernels behind
deterministic-d2 and eps-d2-coloring.  Both legs of each ratio run
back to back in this process, so the floors compare like with like.
The instance-cache test asserts one G² build per instance, shared by
every cell of the grid, and prints what the cached CSR rows save the
checker.
"""

import random
import time

import pytest

from repro import registry
from repro.congest.network import Network
from repro.congest.policy import BandwidthPolicy
from repro.core.d2color import basic_d2_color, improved_d2_color
from repro.core.trying import all_colored
from repro.det.g_coloring import prime_between
from repro.det.locally_iterative import LocallyIterativeProgram
from repro.det.part_d2coloring import PartLocallyIterativeD2
from repro.graphs.instances import hoffman_singleton
from repro.exec import (
    SweepBackend,
    available_backends,
    get_backend,
    grid_cells,
    use_backend,
)
from repro.util.primes import bertrand_prime
from repro.harness.experiments import e21_backends
from repro.verify.checker import check_d2_coloring
from repro.workloads import (
    build_large_corpus,
    get_workload,
    instance_cache,
)

from conftest import report


def test_e21_backends(benchmark):
    table = benchmark.pedantic(e21_backends, iterations=1, rounds=1)
    report(table)


def _largest_spec():
    # Declared bounds make this free — no graph builds just to rank.
    corpus = build_large_corpus()
    return max(corpus, key=lambda s: s.n_bound or 0)


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_backend_wall_clock_largest_scenario(benchmark, backend):
    """Per-backend timing on the largest corpus workload; these rows
    make the engines' gap visible in benchmark history."""
    workload = _largest_spec()
    graph = instance_cache().get(workload, 21).graph()
    spec = registry.get_algorithm("naive-g2")
    policy = BandwidthPolicy.unbounded()

    result = benchmark.pedantic(
        lambda: spec.run(graph, seed=21, policy=policy, backend=backend),
        iterations=1,
        rounds=3,
    )
    assert result.complete
    assert result.metrics.total_messages > 0


def test_vectorized_speedup_on_trial(benchmark):
    """The tentpole number: the array engine's margin over reference
    on the kernel's home turf — the trial pipeline on the largest
    large-tier workload (best of 3 each)."""
    workload = _largest_spec()
    graph = instance_cache().get(workload, 21).graph()
    spec = registry.get_algorithm("trial")
    policy = BandwidthPolicy.unbounded()

    def run(backend):
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            result = spec.run(
                graph, seed=21, policy=policy, backend=backend
            )
            walls.append(time.perf_counter() - t0)
        return min(walls), result

    ref_s, ref = run("reference")
    vec_s, vec = benchmark.pedantic(
        lambda: run("vectorized"), iterations=1, rounds=1
    )
    assert vec.coloring == ref.coloring
    assert vec.rounds == ref.rounds
    assert vec.metrics.total_messages == ref.metrics.total_messages
    assert vec.metrics.max_message_bits == ref.metrics.max_message_bits
    speedup = ref_s / vec_s
    # The ISSUE's acceptance bar is >= 5x; assert a regression floor
    # below it so a noisy CI box does not flake the smoke job.
    assert speedup >= 2.0, (ref_s, vec_s)


def _distinct_colors(graph, bound, seed):
    rng = random.Random(seed)
    used = set()
    colors = {}
    for node in sorted(graph.nodes):
        while True:
            color = rng.randrange(bound)
            if color not in used:
                used.add(color)
                colors[node] = color
                break
    return colors


def test_kernel_speedup_step0_fallback(benchmark):
    """The Step-0 chain's margin over reference (one reference run
    against the best of 2 vectorized runs).

    Δ² < c2·log n on this workload, so ``improved-d2color``, run the
    way the registry runs it, hands the graph to the deterministic
    chain (Linial, locally-iterative, color reduction) — the
    ``det-fallback`` workload of ``perfbench``.  ``basic-d2color``
    takes the identical seed-free chain here, so one variant suffices.
    The randomized kernel's trials, similarity and ladder are floored
    by the Hoffman–Singleton legs below.  The reference chain runs
    once (~15 s on a 2-core host): jitter can only lengthen that one
    run and so raise the ratio, by far less than the ~32× headroom of
    the measured ~64× over the 2× floor.
    """
    instance = instance_cache().get(get_workload("rr4-huge-16384"), 7)
    spec = registry.get_algorithm("improved-d2color")

    def run(backend, repeats):
        walls = []
        result = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = spec.run_on(instance, seed=7, backend=backend)
            walls.append(time.perf_counter() - t0)
        return min(walls), result

    ref_s, ref = run("reference", 1)
    vec_s, vec = benchmark.pedantic(
        lambda: run("vectorized", 2), iterations=1, rounds=1
    )
    assert ref.params.get("deterministic_fallback")
    assert vec.params.get("deterministic_fallback")
    assert vec.coloring == ref.coloring
    assert vec.rounds == ref.rounds
    assert vec.metrics.total_messages == ref.metrics.total_messages
    assert vec.metrics.max_message_bits == ref.metrics.max_message_bits
    speedup = ref_s / vec_s
    assert speedup >= 2.0, (ref_s, vec_s)


#: Hoffman–Singleton seeds per variant: G² is complete on Δ²+1 nodes,
#: so similarity and the Reduce ladder always run (``basic`` seeds
#: whose final-reduce ends within ~5k rounds).
_TIGHT_SEEDS = {"improved": range(8), "basic": (1, 3)}


@pytest.mark.parametrize("variant", ["improved", "basic"])
def test_kernel_speedup_randomized_d2_tight(benchmark, variant):
    """The d2-Color kernel's margin over reference on a Δ²-tight graph
    (best of 2), Step-0 fallback left on: trials, similarity, every
    Reduce-Phase and, for ``improved``, LearnPalette and finish run as
    arrays."""
    graph = hoffman_singleton()
    color = improved_d2_color if variant == "improved" else basic_d2_color

    def run(backend):
        walls = []
        results = None
        for _ in range(2):
            t0 = time.perf_counter()
            with use_backend(backend):
                results = [
                    color(graph, seed=seed)
                    for seed in _TIGHT_SEEDS[variant]
                ]
            walls.append(time.perf_counter() - t0)
        return min(walls), results

    ref_s, refs = run("reference")
    vec_s, vecs = benchmark.pedantic(
        lambda: run("vectorized"), iterations=1, rounds=1
    )
    for ref, vec in zip(refs, vecs):
        assert not vec.params.get("deterministic_fallback")
        assert vec.coloring == ref.coloring
        assert vec.rounds == ref.rounds
        assert vec.metrics == ref.metrics
    speedup = ref_s / vec_s
    assert speedup >= 2.0, (ref_s, vec_s)


@pytest.mark.parametrize(
    "kernel", ["deterministic-d2", "eps-d2-coloring"]
)
def test_kernel_speedup_poly_phase(benchmark, kernel):
    """The poly-phase try-phase stages — the kernelized core of the
    deterministic-d2 and eps-d2-coloring pipelines — timed as the
    stage networks those pipelines build (best of 3 each)."""
    workload = get_workload("multileaf48x40")
    instance = instance_cache().get(workload, 21)
    graph = instance.graph()
    delta = instance.delta
    policy = BandwidthPolicy.unbounded()
    if kernel == "deterministic-d2":
        q = bertrand_prime(max(delta, 1))
        colors = _distinct_colors(graph, q * q, 21)
        inputs = {
            v: {"q": q, "color_in": colors[v]} for v in graph.nodes
        }
        program = LocallyIterativeProgram
    else:
        d_part = max(1, delta)
        q = prime_between(4 * d_part, 8 * d_part)
        colors = _distinct_colors(graph, q * q, 21)
        inputs = {
            v: {"q": q, "part": v % 4, "color_in": colors[v]}
            for v in graph.nodes
        }
        program = PartLocallyIterativeD2

    def run(backend):
        walls = []
        run_result = None
        for _ in range(3):
            network = Network(
                graph,
                program,
                seed=21,
                delta=delta,
                policy=policy,
                inputs=inputs,
            )
            t0 = time.perf_counter()
            run_result = get_backend(backend).execute(
                network,
                stop_when=all_colored,
                raise_on_timeout=False,
                max_rounds=3 * q + 3,
            )
            walls.append(time.perf_counter() - t0)
        return min(walls), run_result

    ref_s, ref = run("reference")
    vec_s, vec = benchmark.pedantic(
        lambda: run("vectorized"), iterations=1, rounds=1
    )
    assert vec.outputs == ref.outputs
    assert vec.metrics == ref.metrics
    speedup = ref_s / vec_s
    assert speedup >= 2.0, (ref_s, vec_s)


def test_sweep_backend_grid_smoke(benchmark):
    """A registry × workload × seed grid through the process pool."""
    assert available_backends() == ("reference", "vectorized")
    cells = grid_cells(
        specs=[
            registry.get_algorithm(name)
            for name in ("trial", "deterministic-d2", "greedy-oracle")
        ],
        seeds=(21,),
    )
    backend = SweepBackend(executor="process", max_workers=4)

    swept = benchmark.pedantic(
        lambda: backend.run_grid(cells), iterations=1, rounds=1
    )
    assert swept.ok, [c.error for c in swept.failures]
    assert len(swept.cells) == len(cells)
    assert swept.aggregate_metrics().total_messages > 0


def test_instance_cache_removes_per_cell_square_rebuild(benchmark):
    """The sweep hot path on the large tier: one G² derivation per
    instance, shared by every cell of the grid.

    Before the workload cache, ``run_conformance`` recomputed
    distance-2 adjacency per spec × scenario; now the cached instance
    supplies it, so the square-build counter must read exactly one
    per scenario however many specs sweep it.  The timing rows below
    quantify what that removes from each cell.
    """
    from repro.conformance import run_conformance

    cache = instance_cache()
    cache.clear()
    specs = [
        registry.get_algorithm(name)
        for name in (
            "trial",
            "deterministic-d2",
            "greedy-oracle",
            "dsatur-oracle",
        )
    ]
    workload = get_workload("cliques64x6")  # large tier, n = 384

    conformance = benchmark.pedantic(
        lambda: run_conformance(
            specs=specs,
            scenarios=[workload],
            seed=21,
            backend=SweepBackend(executor="thread", max_workers=4),
        ),
        iterations=1,
        rounds=1,
    )
    assert conformance.ok, conformance.explain()
    stats = cache.stats.snapshot()
    # The acceptance criterion: per-cell G² rebuild is gone from the
    # hot path — one derivation serves all four specs.
    assert stats["square_builds"] == 1, stats
    assert len(conformance.records) == len(specs)

    # Quantify the removed work: checker over the cached CSR rows vs
    # the per-cell BFS recomputation it replaced.
    instance = cache.get(workload, 21)
    coloring = dict(
        registry.get_algorithm("greedy-oracle")
        .run_on(instance)
        .coloring
    )
    bound = registry.get_algorithm("greedy-oracle").bound_for(
        instance.graph(), delta=instance.delta
    )
    t0 = time.perf_counter()
    cached = check_d2_coloring(
        instance.graph(), coloring, bound,
        adjacency=instance.csr(),
    )
    cached_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    bfs = check_d2_coloring(instance.graph(), coloring, bound)
    bfs_s = time.perf_counter() - t0
    assert cached.valid == bfs.valid
    print(
        f"{workload.name}: checker {cached_s * 1e3:.2f} ms over the "
        f"cached CSR rows, {bfs_s * 1e3:.2f} ms by per-node BFS"
    )
