"""Raw performance of the substrate (wall-clock micro-benchmarks).

These complement the experiment benches: they time the simulator's
round loop, the square-graph computation, and the centralized greedy
oracle, so regressions in the substrate show up independently of the
algorithms.

Each row's best wall-clock is persisted to
``results/BENCH_simulator_perf.json`` for cross-PR tracking.
"""

import networkx as nx

from repro.baselines.greedy import greedy_d2_coloring
from repro.congest.network import run_protocol
from repro.congest.node import FunctionProgram
from repro.core.d2color import improved_d2_color
from repro.det.det_d2color import deterministic_d2_color
from repro.graphs.generators import random_regular
from repro.graphs.instances import hoffman_singleton
from repro.graphs.square import square

from conftest import write_bench_json

#: Collected across the tests below; the final test persists it.
_PAYLOAD = {}


def _record(row, benchmark, **extra):
    entry = {"wall_seconds": benchmark.stats.stats.min}
    entry.update(extra)
    _PAYLOAD[row] = entry


def test_simulator_round_throughput(benchmark):
    """1000 nodes x 20 broadcast rounds through the round loop."""
    graph = random_regular(6, 1000, seed=1)

    def proto(ctx):
        for _ in range(20):
            yield {v: ("m", ctx.node) for v in ctx.neighbors}
        return None

    def run():
        return run_protocol(graph, FunctionProgram.factory(proto))

    result = benchmark(run)
    assert result.metrics.rounds == 20
    _record(
        "round_throughput[reference]", benchmark, n=1000, rounds=20
    )


def test_square_computation(benchmark):
    graph = random_regular(8, 500, seed=2)
    sq = benchmark(square, graph)
    assert sq.number_of_nodes() == 500
    _record("square_computation", benchmark, n=500)


def test_greedy_oracle(benchmark):
    graph = random_regular(8, 500, seed=3)
    result = benchmark(greedy_d2_coloring, graph)
    assert result.complete
    _record("greedy_oracle", benchmark, n=500)


def test_improved_d2color_hoffman_singleton(benchmark):
    """End-to-end Theorem 1.1 run on the canonical hard instance."""
    graph = hoffman_singleton()

    def run():
        return improved_d2_color(
            graph, seed=4, allow_deterministic_fallback=False
        )

    result = benchmark.pedantic(run, iterations=1, rounds=3)
    assert result.colors_used == 50
    _record(
        "improved_d2color_hoffman_singleton",
        benchmark,
        rounds=result.rounds,
    )


def test_deterministic_d2color_mid_size(benchmark):
    """End-to-end Theorem 1.2 run."""
    graph = random_regular(6, 60, seed=5)

    def run():
        return deterministic_d2_color(graph)

    result = benchmark.pedantic(run, iterations=1, rounds=3)
    assert result.complete
    _record(
        "deterministic_d2color_mid_size",
        benchmark,
        rounds=result.rounds,
    )


def test_write_bench_json():
    """Persist the machine-readable trajectory (must run last)."""
    assert _PAYLOAD, "timing tests did not run"
    out = write_bench_json("simulator_perf", _PAYLOAD)
    assert out.exists()
