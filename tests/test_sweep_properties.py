"""Property tests: sweep-grid execution is deterministic.

The ``sweep`` backend promises that a grid's aggregated results are a
pure function of the grid itself — never of worker count, executor
choice, or completion-order interleaving.  Hypothesis drives random
grids (random spec subsets × scenario subsets × seed sets, in random
submission order) through 1 worker and N workers and requires the
serialized results to be byte-identical.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import registry
from repro.workloads import build_corpus
from repro.exec import SweepBackend, SweepCell

# Fast specs only: the property is about scheduling, not algorithms,
# so there is no coverage gained from slow pipelines here.
_SPEC_NAMES = (
    "trial",
    "trial-slack",
    "deterministic-d2",
    "greedy-oracle",
    "dsatur-oracle",
)
# Small scenarios only, for the same reason.
_SCENARIOS = {
    s.name: s
    for s in build_corpus()
    if s.name in ("path16", "cycle5", "gnp24", "multileaf4x5")
}


@st.composite
def sweep_grids(draw):
    spec_names = draw(
        st.lists(
            st.sampled_from(_SPEC_NAMES),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    scenario_names = draw(
        st.lists(
            st.sampled_from(sorted(_SCENARIOS)),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=1,
            max_size=2,
            unique=True,
        )
    )
    cells = []
    for scenario_name in scenario_names:
        scenario = _SCENARIOS[scenario_name]
        for seed in seeds:
            graph = scenario.graph(seed)
            for spec_name in spec_names:
                spec = registry.get_algorithm(spec_name)
                if not spec.applicable(graph):
                    continue
                cells.append(
                    SweepCell.from_graph(
                        spec_name, scenario_name, seed, graph
                    )
                )
    # Submission order is part of the grid identity — shuffle it so
    # the property covers arbitrary orders, not just corpus order.
    return draw(st.permutations(cells))


@given(cells=sweep_grids())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_one_worker_and_many_workers_byte_identical(cells):
    one = SweepBackend(executor="thread", max_workers=1).run_grid(
        cells
    )
    many = SweepBackend(executor="thread", max_workers=4).run_grid(
        cells
    )
    assert one.fingerprint() == many.fingerprint()
    assert (
        one.aggregate_metrics() == many.aggregate_metrics()
    )


@given(cells=sweep_grids())
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_serial_loop_matches_thread_pool(cells):
    serial = SweepBackend(executor="serial").run_grid(cells)
    threaded = SweepBackend(executor="thread", max_workers=3).run_grid(
        cells
    )
    assert serial.fingerprint() == threaded.fingerprint()


def test_process_pool_matches_serial_once():
    """One (non-hypothesis) example through a real process pool: the
    worker-side registry lookup, cell pickling, and submission-order
    collection must behave exactly like the in-process loop."""
    cells = []
    for name, scenario in sorted(_SCENARIOS.items()):
        graph = scenario.graph(3)
        for spec_name in ("trial", "greedy-oracle"):
            cells.append(
                SweepCell.from_graph(spec_name, name, 3, graph)
            )
    serial = SweepBackend(executor="serial").run_grid(cells)
    pooled = SweepBackend(executor="process", max_workers=4).run_grid(
        cells
    )
    assert serial.fingerprint() == pooled.fingerprint()
    assert pooled.ok, [c.error for c in pooled.failures]
