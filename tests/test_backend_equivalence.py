"""Cross-backend equivalence over the full registry.

The execution backends promise *identical semantics*: for every
registered algorithm on every conformance scenario with the same
seed, every engine must produce the same coloring, the same round
count, and bit-identical bandwidth metrics.  The ground-truth side is
the ``reference`` loop with per-round records on (the path
``tests/test_loop_golden.py`` pins); the columns are

- ``fastpath`` — the ``reference`` backend as registered, records
  off: the loop's metering hot path (the id predates the retirement
  of the separate ``fastpath`` engine and is kept for id stability);
- ``vectorized`` — its kernels and its generator-loop fallback for
  every other spec.

This suite is what lets every other layer treat ``backend=`` as a pure
performance knob.
"""

import functools

import pytest

from repro import registry
from repro.congest.policy import BandwidthPolicy
from repro.obs import NullRecorder, use_recorder
from repro.workloads import build_corpus, corpus_names

from conftest import RecordingBackend

SEED = 7

_CORPUS = build_corpus()
_SPECS = list(registry.ALGORITHMS)
#: Column id -> backend run against the recording reference.
_RECORDS_OFF_COLUMNS = {"fastpath": "reference", "vectorized": "vectorized"}


@functools.lru_cache(maxsize=None)
def _reference_run(spec, scenario, policy):
    """The ground-truth run, shared by both columns of a cell."""
    return spec.run(
        scenario.graph(SEED),
        seed=SEED,
        policy=policy,
        backend=RecordingBackend(),
    )


def _metrics_tuple(metrics):
    return (
        metrics.rounds,
        metrics.total_messages,
        metrics.total_bits,
        metrics.max_message_bits,
        metrics.budget_bits,
        metrics.violations,
        metrics.worst_violation_bits,
    )


@pytest.mark.conformance
@pytest.mark.parametrize("column", _RECORDS_OFF_COLUMNS)
@pytest.mark.parametrize(
    "scenario", _CORPUS, ids=corpus_names(_CORPUS)
)
@pytest.mark.parametrize(
    "spec", _SPECS, ids=[s.name for s in _SPECS]
)
def test_reference_fastpath_equivalent(spec, scenario, column):
    """Same outputs, rounds, and metered metrics on both sides — and
    no registry driver hands ``vectorized`` a network whose nodes are
    already built (kernels read the plan only)."""
    backend = _RECORDS_OFF_COLUMNS[column]
    graph = scenario.graph(SEED)
    if not spec.applicable(graph):
        pytest.skip(f"{spec.name} does not support {scenario.name}")
    policy = BandwidthPolicy.track()

    reference = _reference_run(spec, scenario, policy)
    causes = []

    class Rec(NullRecorder):
        def event(self, name, attrs=None):
            if name == "exec.fallback":
                causes.append(attrs["cause"])

    with use_recorder(Rec()):
        fast = spec.run(graph, seed=SEED, policy=policy, backend=backend)
    assert "materialized" not in causes

    assert reference.coloring == fast.coloring
    assert reference.rounds == fast.rounds
    assert reference.colors_used == fast.colors_used
    assert reference.palette_size == fast.palette_size
    if spec.distributed:
        # TRACK is a metered policy: every engine must meter
        # everything the reference meters, bit for bit.
        assert _metrics_tuple(reference.metrics) == _metrics_tuple(
            fast.metrics
        )


@pytest.mark.parametrize("column", _RECORDS_OFF_COLUMNS)
@pytest.mark.parametrize(
    "spec",
    [s for s in _SPECS if s.distributed],
    ids=[s.name for s in _SPECS if s.distributed],
)
def test_unbounded_outputs_and_rounds_agree(spec, column):
    """UNBOUNDED means the same on every engine: messages are counted
    but not sized, so the full metrics agree (bits stay 0)."""
    backend = _RECORDS_OFF_COLUMNS[column]
    scenario = _CORPUS[0]
    graph = scenario.graph(SEED)
    if not spec.applicable(graph):
        pytest.skip(f"{spec.name} does not support {scenario.name}")
    policy = BandwidthPolicy.unbounded()

    reference = _reference_run(spec, scenario, policy)
    fast = spec.run(graph, seed=SEED, policy=policy, backend=backend)

    assert reference.coloring == fast.coloring
    assert _metrics_tuple(reference.metrics) == _metrics_tuple(
        fast.metrics
    )
    assert fast.metrics.total_bits == fast.metrics.max_message_bits == 0
    assert fast.metrics.violations == 0
