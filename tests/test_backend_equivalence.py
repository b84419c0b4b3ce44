"""Cross-backend equivalence: reference vs fastpath/vectorized,
full registry.

The execution backends promise *identical semantics*: for every
registered algorithm on every conformance scenario with the same
seed, ``reference``, ``fastpath``, and ``vectorized`` must produce
the same coloring, the same round count, and — under a metered
policy — bit-identical bandwidth metrics.  This suite is what lets
every other layer treat ``backend=`` as a pure performance knob.
(``vectorized`` covers both its kernels and its fastpath fallback for
every other spec.)
"""

import pytest

from repro import registry
from repro.congest.policy import BandwidthPolicy
from repro.obs import NullRecorder, use_recorder
from repro.workloads import build_corpus, corpus_names

SEED = 7

_CORPUS = build_corpus()
_SPECS = list(registry.ALGORITHMS)
_FAST_BACKENDS = ["fastpath", "vectorized"]


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
@pytest.mark.parametrize("backend", _FAST_BACKENDS)
@pytest.mark.parametrize(
    "scenario", _CORPUS, ids=corpus_names(_CORPUS)
)
@pytest.mark.parametrize(
    "spec", _SPECS, ids=[s.name for s in _SPECS]
)
def test_reference_fastpath_equivalent(spec, scenario, backend):
    """Same outputs, rounds, and metered metrics on both backends —
    and no registry driver hands ``vectorized`` a network whose nodes
    are already built (kernels read the plan only)."""
    graph = scenario.graph(SEED)
    if not spec.applicable(graph):
        pytest.skip(f"{spec.name} does not support {scenario.name}")
    policy = BandwidthPolicy.track()

    reference = spec.run(
        graph, seed=SEED, policy=policy, backend="reference"
    )
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
        # TRACK is a metered policy: the fast path must meter
        # everything the reference meters, bit for bit.
        assert _metrics_tuple(reference.metrics) == _metrics_tuple(
            fast.metrics
        )


@pytest.mark.parametrize("backend", _FAST_BACKENDS)
@pytest.mark.parametrize(
    "spec",
    [s for s in _SPECS if s.distributed],
    ids=[s.name for s in _SPECS if s.distributed],
)
def test_unbounded_outputs_and_rounds_agree(spec, backend):
    """Under UNBOUNDED policies fastpath and vectorized skip message
    *sizing* but must still agree on everything observable: coloring,
    rounds, and message counts."""
    scenario = _CORPUS[0]
    graph = scenario.graph(SEED)
    if not spec.applicable(graph):
        pytest.skip(f"{spec.name} does not support {scenario.name}")
    policy = BandwidthPolicy.unbounded()

    reference = spec.run(
        graph, seed=SEED, policy=policy, backend="reference"
    )
    fast = spec.run(graph, seed=SEED, policy=policy, backend=backend)

    assert reference.coloring == fast.coloring
    assert reference.rounds == fast.rounds
    assert (
        reference.metrics.total_messages
        == fast.metrics.total_messages
    )
    assert fast.metrics.violations == 0
