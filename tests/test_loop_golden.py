"""Golden oracle for the generator loop's metering.

``tests/data/loop_golden.json`` pins, for every registry spec on every
conformance-corpus graph (seed 7, TRACK and STRICT), what the
``reference`` loop produced when per-round recording was forced on:
the coloring, the run totals, the number of :meth:`Network.run` calls
and a digest of every per-round record.  The fixture was first written
by the two-loop engine that preceded the single ``GeneratorLoop`` (the
per-message ``Network._deliver`` loop), so it is an independent check
on the loop's delivery and metering — including per-round records,
which no other test covers for whole registry pipelines.  The cells of
seeded randomized specs were regenerated once, by ``GeneratorLoop``,
when per-node randomness moved to the counter hash of
:mod:`repro.congest.rng`; the deterministic specs' cells are still the
per-message loop's, byte for byte.

Regenerate (only for a deliberate, reviewed re-baseline)::

    PYTHONPATH=src python tests/test_loop_golden.py
"""

import hashlib
import json
import pathlib

import pytest

from repro import registry
from repro.congest.errors import CongestError
from repro.congest.policy import BandwidthPolicy
from repro.workloads import build_corpus, corpus_names

from conftest import RecordingBackend

SEED = 7
FIXTURE = pathlib.Path(__file__).parent / "data" / "loop_golden.json"

_CORPUS = build_corpus()
_SPECS = list(registry.ALGORITHMS)
_POLICIES = {
    "track": BandwidthPolicy.track,
    "strict": BandwidthPolicy.strict,
}


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _cell_key(spec, scenario, policy_name) -> str:
    return f"{spec.name}|{scenario.name}|{policy_name}"


def record_cell(spec, scenario, policy_name):
    """The golden record of one (spec, graph, policy) cell."""
    graph = scenario.graph(SEED)
    if not spec.applicable(graph):
        return {"skipped": True}
    backend = RecordingBackend()
    try:
        result = spec.run(
            graph,
            seed=SEED,
            policy=_POLICIES[policy_name](),
            backend=backend,
        )
    except CongestError as exc:
        outcome = {"error": type(exc).__name__}
    else:
        m = result.metrics
        outcome = {
            "coloring": _digest(sorted(result.coloring.items())),
            "rounds": m.rounds,
            "total_messages": m.total_messages,
            "total_bits": m.total_bits,
            "max_message_bits": m.max_message_bits,
            "violations": m.violations,
            "worst_violation_bits": m.worst_violation_bits,
        }
    outcome["run_calls"] = len(backend.runs)
    outcome["per_round"] = _digest(backend.runs)
    return outcome


_CELLS = [
    (spec, scenario, policy_name)
    for spec in _SPECS
    for scenario in _CORPUS
    for policy_name in _POLICIES
]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(golden):
    assert sorted(golden) == sorted(_cell_key(*cell) for cell in _CELLS)


@pytest.mark.conformance
@pytest.mark.parametrize("policy_name", sorted(_POLICIES))
@pytest.mark.parametrize(
    "scenario", _CORPUS, ids=corpus_names(_CORPUS)
)
@pytest.mark.parametrize("spec", _SPECS, ids=[s.name for s in _SPECS])
def test_loop_reproduces_golden(golden, spec, scenario, policy_name):
    key = _cell_key(spec, scenario, policy_name)
    assert record_cell(spec, scenario, policy_name) == golden[key]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    cells = {_cell_key(*cell): record_cell(*cell) for cell in _CELLS}
    lines = [
        f"{json.dumps(key)}: {json.dumps(cells[key], sort_keys=True)}"
        for key in sorted(cells)
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(cells)} cells to {FIXTURE}")
