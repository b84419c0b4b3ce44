"""Golden oracle for the Reduce ladder of the randomized pipelines.

No conformance-corpus cell reaches a ladder rung (its graphs are too
small or too loose for ``Δ² > c2·log n`` with live nodes left after
the trials), so ``tests/data/loop_golden.json`` never pins the
Reduce-Phase machinery: the XOR lottery, the query routing, checks,
forwards, proposals and the shared try.  ``tests/data/ladder_golden.json``
does, for ``improved-d2color`` and ``basic-d2color`` on the
:func:`conftest.ladder_cells` graphs (TRACK and STRICT), with the
fields of ``loop_golden.json`` plus the phase table and the number of
nodes still live when the ladder starts.  ``basic`` cells stop at
:data:`conftest.LADDER_BASIC_MAX_ROUNDS`, inside final-reduce.

The fixture was recorded by the generator loop before the ladder ran
as array work.  Regenerate (only for a deliberate, reviewed
re-baseline)::

    PYTHONPATH=src python tests/test_ladder_golden.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.congest.errors import CongestError
from repro.congest.policy import BandwidthPolicy
from repro.core.d2color import basic_d2_color, improved_d2_color
from repro.exec import use_backend

from conftest import LADDER_BASIC_MAX_ROUNDS, RecordingBackend, ladder_cells

FIXTURE = pathlib.Path(__file__).parent / "data" / "ladder_golden.json"

_CELLS = ladder_cells()
_DRIVERS = {"improved": improved_d2_color, "basic": basic_d2_color}
_POLICIES = {
    "track": BandwidthPolicy.track,
    "strict": BandwidthPolicy.strict,
}


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _cell_key(variant, cell, policy_name) -> str:
    return f"{variant}|{cell}|{policy_name}"


def run_cell(variant, cell, policy, backend, max_rounds=None):
    """One driver run of a ladder cell on ``backend``."""
    graph, seed, kwargs = _CELLS[cell]
    if max_rounds is None and variant == "basic":
        max_rounds = LADDER_BASIC_MAX_ROUNDS
    if max_rounds is not None:
        kwargs = dict(kwargs, max_rounds=max_rounds)
    with use_backend(backend):
        return _DRIVERS[variant](graph, seed=seed, policy=policy, **kwargs)


def record_cell(variant, cell, policy_name):
    """The golden record of one (variant, cell, policy) run."""
    backend = RecordingBackend()
    policy = _POLICIES[policy_name]()
    try:
        result = run_cell(variant, cell, policy, backend)
    except CongestError as exc:
        outcome = {"error": type(exc).__name__}
    else:
        m = result.metrics
        phases = [[p.name, p.rounds] for p in result.phases]
        # Live nodes at the first ladder round: a run cut there.
        start = 0
        for name, rounds in phases:
            if name == "reduce-ladder":
                break
            start += rounds
        cut = run_cell(variant, cell, policy, "reference", max_rounds=start)
        outcome = {
            "coloring": _digest(sorted(result.coloring.items())),
            "rounds": m.rounds,
            "total_messages": m.total_messages,
            "total_bits": m.total_bits,
            "max_message_bits": m.max_message_bits,
            "violations": m.violations,
            "worst_violation_bits": m.worst_violation_bits,
            "phases": phases,
            "ladder_live": sum(c is None for c in cut.coloring.values()),
        }
    outcome["run_calls"] = len(backend.runs)
    outcome["per_round"] = _digest(backend.runs)
    return outcome


_KEYS = [
    (variant, cell, policy_name)
    for variant in _DRIVERS
    for cell in _CELLS
    for policy_name in _POLICIES
]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(golden):
    assert sorted(golden) == sorted(_cell_key(*key) for key in _KEYS)


@pytest.mark.parametrize("policy_name", sorted(_POLICIES))
@pytest.mark.parametrize("cell", sorted(_CELLS))
@pytest.mark.parametrize("variant", sorted(_DRIVERS))
def test_ladder_reproduces_golden(golden, variant, cell, policy_name):
    expected = golden[_cell_key(variant, cell, policy_name)]
    # Every cell exercises a ladder rung with live nodes.
    assert dict(expected["phases"])["reduce-ladder"] > 0
    assert expected["ladder_live"] > 0
    assert record_cell(variant, cell, policy_name) == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    cells = {_cell_key(*key): record_cell(*key) for key in _KEYS}
    lines = [
        f"{json.dumps(key)}: {json.dumps(cells[key], sort_keys=True)}"
        for key in sorted(cells)
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(cells)} cells to {FIXTURE}")
