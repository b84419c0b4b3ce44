"""Shared helpers for the experiment benches.

Every bench (a) regenerates one experiment table from DESIGN.md §2,
(b) prints it (run pytest with ``-s`` to see the tables inline; they
are also written to ``benchmarks/results/``), and (c) hard-asserts
the experiment's invariant checks.  Wall-clock timing via
pytest-benchmark is secondary — the measured quantity of interest is
CONGEST rounds, which lives in the tables.

The benches keep no timing history; pytest-benchmark prints each
run's timings.  The cross-change performance gate is ``perfbench/``,
which runs each workload in a fresh child process and compares it
with its parent.  A bench asserts only what one process can measure
honestly: invariants, fingerprints and same-process speed ratios.  A
bench that needs a peak-RSS reading takes it in a child process of
its own.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def registry_specs(kind=None, distributed=None):
    """Registered algorithm specs for registry-driven benches.

    Benches that sweep "every algorithm" enumerate the registry
    through this helper instead of keeping an import list, so a newly
    registered algorithm is benched without touching the bench files.
    """
    from repro.registry import algorithms

    return algorithms(kind=kind, distributed=distributed)


def registry_ids(specs):
    """Stable pytest parametrization ids for ``specs``."""
    return [spec.name for spec in specs]


def report(table):
    """Print, persist, and assert an experiment table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    rendered = table.render()
    print("\n" + rendered)
    out = RESULTS_DIR / f"{table.exp_id}.txt"
    out.write_text(rendered + "\n", encoding="utf-8")
    failed = [
        name for name, passed in table.checks.items() if not passed
    ]
    assert not failed, f"{table.exp_id} failed checks: {failed}"
    return table
