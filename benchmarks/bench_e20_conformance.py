"""E20 — registry × scenario differential conformance sweep.

Regenerates the E20 table: every algorithm in the registry runs on
every scenario of the conformance corpus (adversarial generators
included) and must produce a checker-valid coloring within its
palette bound, with bandwidth metered and per-seed repeatability.

A per-spec timing bench rides along so each algorithm's wall-clock
on the corpus is printed by pytest-benchmark.
"""

import pytest

from repro.conformance import build_corpus, run_conformance
from repro.harness.experiments import e20_conformance

from conftest import registry_ids, registry_specs, report

_SPECS = registry_specs()


def test_e20_conformance(benchmark):
    table = benchmark.pedantic(e20_conformance, iterations=1, rounds=1)
    report(table)


@pytest.mark.parametrize("spec", _SPECS, ids=registry_ids(_SPECS))
def test_e20_per_algorithm_corpus(benchmark, spec):
    corpus = build_corpus()

    def sweep():
        return run_conformance(
            specs=[spec], scenarios=corpus, seed=20
        )

    result = benchmark.pedantic(sweep, iterations=1, rounds=1)
    assert result.ok, result.explain()
