"""Registry × scenario-corpus conformance tests.

Every registered algorithm runs on every applicable corpus scenario
and must satisfy the shared contract (checker-valid, complete, within
its palette bound, bandwidth-metered) plus seeded determinism: the
same seed always reproduces the identical coloring.
"""

from __future__ import annotations

import pytest

from repro.congest.policy import BandwidthPolicy
from repro.conformance import (
    build_corpus,
    coloring_fingerprint,
    run_conformance,
)
from repro.conformance.runner import ConformanceRecord, _check_record
from repro.registry import ALGORITHMS, get_algorithm

CORPUS = build_corpus()
CORPUS_IDS = [scenario.name for scenario in CORPUS]
SPEC_IDS = [spec.name for spec in ALGORITHMS]

SEED = 11


def scenario_named(name):
    return next(s for s in CORPUS if s.name == name)


@pytest.fixture(params=CORPUS, ids=CORPUS_IDS, scope="module")
def scenario(request):
    return request.param


@pytest.fixture(params=ALGORITHMS, ids=SPEC_IDS, scope="module")
def spec(request):
    return request.param


@pytest.mark.conformance
class TestRegistryShape:
    def test_at_least_eight_specs(self):
        assert len(ALGORITHMS) >= 8

    def test_names_unique(self):
        names = [spec.name for spec in ALGORITHMS]
        assert len(names) == len(set(names))

    def test_lookup_round_trips(self):
        for spec in ALGORITHMS:
            assert get_algorithm(spec.name) is spec

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="improved-d2color"):
            get_algorithm("definitely-not-registered")

    def test_kinds_cover_all_three(self):
        kinds = {spec.kind for spec in ALGORITHMS}
        assert kinds == {"randomized", "deterministic", "baseline"}

    def test_corpus_is_large_enough(self):
        # Acceptance: every spec meets >= 10 applicable scenarios.
        assert len(CORPUS) >= 10
        for spec in ALGORITHMS:
            applicable = [
                s for s in CORPUS if spec.applicable(s.graph(SEED))
            ]
            assert len(applicable) >= 10, spec.name


@pytest.mark.conformance
class TestContract:
    """The full matrix: one test per (algorithm, scenario) pair."""

    def test_spec_on_scenario(self, spec, scenario):
        graph = scenario.graph(SEED)
        if not spec.applicable(graph):
            pytest.skip(f"{spec.name} does not support {scenario.name}")
        policy = BandwidthPolicy()
        result = spec.run(graph, seed=SEED, policy=policy)
        record = ConformanceRecord(scenario.name, spec.name)
        _check_record(
            record,
            spec,
            graph,
            result,
            policy,
            check_repeatability=False,
            seed=SEED,
        )
        assert record.ok, "; ".join(record.failures)

    def test_palette_bound_matches_result_palette(self, spec, scenario):
        """The registry's declared bound covers the palette the
        algorithm actually allocated (no silent over-allocation)."""
        graph = scenario.graph(SEED)
        if not spec.applicable(graph):
            pytest.skip(f"{spec.name} does not support {scenario.name}")
        result = spec.run(graph, seed=SEED)
        assert result.palette_size <= spec.bound_for(graph)


@pytest.mark.conformance
class TestSeededDeterminism:
    def test_same_seed_identical_coloring(self, spec):
        graph = scenario_named("rr4_24").graph(SEED)
        first = spec.run(graph, seed=SEED)
        second = spec.run(graph, seed=SEED)
        assert coloring_fingerprint(first) == coloring_fingerprint(
            second
        )

    def test_seed_insensitive_specs_ignore_seed(self, spec):
        if spec.seed_sensitive:
            pytest.skip("spec is legitimately seeded")
        graph = scenario_named("rr4_24").graph(SEED)
        first = spec.run(graph, seed=1)
        second = spec.run(graph, seed=2)
        assert coloring_fingerprint(first) == coloring_fingerprint(
            second
        )


@pytest.mark.conformance
class TestDifferentialSweep:
    @pytest.mark.slow
    def test_full_sweep_passes(self):
        report = run_conformance(seed=SEED)
        assert report.ok, report.explain()
        # Nothing was silently skipped: the built-in specs support
        # the whole corpus.
        assert not report.skipped
        assert len(report.records) == len(ALGORITHMS) * len(CORPUS)

    def test_sweep_detects_palette_cheating(self):
        """A spec whose bound lies must be flagged by the runner."""
        from dataclasses import replace

        cheat = replace(
            get_algorithm("trial-slack"),
            name="trial-cheat",
            palette_bound=lambda delta: delta * delta + 1,
        )
        report = run_conformance(
            specs=[cheat],
            scenarios=[s for s in CORPUS if s.name == "gnp24"],
            seed=3,
        )
        # trial-slack draws from a 2Δ² palette, so with the tighter
        # claimed bound the sweep must report an out-of-palette
        # failure rather than pass vacuously.
        assert not report.ok

    def test_sweep_reports_exceptions_as_failures(self):
        from dataclasses import replace

        def explode(graph, seed, policy):
            raise RuntimeError("boom")

        broken = replace(
            get_algorithm("greedy-oracle"),
            name="broken",
            entry_point=explode,
        )
        report = run_conformance(
            specs=[broken], scenarios=CORPUS[:1], seed=0
        )
        assert not report.ok
        assert "boom" in report.explain()

    def test_summary_renders_every_record(self):
        report = run_conformance(
            specs=[get_algorithm("greedy-oracle")],
            scenarios=CORPUS[:3],
            seed=0,
        )
        rendered = report.summary()
        for record in report.records:
            assert record.scenario in rendered

    def test_adhoc_spec_caught_on_sweep_path_too(self):
        """An unregistered (ad-hoc) spec must work — and still be
        caught lying — when the matrix runs through the sweep
        backend's worker pool, not only on the serial path."""
        from dataclasses import replace

        from repro.exec import SweepBackend

        cheat = replace(
            get_algorithm("trial-slack"),
            name="trial-cheat",
            palette_bound=lambda delta: delta * delta + 1,
        )
        scenarios = [s for s in CORPUS if s.name == "gnp24"]
        serial = run_conformance(
            specs=[cheat], scenarios=scenarios, seed=3
        )
        swept = run_conformance(
            specs=[cheat],
            scenarios=scenarios,
            seed=3,
            backend=SweepBackend(executor="thread", max_workers=4),
        )
        assert not serial.ok
        assert not swept.ok
        assert [sorted(r.failures) for r in serial.records] == [
            sorted(r.failures) for r in swept.records
        ]

    def test_trial_grid_never_derives_square(self):
        """A grid whose cells all run relay-native specs (trial) is
        not prewarmed with G²: neither the kernel nor the checker
        reads it, on a serial run or on a process pool."""
        from repro.exec import SweepBackend
        from repro.workloads import get_workload, instance_cache

        def rows(backend):
            cache = instance_cache()
            cache.clear()
            report = run_conformance(
                specs=[get_algorithm("trial")],
                scenarios=[
                    get_workload("gnp-huge-16384"), get_workload("gnp24")
                ],
                seed=0,
                backend=backend,
            )
            assert report.ok, report.explain()
            assert cache.stats.square_builds == 0
            return [
                (r.scenario, r.colors_used, r.rounds, r.messages)
                for r in report.records
            ]

        serial = rows("vectorized")
        assert len(serial) == 2
        assert rows(
            SweepBackend(executor="process", max_workers=2, inner="vectorized")
        ) == serial

    def test_grid_cells_keep_adhoc_attributes(self):
        """An ad-hoc weighted scenario is one cached instance with one
        G² derivation on a worker pool, as it is serially: its cells
        carry the edge weights, so a worker interns the instance the
        parent prebuilt instead of an attribute-free twin."""
        from repro.exec import SweepBackend
        from repro.graphs.generators import weighted_gnp
        from repro.workloads import adhoc, instance_cache

        scenario = adhoc("wg", lambda s: weighted_gnp(30, 0.2, seed=s))
        cache = instance_cache()
        cache.clear()
        report = run_conformance(
            specs=[get_algorithm("greedy-oracle")],
            scenarios=[scenario],
            seed=0,
            backend=SweepBackend(executor="thread", max_workers=2),
        )
        assert report.ok, report.explain()
        assert len(cache) == 1
        assert cache.stats.square_builds == 1

    def test_namesake_scenarios_checked_separately(self):
        """Two ad-hoc scenarios sharing a name get their own
        differential checks: each Moore graph needs exactly its own n
        colors."""
        from repro.exec import SweepBackend
        from repro.graphs.instances import cycle5, petersen
        from repro.workloads import adhoc

        scenarios = [
            adhoc("moore", lambda s: petersen(), tags={"tight"}),
            adhoc("moore", lambda s: cycle5(), tags={"tight"}),
        ]
        report = run_conformance(
            specs=[get_algorithm("greedy-oracle")],
            scenarios=scenarios,
            seed=0,
            backend=SweepBackend(executor="serial"),
        )
        assert report.ok, report.explain()
        assert [r.colors_used for r in report.records] == [10, 5]
