"""The observability layer: tracing, reports, and the determinism
guard.

The load-bearing contract is the guard in
:class:`TestTracingNeverPerturbs`: sweep fingerprints and instance
digests must be byte-identical whether tracing is absent (the
zero-overhead default), explicitly nulled, or live — tracing
*observes* runs, it never participates in them.  The rest pins the
trace schema (span nesting, torn-line-tolerant reads, validation),
:class:`CacheStats` arithmetic, the cache-stats plumbing through
sweeps, shard merges and the ``cache`` span attrs, and the
``python -m repro.obs`` report CLI.
"""

from __future__ import annotations

import json

import pytest

from repro import registry as algo_registry
from repro.exec import (
    ShardManifest,
    SweepBackend,
    compile_manifest,
    grid_cells,
    merge_shards,
    run_shard,
)
from repro.exec.shards import stats_path
from repro.obs import (
    NULL_SPAN,
    NullRecorder,
    TraceRecorder,
    disable,
    enable,
    iter_spans,
    read_trace,
    recorder,
    span,
    trace_file_path,
    tracing_active,
    use_recorder,
    validate_trace,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.report import fleet_rollup
from repro.workloads import get_workload, instance_cache
from repro.workloads.cache import CacheStats, InstanceCache

SEED = 17

_SPECS = [
    algo_registry.get_algorithm(name)
    for name in ("trial", "greedy-oracle")
]
_WORKLOADS = [get_workload(name) for name in ("cycle5", "gnp24")]


def small_grid():
    return grid_cells(
        specs=_SPECS, scenarios=_WORKLOADS, seeds=(SEED, SEED + 1)
    )


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with tracing off."""
    disable()
    yield
    disable()


# ----------------------------------------------------------------------
# the zero-overhead default


class TestNoOpDefault:
    def test_no_recorder_is_the_default(self):
        assert recorder() is None
        assert not tracing_active()

    def test_span_off_returns_the_shared_null_span(self):
        assert span("x", a=1) is NULL_SPAN
        assert span("y") is NULL_SPAN  # no per-call allocation
        with span("z") as sp:
            assert sp.annotate(rounds=3) is sp

    def test_null_recorder_is_installed_but_inactive(self):
        with use_recorder(NullRecorder()):
            assert recorder() is not None
            assert not tracing_active()
            with span("x") as sp:
                sp.annotate(a=1)  # all silently dropped

    def test_use_recorder_restores_the_previous_one(self, tmp_path):
        rec = TraceRecorder(str(tmp_path / "t.jsonl"))
        with use_recorder(rec):
            assert tracing_active()
            with use_recorder(None):
                assert recorder() is None
            assert recorder() is rec
        assert recorder() is None
        rec.close()


# ----------------------------------------------------------------------
# the trace recorder


class TestTraceRecorder:
    def _trace(self, tmp_path, body):
        path = str(tmp_path / "t.jsonl")
        rec = TraceRecorder(path, worker="w0")
        with use_recorder(rec):
            body(rec)
        rec.close()
        return read_trace(path)

    def test_meta_record_comes_first(self, tmp_path):
        records = self._trace(tmp_path, lambda rec: None)
        assert records[0]["kind"] == "meta"
        assert records[0]["schema"] == 1
        assert records[0]["worker"] == "w0"

    def test_nested_spans_carry_parent_ids(self, tmp_path):
        def body(rec):
            with span("outer", cells=2):
                with span("inner"):
                    pass

        records = self._trace(tmp_path, body)
        assert validate_trace(records) == []
        begins = {
            r["name"]: r
            for r in records
            if r["kind"] == "span" and r["phase"] == "B"
        }
        assert "parent" not in begins["outer"]
        assert begins["inner"]["parent"] == begins["outer"]["id"]
        assert begins["outer"]["attrs"] == {"cells": 2}

    def test_annotations_land_on_the_end_record(self, tmp_path):
        def body(rec):
            with span("run") as sp:
                sp.annotate(rounds=7, halted=True)

        records = self._trace(tmp_path, body)
        (end,) = [r for r in iter_spans(records) if r["phase"] == "E"]
        assert end["attrs"] == {"rounds": 7, "halted": True}
        assert end["dur"] >= 0.0

    def test_exceptions_are_recorded_not_swallowed(self, tmp_path):
        def body(rec):
            with pytest.raises(RuntimeError):
                with span("run"):
                    raise RuntimeError("boom")

        records = self._trace(tmp_path, body)
        assert validate_trace(records) == []
        (end,) = list(iter_spans(records))
        assert end["attrs"]["error"] == "RuntimeError"

    def test_complete_spans_nest_under_the_open_span(self, tmp_path):
        def body(rec):
            with span("outer"):
                t0 = rec.clock()
                rec.complete("leaf", t0, {"n": 5})

        records = self._trace(tmp_path, body)
        assert validate_trace(records) == []
        (leaf,) = [r for r in records if r.get("name") == "leaf"]
        outer_b = next(
            r
            for r in records
            if r.get("name") == "outer" and r["phase"] == "B"
        )
        assert leaf["phase"] == "X"
        assert leaf["parent"] == outer_b["id"]
        assert leaf["attrs"] == {"n": 5}

    def test_events_and_metrics_records(self, tmp_path):
        records = self._trace(
            tmp_path, lambda rec: rec.event("fleet.claim", {"shard": 0})
        )
        assert validate_trace(records) == []
        assert [r["kind"] for r in records] == ["meta", "event"]
        # The registry snapshot record kind is retired: counts ride
        # on spans and events, and an old snapshot is unknown.
        stale = {"kind": "metrics", "t": 1.0, "data": {}}
        assert validate_trace(records + [stale]) == [
            "record 2: unknown kind 'metrics'"
        ]

    def test_trace_file_path_is_unique_per_worker(self, tmp_path):
        a = trace_file_path(str(tmp_path), worker="w-1")
        b = trace_file_path(str(tmp_path), worker="w/2")
        assert a != b
        assert a.endswith(".jsonl") and b.endswith(".jsonl")
        assert "/" not in b.rsplit("trace-", 1)[1]

    def test_enable_into_a_directory(self, tmp_path):
        rec = enable(str(tmp_path), worker="w3")
        try:
            span("x").__enter__().__exit__(None, None, None)
        finally:
            disable()
        records = read_trace(str(tmp_path))
        assert validate_trace(records) == []
        assert any(r.get("name") == "x" for r in records)

    def test_enable_closes_the_recorder_it_replaces(self, tmp_path):
        a = enable(str(tmp_path / "a.jsonl"))
        try:
            b = enable(str(tmp_path / "b.jsonl"))
            assert recorder() is b
            assert a._handle.closed and not b._handle.closed
        finally:
            disable()
        assert a._handle.closed and b._handle.closed

    def test_enable_leaves_a_use_recorder_recorder_open(self, tmp_path):
        rec = TraceRecorder(str(tmp_path / "r.jsonl"))
        try:
            with use_recorder(rec):
                inner = enable(str(tmp_path / "e.jsonl"))
                assert recorder() is inner
                assert not rec._handle.closed
                disable()
            assert not rec._handle.closed and inner._handle.closed
        finally:
            rec.close()


# ----------------------------------------------------------------------
# reading and validating


class TestReadAndValidate:
    def _write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = self._write(
            tmp_path / "t.jsonl",
            '{"kind":"event","name":"a","t":1.0}\n'
            '{"kind":"event","na',  # the killed-mid-write tail
        )
        records = read_trace(path)
        assert [r["name"] for r in records] == ["a"]
        # strict mode still tolerates the torn tail...
        assert len(read_trace(path, strict=True)) == 1

    def test_strict_mode_raises_on_interior_damage(self, tmp_path):
        path = self._write(
            tmp_path / "t.jsonl",
            '{"kind":"event","name":"a","t":1.0}\n'
            "garbage line\n"
            '{"kind":"event","name":"b","t":2.0}\n',
        )
        assert [r["name"] for r in read_trace(path)] == ["a", "b"]
        with pytest.raises(ValueError, match="damaged trace line 2"):
            read_trace(path, strict=True)

    def test_validate_flags_schema_problems(self):
        problems = validate_trace(
            [
                {"kind": "wat"},
                {"kind": "span", "phase": "Q", "name": "x", "t": 1.0},
                {
                    "kind": "span",
                    "phase": "E",
                    "id": 9,
                    "name": "x",
                    "t": 1.0,
                    "dur": 0.1,
                },
                {"kind": "event", "t": 1.0},
            ]
        )
        assert any("unknown kind" in p for p in problems)
        assert any("bad span phase" in p for p in problems)
        assert any("without a matching B" in p for p in problems)
        assert any("without a name" in p for p in problems)

    def test_validate_flags_unclosed_spans(self):
        problems = validate_trace(
            [
                {
                    "kind": "span",
                    "phase": "B",
                    "id": 1,
                    "name": "x",
                    "t": 1.0,
                }
            ]
        )
        assert problems == ["span 1 ('x') opened but never closed"]

    def test_span_ids_are_matched_per_source(self):
        # Span ids restart at 1 in every worker file: worker A was
        # killed inside its span 1, worker B opened and closed its
        # own span 1 — B's E must not close A's B.
        def meta(pid):
            return {"kind": "meta", "schema": 1, "pid": pid, "t": 0.0}

        def b(name):
            return {
                "kind": "span", "phase": "B", "id": 1, "name": name,
                "t": 1.0,
            }

        def e(name):
            return {
                "kind": "span", "phase": "E", "id": 1, "name": name,
                "t": 2.0, "dur": 1.0,
            }

        worker_a = [meta(101), b("shard.run")]
        worker_b = [meta(202), b("shard.run"), e("shard.run")]
        expected = ["span 1 ('shard.run') opened but never closed"]
        assert validate_trace(worker_a) == expected
        assert validate_trace(worker_a + worker_b) == expected
        assert validate_trace(worker_b + worker_a) == expected
        assert validate_trace(worker_b) == []

    def test_directory_reads_merge_all_worker_files(self, tmp_path):
        for worker in ("a", "b"):
            rec = TraceRecorder(
                trace_file_path(str(tmp_path), worker=worker),
                worker=worker,
            )
            rec.event(f"from-{worker}")
            rec.close()
        records = read_trace(str(tmp_path))
        names = {r["name"] for r in records if r["kind"] == "event"}
        assert names == {"from-a", "from-b"}
        assert validate_trace(records) == []


# ----------------------------------------------------------------------
# the determinism guard: tracing never perturbs results


class TestSetupSpans:
    """The library books instance set-up itself: ``workloads.build``
    around a cache miss, ``graphs.csr`` in the CSR builders (inside
    the build for CSR-born instances) and ``graphs.square`` around the
    G² derivation."""

    def _spans(self, tmp_path, body, name="t.jsonl"):
        path = str(tmp_path / name)
        rec = TraceRecorder(path)
        with use_recorder(rec):
            body()
        rec.close()
        records = read_trace(path, strict=True)
        assert validate_trace(records) == []
        begins = {
            r["id"]: r
            for r in records
            if r["kind"] == "span" and r["phase"] == "B"
        }
        return begins, list(iter_spans(records))

    def test_csr_born_build_nests_and_a_hit_emits_nothing(self, tmp_path):
        cache = InstanceCache()

        def setup():
            with span("setup.build"):
                instance = cache.get("rr4_24", 0)
            with span("setup.square"):
                instance.square_csr()
            return instance

        begins, ends = self._spans(tmp_path, setup)
        instance = cache.get("rr4_24", 0)
        assert instance._csr_born
        by_name = {r["name"]: r for r in ends}
        assert set(by_name) == {
            "setup.build",
            "setup.square",
            "workloads.build",
            "graphs.csr",
            "graphs.square",
        }
        parent = {
            begins[r["id"]]["name"]: begins.get(
                begins[r["id"]].get("parent"), {}
            ).get("name")
            for r in ends
        }
        assert parent["workloads.build"] == "setup.build"
        assert parent["graphs.csr"] == "workloads.build"
        assert parent["graphs.square"] == "setup.square"
        assert begins[by_name["workloads.build"]["id"]]["attrs"] == {
            "workload": "rr4_24",
            "seed": 0,
        }
        assert by_name["workloads.build"]["attrs"] == {"n": 24, "m": 48}
        csr = instance.csr()
        # rr4_24 is 4-regular: 24 closed rows of 4² candidate keys each.
        assert by_name["graphs.square"]["attrs"] == {
            "nnz": int(csr.g2_indices.size),
            "pairs": 24 * 4 * 4,
        }

        def hit():
            cache.get("rr4_24", 0).square_csr()

        _, ends = self._spans(tmp_path, hit, name="hit.jsonl")
        assert ends == []

    def test_nx_born_csr_is_built_outside_the_build(self, tmp_path):
        cache = InstanceCache()

        def setup():
            cache.get("cycle5", 0).square_csr()

        begins, ends = self._spans(tmp_path, setup)
        assert [r["name"] for r in ends] == [
            "workloads.build",
            "graphs.csr",
            "graphs.square",
        ]
        assert all("parent" not in b for b in begins.values())
        assert ends[0]["attrs"] == {"n": 5, "m": 5}


class TestTracingNeverPerturbs:
    def _run(self):
        cache = instance_cache()
        cache.clear()
        sweep = SweepBackend(executor="serial").run_grid(small_grid())
        digests = tuple(
            cache.get(w.name, s).digest()
            for w in _WORKLOADS
            for s in (SEED, SEED + 1)
        )
        return sweep, digests

    def test_fingerprints_identical_off_null_and_live(self, tmp_path):
        plain_sweep, plain_digests = self._run()

        with use_recorder(NullRecorder()):
            null_sweep, null_digests = self._run()

        rec = TraceRecorder(str(tmp_path / "t.jsonl"))
        with use_recorder(rec):
            live_sweep, live_digests = self._run()
        rec.close()

        assert null_sweep.fingerprint() == plain_sweep.fingerprint()
        assert live_sweep.fingerprint() == plain_sweep.fingerprint()
        assert null_digests == plain_digests
        assert live_digests == plain_digests
        assert repr(live_sweep.aggregate_metrics()) == repr(
            plain_sweep.aggregate_metrics()
        )
        # ... and the live run actually produced a valid trace with
        # the sweep/exec span taxonomy in it.
        records = read_trace(str(tmp_path / "t.jsonl"))
        assert validate_trace(records) == []
        names = {r.get("name") for r in iter_spans(records)}
        assert {"sweep.grid", "sweep.prebuild", "sweep.cell"} <= names
        assert "exec.run" in names or "exec.kernel" in names


class TestPaperPhaseSpans:
    """The deterministic chain traces one span per paper stage, and
    Step 0 of the randomized algorithms is an event."""

    def _sweep(self):
        cells = grid_cells(
            specs=[
                algo_registry.get_algorithm(name)
                for name in ("improved-d2color", "deterministic-d2")
            ],
            # Δ² below c2·log2 n on both, so improved takes Step 0.
            scenarios=[
                get_workload(name) for name in ("path16", "high-girth3_24")
            ],
            seeds=(SEED,),
        )
        return SweepBackend(executor="serial", inner="vectorized").run_grid(
            cells
        )

    def test_stage_spans_step0_events_and_identical_fingerprints(
        self, tmp_path
    ):
        plain = self._sweep()
        path = str(tmp_path / "t.jsonl")
        rec = TraceRecorder(path)
        with use_recorder(rec):
            live = self._sweep()
        rec.close()
        assert live.fingerprint() == plain.fingerprint()

        records = read_trace(path)
        assert validate_trace(records) == []
        ends = [r for r in iter_spans(records) if r["phase"] in "EX"]
        stages = [r for r in ends if r["name"].startswith("det.")]
        assert {r["name"] for r in stages} == {
            "det.linial",
            "det.locally_iterative",
            "det.color_reduction",
        }
        for r in stages:
            assert set(r["attrs"]) == {"rounds", "messages", "bits"}
        # Every cell is the deterministic chain, so the stage spans
        # account for every round and message of the sweep.
        cells = [r for r in ends if r["name"] == "sweep.cell"]
        assert len(cells) == 4
        for key in ("rounds", "messages", "bits"):
            assert sum(r["attrs"][key] for r in stages) == sum(
                r["attrs"][key] for r in cells
            )

        step0 = [
            r
            for r in records
            if r["kind"] == "event" and r["name"] == "core.step0_fallback"
        ]
        assert len(step0) == 2  # the two improved-d2color cells
        for r in step0:
            attrs = r["attrs"]
            assert attrs["delta_sq"] < attrs["threshold"]
            assert attrs["n"] in (16, 24)


class TestTryPhasesSpan:
    """``kernel.try_phases`` carries the messages and bits of its
    window, not just its rounds, and the work of its conflict pass."""

    @pytest.mark.parametrize("algorithm", ["trial", "improved"])
    def test_window_traffic_matches_the_kernel_run(
        self, algorithm, tmp_path
    ):
        from repro.baselines.trial import trial_d2_color
        from repro.congest.policy import BandwidthPolicy
        from repro.core.d2color import improved_d2_color
        from repro.exec import use_backend
        from repro.graphs.generators import random_regular

        # Both runs end inside the try-phase window (improved's is its
        # random trials), so the window carries all of the traffic.
        graph = random_regular(4, 64, seed=1)
        path = str(tmp_path / "t.jsonl")
        rec = TraceRecorder(path)
        with use_recorder(rec), use_backend("vectorized"):
            if algorithm == "trial":
                result = trial_d2_color(
                    graph, seed=0, policy=BandwidthPolicy.track()
                )
            else:
                result = improved_d2_color(
                    graph,
                    seed=0,
                    policy=BandwidthPolicy.track(),
                    allow_deterministic_fallback=False,
                )
        rec.close()
        ends = [
            r for r in iter_spans(read_trace(path)) if r["phase"] in "EX"
        ]
        [window] = [r for r in ends if r["name"] == "kernel.try_phases"]
        [kernel] = [r for r in ends if r["name"] == "exec.kernel"]
        assert window["attrs"]["rounds"] == result.rounds
        assert result.metrics.total_messages > 0
        assert result.metrics.total_bits > 0
        for key in ("messages", "bits"):
            assert window["attrs"][key] == kernel["attrs"][key]
        assert window["attrs"]["messages"] == result.metrics.total_messages
        assert window["attrs"]["bits"] == result.metrics.total_bits

    def test_work_counts_follow_the_triers(self, tmp_path, monkeypatch):
        # Every live node tries each trial phase, so a node colored in
        # its k-th phase was a trier in k phases; the conflict pass
        # gathers the closed rows N[x] of each phase's middles: the
        # triers and their neighbours (every node once half the nodes
        # try; small graphs always take every node, which the patch
        # below turns off).
        import networkx as nx

        from repro.baselines.trial import TrialProgram
        from repro.congest.network import Network
        from repro.congest.policy import BandwidthPolicy
        from repro.core.trying import all_colored

        from repro.exec import vectorized

        monkeypatch.setattr(vectorized, "_ALL_MIDDLES_MAX", 0)
        graph = nx.gnp_random_graph(120, 0.05, seed=3)
        delta = max(d for _, d in graph.degree)
        net = Network(
            graph, TrialProgram, seed=1,
            policy=BandwidthPolicy.track(),
            inputs={v: {"palette": delta * delta + 1} for v in graph},
        )
        path = str(tmp_path / "t.jsonl")
        rec = TraceRecorder(path)
        with use_recorder(rec):
            net.run(
                backend="vectorized", max_rounds=5_000,
                stop_when=all_colored, raise_on_timeout=False,
            )
        rec.close()
        [window] = [
            r for r in iter_spans(read_trace(path))
            if r["phase"] in "EX" and r["name"] == "kernel.try_phases"
        ]
        tried = {v: net.programs[v].phases_tried for v in graph}
        phases = max(tried.values())
        assert phases >= 3
        closed = {v: graph.degree[v] + 1 for v in graph}  # |N[v]|
        entries = 0
        for phase in range(phases):
            triers = {v for v in graph if tried[v] > phase}
            middles = (
                set(graph)  # once half the nodes try: every node
                if 2 * len(triers) >= len(graph)
                else triers.union(*(graph[v] for v in triers))
            )
            entries += sum(closed[x] for x in middles)
        attrs = window["attrs"]
        assert attrs["triers"] == sum(tried.values())
        assert attrs["relay_entries"] == entries
        assert attrs["relay_entries"] < phases * sum(closed.values())


class TestRandomizedSectionSpans:
    """A traced Hoffman–Singleton run books every round to exactly one
    kernel span: the trials window, similarity, the Reduce ladder and,
    for ``improved``, LearnPalette and finish — no generator runs."""

    @pytest.mark.parametrize("variant", ["improved", "basic"])
    def test_span_rounds_sum_to_the_run(self, variant, tmp_path):
        from repro.core.d2color import basic_d2_color, improved_d2_color
        from repro.exec import use_backend
        from repro.graphs.instances import hoffman_singleton

        color = {"improved": improved_d2_color, "basic": basic_d2_color}
        path = str(tmp_path / "t.jsonl")
        rec = TraceRecorder(path)
        with use_recorder(rec), use_backend("vectorized"):
            result = color[variant](
                hoffman_singleton(), seed=1, max_rounds=2_000
            )
        rec.close()
        records = read_trace(path)
        assert not [
            r for r in records
            if r["kind"] == "event" and r["name"] in (
                "exec.fallback", "kernel.decline"
            )
        ]
        ends = [r for r in iter_spans(records) if r["phase"] in "EX"]
        sections = [
            r for r in ends
            if r["name"] in (
                "kernel.try_phases", "kernel.similarity",
                "kernel.reduce_phases", "kernel.learn_palette",
                "kernel.finish",
            )
        ]
        names = [r["name"] for r in sections]
        assert "kernel.similarity" in names
        assert "kernel.reduce_phases" in names
        assert "exec.run" not in [r["name"] for r in ends]
        tail = {"kernel.learn_palette", "kernel.finish"}
        assert tail & set(names) == (
            tail if variant == "improved" else set()
        )
        assert sum(r["attrs"]["rounds"] for r in sections) == result.rounds
        for key in ("messages", "bits"):
            assert sum(r["attrs"][key] for r in sections) == getattr(
                result.metrics, f"total_{key}"
            )
        [kernel] = [r for r in ends if r["name"] == "exec.kernel"]
        assert kernel["attrs"]["rounds"] == result.rounds


# ----------------------------------------------------------------------
# cache-stats arithmetic


class TestPublishHooks:
    def test_cache_stats_delta_add_publish(self):
        stats = CacheStats()
        stats.hits, stats.misses = 5, 2
        baseline = stats.snapshot()
        stats.hits += 3
        stats.csr_builds += 1
        delta = stats.delta(baseline)
        assert delta.hits == 3 and delta.misses == 0
        assert delta.csr_builds == 1

        other = CacheStats()
        other.hits, other.square_builds = 1, 4
        delta.add(other)
        assert delta.hits == 4 and delta.square_builds == 4


# ----------------------------------------------------------------------
# cache stats through sweeps and shard merges


class TestSweepCacheStats:
    def test_run_grid_attaches_the_cache_delta(self):
        instance_cache().clear()
        sweep = SweepBackend(executor="serial").run_grid(small_grid())
        assert sweep.cache_stats is not None
        # The prebuild installs instances, the cells then resolve
        # them from the cache — the delta must show that activity.
        assert sweep.cache_stats.hits > 0

        metrics = sweep.aggregate_metrics()
        assert metrics.cache_stats is sweep.cache_stats
        # The determinism contract: the attached stats must never
        # leak into the dataclass repr that feeds fingerprints.
        assert "cache" not in repr(metrics)

    def test_cache_stats_never_feed_the_fingerprint(self):
        sweep = SweepBackend(executor="serial").run_grid(small_grid())
        fp = sweep.fingerprint()
        sweep.cache_stats = CacheStats()
        sweep.cache_stats.hits = 10 ** 9
        assert sweep.fingerprint() == fp

    def test_shard_merge_sums_the_sidecars(self, tmp_path):
        manifest = compile_manifest(small_grid(), 2)
        manifest.save(str(tmp_path))
        for shard in (0, 1):
            run_shard(manifest, shard, str(tmp_path))
            sidecar = stats_path(str(tmp_path), shard)
            data = json.loads(
                open(sidecar, encoding="utf-8").read()
            )
            assert all(
                isinstance(v, int) and v >= 0 for v in data.values()
            )
        merged = merge_shards(manifest, str(tmp_path))
        assert merged.cache_stats is not None
        assert sum(merged.cache_stats.snapshot().values()) > 0

    def test_resume_accumulates_into_the_sidecar(self, tmp_path):
        manifest = compile_manifest(small_grid(), 1)
        manifest.save(str(tmp_path))
        run_shard(manifest, 0, str(tmp_path), max_cells=2)
        first = json.loads(
            open(
                stats_path(str(tmp_path), 0), encoding="utf-8"
            ).read()
        )
        run_shard(manifest, 0, str(tmp_path))
        final = json.loads(
            open(
                stats_path(str(tmp_path), 0), encoding="utf-8"
            ).read()
        )
        for key, value in first.items():
            assert final.get(key, 0) >= value

    def test_torn_sidecar_never_blocks_a_merge(self, tmp_path):
        manifest = compile_manifest(small_grid(), 2)
        manifest.save(str(tmp_path))
        for shard in (0, 1):
            run_shard(manifest, shard, str(tmp_path))
        with open(stats_path(str(tmp_path), 0), "w") as handle:
            handle.write('{"hits": 3, "mis')  # torn mid-write
        merged = merge_shards(manifest, str(tmp_path))
        assert merged.ok
        # Shard 1's sidecar still contributes.
        assert merged.cache_stats is not None

    @staticmethod
    def _cache_json(trace, capsys):
        assert obs_main(["cache", "--json", trace]) == 0
        data = json.loads(capsys.readouterr().out)
        data.pop("hit_rate")
        return data

    def test_traced_run_shard_annotates_its_sidecar_delta(
        self, tmp_path, capsys
    ):
        manifest = compile_manifest(small_grid(), 2)
        (tmp_path / "ckpt").mkdir()
        checkpoints = str(tmp_path / "ckpt")
        manifest.save(checkpoints)
        trace = str(tmp_path / "trace.jsonl")
        enable(trace)
        try:
            run_shard(manifest, 0, checkpoints)
        finally:
            disable()
        sidecar = json.loads(
            open(stats_path(checkpoints, 0), encoding="utf-8").read()
        )
        assert sidecar["hits"] + sidecar["misses"] > 0
        assert self._cache_json(trace, capsys) == sidecar

    def test_traced_run_grid_annotates_its_cache_delta(
        self, tmp_path, capsys
    ):
        trace = str(tmp_path / "trace.jsonl")
        enable(trace)
        try:
            sweep = SweepBackend(executor="serial").run_grid(
                small_grid()
            )
        finally:
            disable()
        expected = sweep.cache_stats.snapshot()
        assert expected["hits"] > 0
        assert self._cache_json(trace, capsys) == expected


# ----------------------------------------------------------------------
# the report CLI


class TestObsCli:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        rec = TraceRecorder(path, worker="w0")
        with use_recorder(rec):
            with span("sweep.grid", cells=2) as sp:
                t0 = rec.clock()
                rec.complete(
                    "exec.run",
                    t0,
                    {"rounds": 4, "messages": 20, "bits": 160},
                )
                sp.annotate(cache={"hits": 3, "misses": 1})
            rec.event("fleet.claim", {"shard": 0, "worker": "w0"})
            rec.event("fleet.release", {"shard": 0, "worker": "w0"})
        rec.close()
        return path

    def test_summary_renders_spans_and_metrics(
        self, trace_path, capsys
    ):
        assert obs_main(["summary", trace_path]) == 0
        out = capsys.readouterr().out
        assert "sweep.grid" in out and "exec.run" in out
        assert "fleet.claim" in out
        assert "metrics:" not in out
        assert obs_main(["summary", "--json", trace_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert sorted(data) == ["events", "spans"]

    def test_phases_table(self, trace_path, capsys):
        assert obs_main(["phases", trace_path]) == 0
        out = capsys.readouterr().out
        assert "exec.run" in out and "20" in out

    def test_cache_breakdown_derives_hit_rate(
        self, trace_path, capsys
    ):
        assert obs_main(["cache", "--json", trace_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["hits"] == 3 and data["misses"] == 1
        assert data["hit_rate"] == 0.75

    def test_fleet_rollup(self, trace_path, capsys):
        assert obs_main(["fleet", "--json", trace_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "0": {
                "claims": 1,
                "reclaims": 0,
                "heartbeats": 0,
                "releases": 1,
                "lost": 0,
            }
        }

    def test_cache_view_without_cache_attrs(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"kind":"event","name":"a","t":1.0}\n', encoding="utf-8"
        )
        assert obs_main(["cache", str(path)]) == 0
        assert "no cache metrics in trace" in capsys.readouterr().out
        assert obs_main(["cache", "--json", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {}

    def test_fleet_rollup_orders_shards_numerically(self):
        records = [
            {"kind": "event", "name": "fleet.claim", "t": 1.0,
             "attrs": {"shard": shard}}
            for shard in (10, 2, 1)
        ]
        records.append(
            {"kind": "event", "name": "fleet.claim", "t": 1.0}
        )
        assert [shard for shard, _ in fleet_rollup(records)] == [
            1, 2, 10, "?",
        ]

    def test_validate_exit_codes(self, trace_path, tmp_path, capsys):
        assert obs_main(["validate", trace_path]) == 0
        assert "trace ok" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind":"wat"}\n', encoding="utf-8")
        assert obs_main(["validate", str(bad)]) == 5
        assert "unknown kind" in capsys.readouterr().out

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert obs_main(["summary", missing]) == 2
        assert capsys.readouterr().err
