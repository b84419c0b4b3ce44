"""Tracing overhead acceptance bench (opt-in, slow).

The observability layer promises zero-overhead-when-off *and*
near-zero overhead when on: span records are emitted at phase
granularity (plan build, kernel run, sweep cell), never per node or
per round, so a traced sweep should be indistinguishable from an
untraced one on anything but a stopwatch.  This bench pins both
halves of that contract on the ``gnp-huge-262144`` vectorized tier:

- a traced single-shard sweep must produce a **byte-identical merge
  fingerprint** to the untraced twin — tracing observes the run, it
  never perturbs RNG, fingerprints, or digests;
- the traced sweep's wall clock must stay within 5% of the untraced
  one: the gate reads the median, over five pairs, of each pair's
  traced/untraced wall ratio.  The two runs of a pair go back to back
  (taking turns at running first), so a pair's ratio sees one speed
  of a shared host's core, which swings by ±10% over seconds; the
  median drops a pair that straddles a swing.  Each timed sweep runs
  :data:`SEEDS` cells, ~1 s per side on a 2-core host.

Not part of the CI bench smoke subset: run on demand with
``pytest -m slow benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import statistics
import tempfile
import time

import pytest

from repro import registry
from repro.exec import (
    ShardManifest,
    compile_manifest,
    merge_shards,
    grid_cells,
    run_shard,
)
from repro.obs import (
    disable,
    enable,
    read_trace,
    validate_trace,
)
from repro.workloads import get_workload, instance_cache

pytestmark = pytest.mark.slow

WORKLOAD = "gnp-huge-262144"
MAX_OVERHEAD = 1.05
REPEATS = 5
#: One cell per seed: enough cells that a sweep takes ~1 s.
SEEDS = tuple(range(8))


def _single_shard_sweep(cells, tmp):
    manifest = compile_manifest(cells, 1, inner="vectorized")
    path = manifest.save(tmp)
    run_shard(ShardManifest.load(path), 0, tmp)
    return merge_shards(ShardManifest.load(path), tmp)


def _timed_sweep(cells):
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        sweep = _single_shard_sweep(cells, tmp)
    return time.perf_counter() - t0, sweep


def test_tracing_overhead_and_fingerprint(tmp_path):
    cache = instance_cache()
    cache.clear()
    cells = grid_cells(
        specs=[registry.get_algorithm("trial")],
        scenarios=[get_workload(WORKLOAD)],
        seeds=SEEDS,
    )

    # Warm the instance cache once so neither side pays the build.
    _timed_sweep(cells)

    ratios = []
    plain_sweep = traced_sweep = None
    for repeat in range(REPEATS):
        trace_dir = tmp_path / f"trace{repeat}"
        walls = {}
        for traced in (False, True) if repeat % 2 else (True, False):
            if not traced:
                walls[traced], plain_sweep = _timed_sweep(cells)
                continue
            trace_dir.mkdir()
            enable(trace_dir)
            try:
                walls[traced], traced_sweep = _timed_sweep(cells)
            finally:
                disable()
        ratios.append(walls[True] / walls[False])

    assert plain_sweep.ok and traced_sweep.ok
    assert traced_sweep.fingerprint() == plain_sweep.fingerprint(), (
        "tracing perturbed the sweep fingerprint"
    )

    records = read_trace(trace_dir)
    assert records, "traced sweep produced no records"
    assert validate_trace(records) == []

    overhead = statistics.median(ratios)
    pairs = ", ".join(f"{r:.3f}" for r in ratios)
    assert overhead < MAX_OVERHEAD, (
        f"tracing overhead {overhead:.3f}x (median of pair ratios "
        f"{pairs}) exceeds {MAX_OVERHEAD:.2f}x"
    )

    print(
        f"{WORKLOAD}: traced/untraced wall {overhead:.3f}x (median of "
        f"pair ratios {pairs}; {len(records)} trace records); "
        "fingerprints identical"
    )
