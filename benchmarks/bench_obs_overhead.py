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
  one (best of three per side, to keep allocator/IO noise out of the
  ratio).

Not part of the CI bench smoke subset: run on demand with
``pytest -m slow benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

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
    registry as obs_registry,
    validate_trace,
)
from repro.workloads import get_workload, instance_cache

pytestmark = pytest.mark.slow

WORKLOAD = "gnp-huge-262144"
MAX_OVERHEAD = 1.05
REPEATS = 3


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
        seeds=(0,),
    )

    # Warm the instance cache once so neither side pays the build.
    _timed_sweep(cells)

    plain_walls, traced_walls = [], []
    plain_sweep = traced_sweep = None
    for repeat in range(REPEATS):
        wall, plain_sweep = _timed_sweep(cells)
        plain_walls.append(wall)

        trace_dir = tmp_path / f"trace{repeat}"
        trace_dir.mkdir()
        obs_registry().clear()
        enable(trace_dir)
        try:
            wall, traced_sweep = _timed_sweep(cells)
        finally:
            disable()
        traced_walls.append(wall)

    assert plain_sweep.ok and traced_sweep.ok
    assert traced_sweep.fingerprint() == plain_sweep.fingerprint(), (
        "tracing perturbed the sweep fingerprint"
    )

    records = read_trace(trace_dir)
    assert records, "traced sweep produced no records"
    assert validate_trace(records) == []

    plain_wall, traced_wall = min(plain_walls), min(traced_walls)
    overhead = traced_wall / plain_wall
    assert overhead < MAX_OVERHEAD, (
        f"tracing overhead {overhead:.3f}x exceeds "
        f"{MAX_OVERHEAD:.2f}x ({plain_wall:.2f}s -> {traced_wall:.2f}s)"
    )

    print(
        f"{WORKLOAD}: untraced {plain_wall:.2f}s, traced "
        f"{traced_wall:.2f}s ({overhead:.3f}x, {len(records)} "
        f"trace records); fingerprints identical"
    )
