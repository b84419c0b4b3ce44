"""E22 — sharded, resumable sweep execution.

Regenerates the E22 table (shard-merge byte-identity at k = 1, 2, 3;
kill-and-resume from per-cell checkpoints; lease-based fleet crash
reclaim; instance-cache sharing across cells) and times one grid
unsharded, in 3 shards and through a 2-worker fleet, each of which
must merge to the unsharded fingerprint.
"""

import time

from repro import registry
from repro.exec import SweepBackend, grid_cells, run_fleet
from repro.harness.experiments import e22_sharded_sweep
from repro.workloads import get_workload

from conftest import report


def test_e22_sharded_sweep(benchmark):
    table = benchmark.pedantic(
        e22_sharded_sweep, iterations=1, rounds=1
    )
    report(table)


def test_shard_overhead(tmp_path, benchmark):
    """Unsharded vs 3-shard vs 2-worker-fleet wall-clock on one grid
    (printed); the sharded and fleet merges must match the unsharded
    fingerprint."""
    cells = grid_cells(
        specs=[
            registry.get_algorithm(name)
            for name in ("trial", "greedy-oracle")
        ],
        scenarios=[
            get_workload(name)
            for name in ("gnp24", "relay3x4", "powerlaw24")
        ],
        seeds=(22, 23),
    )
    t0 = time.perf_counter()
    unsharded = SweepBackend(executor="serial").run_grid(cells)
    unsharded_s = time.perf_counter() - t0

    sharded = benchmark.pedantic(
        lambda: run_fleet(cells, 3, str(tmp_path), num_workers=1),
        iterations=1,
        rounds=1,
    )
    sharded_s = benchmark.stats.stats.min
    assert sharded.fingerprint() == unsharded.fingerprint()

    t0 = time.perf_counter()
    fleet = run_fleet(
        cells, 3, str(tmp_path / "fleet"), num_workers=2
    )
    fleet_s = time.perf_counter() - t0
    assert fleet.fingerprint() == unsharded.fingerprint()

    print(
        f"{len(cells)} cells: unsharded {unsharded_s:.3f}s, "
        f"3 shards {sharded_s:.3f}s, 2-worker fleet {fleet_s:.3f}s"
    )
