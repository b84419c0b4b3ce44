"""Huge-tier CSR-first acceptance bench (opt-in, slow).

The million-node sweep used to spend most of its wall clock and
~4.2 GB of peak RSS building and holding ``nx.Graph`` objects.  With
CSR-born instances the same single-shard vectorized sweep runs
entirely on int64 arrays.  This bench pins the win and its safety:

- the CSR-born sweep runs in a child process, and the child's *own*
  peak RSS (``ru_maxrss`` of ``RUSAGE_SELF``) must stay within
  1 GiB;
- an nx-built twin of the same instance, pushed through the same
  cells in this process, must produce a byte-identical sweep
  fingerprint — the array path changes the cost, never the result.

The child is forked from a ``forkserver`` process, never exec'd from
this one: Linux carries an exec-ing process's peak RSS into the new
image's ``ru_maxrss``, so a ``spawn`` or ``subprocess`` child would
report at least this pytest process's high-water mark.  A child
forked from the fresh server starts from the server's own small
footprint, so the reading does not depend on what ran before it.

Not part of the CI bench smoke subset: run on demand with
``pytest -m slow benchmarks/bench_huge_csr.py``.
"""

from __future__ import annotations

import multiprocessing
import resource
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import networkx as nx
import pytest

from repro import registry
from repro.exec import (
    ShardManifest,
    compile_manifest,
    grid_cells,
    merge_shards,
    run_shard,
)
from repro.exec.arrays import csr_upper_edges
from repro.workloads import get_workload, instance_cache
from repro.workloads.cache import Instance

pytestmark = pytest.mark.slow

WORKLOAD = "gnp-huge-1048576"
RSS_BUDGET_MB = 1024.0


def _cells():
    return grid_cells(
        specs=[registry.get_algorithm("trial")],
        scenarios=[get_workload(WORKLOAD)],
        seeds=(0,),
    )


def _single_shard_sweep(cells, tmp):
    manifest = compile_manifest(cells, 1, inner="vectorized")
    path = manifest.save(tmp)
    run_shard(ShardManifest.load(path), 0, tmp)
    return merge_shards(ShardManifest.load(path), tmp)


def _csr_sweep_in_child():
    """The CSR-born sweep, run in the child: its errors, whether the
    instance stayed CSR-only, its fingerprint, wall seconds and the
    child's own peak RSS in MiB."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        sweep = _single_shard_sweep(_cells(), tmp)
    wall = time.perf_counter() - t0
    instance = instance_cache().get(WORKLOAD, 0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "errors": [c.error for c in sweep.failures],
        "csr_born": instance._csr_born,
        "nx_built": instance._graph is not None,
        "fingerprint": sweep.fingerprint(),
        "wall": wall,
        "peak_mb": peak_mb,
    }


def test_million_node_sweep_rss_and_fingerprint():
    forkserver = multiprocessing.get_context("forkserver")
    with ProcessPoolExecutor(1, mp_context=forkserver) as pool:
        csr = pool.submit(_csr_sweep_in_child).result()
    assert not csr["errors"], csr["errors"]
    assert csr["csr_born"], "huge-tier instance not CSR-born"
    assert not csr["nx_built"], "the kernel path materialized an nx.Graph"
    assert csr["peak_mb"] <= RSS_BUDGET_MB, (
        f"CSR sweep peaked at {csr['peak_mb']:.0f} MiB "
        f"(budget {RSS_BUDGET_MB:.0f} MiB)"
    )

    # --- nx-built twin through the identical cells: the legacy
    # instance path end to end, same fingerprint required.
    spec = get_workload(WORKLOAD)
    cache = instance_cache()
    cache.clear()
    adjacency = cache.get(WORKLOAD, 0).csr()
    twin = nx.Graph()
    twin.add_nodes_from(range(adjacency.n))
    us, vs = csr_upper_edges(adjacency)
    twin.add_edges_from(zip(us.tolist(), vs.tolist()))
    twin_instance = Instance.from_graph(
        spec.name, 0, twin, spec.params, registered=True
    )
    assert not twin_instance._csr_born
    cache.clear()
    cache.install([twin_instance])
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        twin_sweep = _single_shard_sweep(_cells(), tmp)
    twin_wall = time.perf_counter() - t0
    assert twin_sweep.ok, [c.error for c in twin_sweep.failures]
    assert twin_sweep.fingerprint() == csr["fingerprint"], (
        "CSR-born and nx-built sweeps diverged"
    )
    cache.clear()
    print(
        f"{WORKLOAD}: csr sweep {csr['wall']:.1f}s / "
        f"{csr['peak_mb']:.0f} MiB child peak; nx twin "
        f"{twin_wall:.1f}s; fingerprints identical"
    )
