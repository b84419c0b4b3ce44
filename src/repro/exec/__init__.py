"""Pluggable execution backends for the CONGEST simulator.

``repro.exec`` decouples *what* a run means (the lockstep CONGEST
semantics fixed by :class:`~repro.congest.network.Network`) from *how*
it is executed.  Two engines ship by default:

``reference``
    The one generator round loop
    (:func:`~repro.exec.reference.run_generators`, metering inlined);
    semantic ground truth.
``vectorized``
    Struct-of-arrays numpy kernels over CSR-form G/G² adjacency for
    the hottest program classes (trial/slack, Luby MIS, the
    deterministic chain), with automatic fallback to ``reference``
    for everything else — the engine for the huge tier.

:class:`~repro.exec.sweep.SweepBackend` is not an engine but a grid
executor: it fans algorithm × instance × seed cells across
``concurrent.futures`` workers, each cell running on its ``inner``
engine, with deterministic aggregation.  Cells reference workloads
by key; prebuilt instances (graph, Δ, the CSR/G² arrays from
:mod:`repro.workloads`) ship to process workers through the pool
initializer.

Grids also compile to *shard manifests* (:mod:`repro.exec.shards`):
deterministic JSON, independently runnable and resumable shards with
per-cell checkpoints, and a merge that is byte-identical to the
unsharded run.  On top, :mod:`repro.exec.fleet` schedules those
shards across any number of worker processes/hosts via atomic lease
files with heartbeats and crash reclaim (``python -m
repro.exec.fleet work <dir>``).

Select an engine per call (``network.run(backend="vectorized")``,
``spec.run(graph, backend="vectorized")``) or ambiently::

    from repro.exec import use_backend

    with use_backend("vectorized"):
        result = improved_d2_color(graph, seed=1)

See ``docs/BACKENDS.md`` for the architecture notes.
"""

from repro.exec.base import (
    ExecutionBackend,
    available_backends,
    current_backend,
    get_backend,
    register_backend,
    use_backend,
)
from repro.exec.fleet import (
    FleetStalledError,
    FleetTimeoutError,
    FleetWorkerReport,
    LeaseLostError,
    LeaseStore,
    ReclaimPolicy,
    fleet_status,
    run_fleet,
    run_fleet_worker,
)
from repro.exec.reference import ReferenceBackend
from repro.exec.shards import (
    ShardIncompleteError,
    ShardManifest,
    ShardStatus,
    compile_manifest,
    merge_shards,
    run_shard,
    shard_status,
)
from repro.exec.sweep import (
    CellResult,
    Coloring,
    SweepBackend,
    SweepCell,
    SweepResult,
    grid_cells,
    prebuild_instances,
    run_cell,
)
from repro.exec.vectorized import VectorizedBackend

#: The default engine instances, registered in order.
REFERENCE = register_backend(ReferenceBackend())
VECTORIZED = register_backend(VectorizedBackend())

__all__ = [
    "CellResult",
    "Coloring",
    "ExecutionBackend",
    "FleetStalledError",
    "FleetTimeoutError",
    "FleetWorkerReport",
    "LeaseLostError",
    "LeaseStore",
    "REFERENCE",
    "ReclaimPolicy",
    "ReferenceBackend",
    "ShardIncompleteError",
    "ShardManifest",
    "ShardStatus",
    "SweepBackend",
    "SweepCell",
    "SweepResult",
    "VECTORIZED",
    "VectorizedBackend",
    "available_backends",
    "compile_manifest",
    "current_backend",
    "fleet_status",
    "get_backend",
    "grid_cells",
    "merge_shards",
    "prebuild_instances",
    "register_backend",
    "run_cell",
    "run_fleet",
    "run_fleet_worker",
    "run_shard",
    "shard_status",
    "use_backend",
]
