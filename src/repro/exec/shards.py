"""Sharded, resumable sweep execution.

A grid of :class:`~repro.exec.sweep.SweepCell` compiles to a
deterministic *shard manifest* — a JSON document fixing the cell list
(in submission order), the round-level engine, and a round-robin
assignment of cells to ``num_shards`` shards.  Each shard then runs
independently: in this process, in a pool, or on a second host pointed
at the same manifest file.  Completed cells are checkpointed one JSON
line at a time, so a killed shard resumes from its checkpoint without
recomputing finished cells, and :func:`merge_shards` reassembles the
:class:`~repro.exec.sweep.SweepResult` in manifest order — byte-
identical (``fingerprint()`` and aggregate metrics) to an unsharded
run of the same grid.

Layout on disk::

    <dir>/manifest.json      the compiled grid (see MANIFEST_VERSION)
    <dir>/shard_<i>.jsonl    one completed CellResult per line

Workload-keyed cells serialize as their key, so a manifest stays small
even for huge instances — any host with the same code resolves the
key through :mod:`repro.workloads` and its instance cache.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.congest.metrics import RoundMetrics, RunMetrics
from repro.congest.policy import BandwidthMode, BandwidthPolicy
from repro.obs import trace as obs_trace
from repro.exec.sweep import (
    CellResult,
    Coloring,
    SweepCell,
    SweepResult,
    prebuild_instances,
    run_cell,
)
from repro.results import column

#: 2: per-node randomness became the counter hash of repro.congest.rng.
#: 3: checkpoint records carry the coloring as two flat columns.
#: 4: int columns are packed binary (see _column_to_json).
#: 5: ``colors_used`` no longer counts an uncolored node.
#: Part of every grid digest, so older checkpoints never resume.
MANIFEST_VERSION = 5

#: Packed int column dtypes, narrowest first.
_PACKED_DTYPES = ("<i1", "<i2", "<i4", "<i8")

MANIFEST_NAME = "manifest.json"


class ShardIncompleteError(RuntimeError):
    """Raised by :func:`merge_shards` when checkpoints are missing
    results for some manifest cells."""


# ----------------------------------------------------------------------
# JSON codecs (lossless: merge must be byte-identical to unsharded)


def policy_to_json(policy: Optional[BandwidthPolicy]) -> Optional[Dict]:
    if policy is None:
        return None
    return {
        "mode": policy.mode.value,
        "beta": policy.beta,
        "min_bits": policy.min_bits,
    }


def policy_from_json(data: Optional[Dict]) -> Optional[BandwidthPolicy]:
    if data is None:
        return None
    return BandwidthPolicy(
        mode=BandwidthMode(data["mode"]),
        beta=data["beta"],
        min_bits=data["min_bits"],
    )


def cell_to_json(cell: SweepCell) -> Dict:
    data: Dict[str, Any] = {
        "algorithm": cell.algorithm,
        "scenario": cell.scenario,
        "seed": cell.seed,
        "policy": policy_to_json(cell.policy),
    }
    if cell.workload is not None:
        data["workload"] = cell.workload
    else:
        data["nodes"] = list(cell.nodes)
        data["edges"] = [list(e) for e in cell.edges]
        # Attribute keys are omitted when empty so attribute-free
        # grids keep their pre-existing digests.
        if cell.node_attrs:
            data["node_attrs"] = [
                [v, [list(kv) for kv in items]]
                for v, items in cell.node_attrs
            ]
        if cell.edge_attrs:
            data["edge_attrs"] = [
                [list(edge), [list(kv) for kv in items]]
                for edge, items in cell.edge_attrs
            ]
    return data


def cell_from_json(data: Dict) -> SweepCell:
    return SweepCell(
        algorithm=data["algorithm"],
        scenario=data["scenario"],
        seed=data["seed"],
        nodes=tuple(data.get("nodes", ())),
        edges=tuple(tuple(e) for e in data.get("edges", ())),
        policy=policy_from_json(data.get("policy")),
        workload=data.get("workload"),
        node_attrs=tuple(
            (v, tuple(tuple(kv) for kv in items))
            for v, items in data.get("node_attrs", ())
        ),
        edge_attrs=tuple(
            (tuple(edge), tuple(tuple(kv) for kv in items))
            for edge, items in data.get("edge_attrs", ())
        ),
    )


def _metrics_to_json(metrics: RunMetrics) -> Dict:
    return {
        "rounds": metrics.rounds,
        "total_messages": metrics.total_messages,
        "total_bits": metrics.total_bits,
        "max_message_bits": metrics.max_message_bits,
        "budget_bits": metrics.budget_bits,
        "violations": metrics.violations,
        "worst_violation_bits": metrics.worst_violation_bits,
        "per_round": [
            {
                "round_index": r.round_index,
                "messages": r.messages,
                "bits": r.bits,
                "max_message_bits": r.max_message_bits,
            }
            for r in metrics.per_round
        ],
    }


def _metrics_from_json(data: Dict) -> RunMetrics:
    return RunMetrics(
        rounds=data["rounds"],
        total_messages=data["total_messages"],
        total_bits=data["total_bits"],
        max_message_bits=data["max_message_bits"],
        budget_bits=data["budget_bits"],
        violations=data["violations"],
        worst_violation_bits=data["worst_violation_bits"],
        per_round=[
            RoundMetrics(
                round_index=r["round_index"],
                messages=r["messages"],
                bits=r["bits"],
                max_message_bits=r["max_message_bits"],
            )
            for r in data["per_round"]
        ],
    )


def _column_to_json(col: np.ndarray) -> Any:
    """One coloring column of a record: an int column equal to
    ``arange(n)`` is ``["range", n]``, any other int column is
    ``[dtype, base64]`` in the narrowest of :data:`_PACKED_DTYPES`
    that holds it, and an object column is a plain JSON list."""
    if col.dtype == object:
        values = col.tolist()
        if _tagged(values):
            raise ValueError(
                f"object column {values!r} reads as a packed column"
            )
        return values
    if np.array_equal(col, np.arange(len(col))):
        return ["range", len(col)]
    lo, hi = col.min(), col.max()
    dtype = next(
        d
        for d in _PACKED_DTYPES
        if np.iinfo(d).min <= lo and hi <= np.iinfo(d).max
    )
    return [dtype, base64.b64encode(col.astype(dtype)).decode("ascii")]


def _tagged(data: List) -> bool:
    return (
        len(data) == 2
        and isinstance(data[0], str)
        and (data[0] == "range" or data[0] in _PACKED_DTYPES)
    )


def _column_from_json(data: List) -> np.ndarray:
    """Inverse of :func:`_column_to_json`.  Raises ``ValueError`` (or
    ``TypeError``) on anything it could not have written, such as an
    int column as a plain list, so such a record reads as damage."""
    if not isinstance(data, list):
        raise TypeError(f"coloring column is not a list: {data!r}")
    if _tagged(data):
        tag, payload = data
        if tag == "range":
            if type(payload) is not int or payload < 0:
                raise ValueError(f"bad range column length {payload!r}")
            return np.arange(payload, dtype=np.int64)
        raw = base64.b64decode(payload, validate=True)
        return np.frombuffer(raw, dtype=tag).astype(np.int64)
    col = column(data)
    if col.dtype != object:
        raise ValueError("int coloring column stored as a plain list")
    return col


def result_to_json(result: CellResult) -> Dict:
    return {
        "algorithm": result.algorithm,
        "scenario": result.scenario,
        "seed": result.seed,
        "colors_used": result.colors_used,
        "palette_size": result.palette_size,
        "rounds": result.rounds,
        "metrics": _metrics_to_json(result.metrics),
        "coloring": {
            "nodes": _column_to_json(result.coloring.nodes),
            "colors": _column_to_json(result.coloring.colors),
        },
        "error": result.error,
    }


def result_from_json(data: Dict) -> CellResult:
    return CellResult(
        algorithm=data["algorithm"],
        scenario=data["scenario"],
        seed=data["seed"],
        colors_used=data["colors_used"],
        palette_size=data["palette_size"],
        rounds=data["rounds"],
        metrics=_metrics_from_json(data["metrics"]),
        coloring=Coloring(
            _column_from_json(data["coloring"]["nodes"]),
            _column_from_json(data["coloring"]["colors"]),
        ),
        error=data["error"],
    )


# ----------------------------------------------------------------------
# the manifest


@dataclass(frozen=True)
class ShardManifest:
    """A compiled grid: cell list (submission order), shard count,
    round-robin assignment, and the inner engine — everything a second
    process (or host) needs to run its share and merge."""

    num_shards: int
    inner: str
    cells: Tuple[SweepCell, ...]
    grid_digest: str

    def shard_indices(self, shard: int) -> List[int]:
        """Manifest-order cell indices owned by ``shard``
        (round-robin, so shards stay balanced whatever the grid
        ordering)."""
        self._validate_shard(shard)
        return list(range(shard, len(self.cells), self.num_shards))

    def shard_cells(self, shard: int) -> List[Tuple[int, SweepCell]]:
        """``(manifest index, cell)`` pairs owned by ``shard``."""
        return [(i, self.cells[i]) for i in self.shard_indices(shard)]

    def _validate_shard(self, shard: int) -> None:
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard must be in 0..{self.num_shards - 1}; got {shard}"
            )

    # -- persistence -----------------------------------------------------

    def to_json(self) -> Dict:
        return {
            "version": MANIFEST_VERSION,
            "num_shards": self.num_shards,
            "inner": self.inner,
            "grid_digest": self.grid_digest,
            "cells": [cell_to_json(cell) for cell in self.cells],
        }

    def save(self, path: str) -> str:
        """Write the manifest (under ``path`` if it is a directory).

        The write is atomic (unique temp file + fsync + ``os.replace``,
        the same pattern checkpoint repair uses): a kill mid-save can
        never leave a torn manifest that makes every worker's
        :meth:`load` raise, and re-saving over a live manifest is safe
        while other workers hold it open.
        """
        if os.path.isdir(path):
            path = os.path.join(path, MANIFEST_NAME)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, separators=(",", ":"))
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    @staticmethod
    def load(path: str) -> "ShardManifest":
        if os.path.isdir(path):
            path = os.path.join(path, MANIFEST_NAME)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version {data.get('version')!r}"
            )
        cells = tuple(cell_from_json(c) for c in data["cells"])
        manifest = ShardManifest(
            num_shards=data["num_shards"],
            inner=data["inner"],
            cells=cells,
            grid_digest=data["grid_digest"],
        )
        if grid_digest(cells) != data["grid_digest"]:
            raise ValueError(
                "manifest digest mismatch: cell list was modified"
            )
        return manifest


def grid_digest(cells: Sequence[SweepCell]) -> str:
    """Deterministic content address of the version and cell list
    (order matters: submission order is part of the grid identity)."""
    import hashlib

    payload = json.dumps(
        [MANIFEST_VERSION, *map(cell_to_json, cells)], separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def compile_manifest(
    cells: Sequence[SweepCell],
    num_shards: int,
    inner: str = "reference",
) -> ShardManifest:
    """Compile a grid into a deterministic shard manifest."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    cells = tuple(cells)
    return ShardManifest(
        num_shards=num_shards,
        inner=inner,
        cells=cells,
        grid_digest=grid_digest(cells),
    )


# ----------------------------------------------------------------------
# shard execution with checkpointing


def checkpoint_path(checkpoint_dir: str, shard: int) -> str:
    return os.path.join(checkpoint_dir, f"shard_{shard}.jsonl")


def stats_path(checkpoint_dir: str, shard: int) -> str:
    """Cache-activity sidecar of a shard checkpoint.  Kept out of the
    result JSONL on purpose: non-result records there would read as
    damage to :func:`_read_checkpoint` and trigger repairs."""
    return os.path.join(checkpoint_dir, f"shard_{shard}.stats.json")


def _read_stats(path: str) -> Dict[str, int]:
    """The sidecar's counters, ``{}`` when absent or damaged (stats
    are advisory — a torn sidecar must never block a merge)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            return {}
        return {
            key: int(value)
            for key, value in data.items()
            if isinstance(value, (int, float))
        }
    except (OSError, ValueError):
        return {}


def _write_stats(path: str, data: Dict[str, int]) -> None:
    """Atomic sidecar write (same temp + fsync + replace pattern as
    the manifest), so a kill mid-write leaves the previous version."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _read_checkpoint(
    path: str, grid_digest: str, owned: Optional[Sequence[int]] = None
) -> Tuple[Dict[int, CellResult], bool]:
    """Completed ``{manifest index: result}`` from a shard checkpoint,
    plus whether any line was damaged or foreign.

    Every record is stamped with the manifest's grid digest; records
    from a *different* grid (a stale checkpoint left in a reused
    directory) are discarded like damaged ones, so they can never be
    merged into the wrong grid's result.  With ``owned`` (the manifest
    indices this shard is responsible for), records for indices the
    shard does *not* own — another shard's file copied into place, or
    out-of-range indices from a longer grid with the same digest —
    are discarded the same way, so ``ShardRun.resumed`` only ever
    counts owned cells.  Tolerates a truncated trailing line (the
    signature of a kill mid-write): the damaged record is dropped and
    recomputed on resume.

    A *duplicate* record for an index already seen is damage too (a
    doubly-appended checkpoint — e.g. a reclaimed lease whose previous
    owner was still flushing): the first record wins deterministically
    and the file is repaired, instead of the later record silently
    overwriting the earlier one forever.
    """
    done: Dict[int, CellResult] = {}
    damaged = False
    owned_set = None if owned is None else set(owned)
    if not os.path.exists(path):
        return done, damaged
    with open(path, "r", encoding="utf-8") as handle:
        content = handle.read()
    if content and not content.endswith("\n"):
        damaged = True
    for line in content.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if record["grid"] != grid_digest:
                damaged = True
                continue
            index = record["index"]
            if owned_set is not None and index not in owned_set:
                damaged = True
                continue
            if index in done:
                damaged = True
                continue
            done[index] = result_from_json(record["result"])
        except (ValueError, KeyError, TypeError):
            damaged = True
            continue
    return done, damaged


def _checkpoint_record(
    index: int, result: CellResult, grid_digest: str
) -> str:
    record = {
        "index": index,
        "grid": grid_digest,
        "result": result_to_json(result),
    }
    return json.dumps(record, separators=(",", ":"))


def _repair_checkpoint(
    path: str, done: Dict[int, CellResult], grid_digest: str
) -> None:
    """Rewrite a damaged checkpoint to only this grid's valid
    records, so a resume never appends onto a torn line and stale
    foreign records are purged (atomic via rename)."""
    tmp = path + ".repair"
    with open(tmp, "w", encoding="utf-8") as handle:
        for index in sorted(done):
            handle.write(
                _checkpoint_record(index, done[index], grid_digest)
            )
            handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


@dataclass
class ShardRun:
    """Outcome of one :func:`run_shard` invocation."""

    shard: int
    total: int
    resumed: int
    executed: int

    @property
    def complete(self) -> bool:
        return self.resumed + self.executed == self.total


def prebuild_tag(manifest: ShardManifest) -> Tuple:
    """Instance-cache prewarm tag meaning *every* instance this
    manifest references is already built in this process (see
    :meth:`InstanceCache.mark_prewarmed
    <repro.workloads.cache.InstanceCache.mark_prewarmed>`).  The
    fleet driver marks it after prebuilding the whole grid once, so
    each subsequently claimed shard skips the per-shard prebuild
    scan."""
    return ("shard-prebuild", manifest.grid_digest, manifest.inner)


def run_shard(
    manifest: ShardManifest,
    shard: int,
    checkpoint_dir: str,
    max_cells: Optional[int] = None,
    on_cell: Optional[Callable[[int, CellResult], None]] = None,
) -> ShardRun:
    """Execute (or resume) one shard, checkpointing per cell.

    Already-checkpointed cells are skipped, so re-invoking after a
    kill completes the shard without recomputing finished work.
    ``max_cells`` bounds how many *new* cells run this invocation —
    the hook the resume tests (and incremental schedulers) use to
    stop a shard mid-flight cleanly.

    ``on_cell(index, result)`` is called after each *newly executed*
    cell is checkpointed — the fleet scheduler's heartbeat hook.  An
    exception raised from it (e.g. :class:`~repro.exec.fleet.
    LeaseLostError`) aborts the remaining cells; everything already
    checkpointed stays durable for whoever runs the shard next.
    """
    os.makedirs(checkpoint_dir, exist_ok=True)
    path = checkpoint_path(checkpoint_dir, shard)
    owned = manifest.shard_cells(shard)
    done, damaged = _read_checkpoint(
        path,
        manifest.grid_digest,
        owned=manifest.shard_indices(shard),
    )
    if damaged:
        _repair_checkpoint(path, done, manifest.grid_digest)
        obs_trace.event("shard.repair", shard=shard, kept=len(done))
    pending = [(i, cell) for i, cell in owned if i not in done]
    from repro.workloads import instance_cache

    cache = instance_cache()
    stats_baseline = cache.stats.snapshot()
    executed = 0
    with obs_trace.span(
        "shard.run",
        shard=shard,
        total=len(owned),
        resumed=len(done),
    ) as sp:
        # One build per referenced instance, shared by every pending
        # cell — skipped entirely when a fleet driver already prebuilt
        # the whole manifest into this process's cache (prebuild_tag).
        if not cache.was_prewarmed(prebuild_tag(manifest)):
            prebuild_instances([cell for _, cell in pending])
        with open(path, "a", encoding="utf-8") as handle:
            for index, cell in pending:
                if max_cells is not None and executed >= max_cells:
                    break
                result = run_cell(cell, inner=manifest.inner)
                handle.write(
                    _checkpoint_record(
                        index, result, manifest.grid_digest
                    )
                )
                handle.write("\n")
                handle.flush()
                executed += 1
                if on_cell is not None:
                    on_cell(index, result)
        # Cache activity of this invocation: traced on the span and
        # accumulated into the shard's sidecar (cumulative across
        # resumes) for merge_shards to pick up.
        delta = cache.stats.delta(stats_baseline).snapshot()
        sp.annotate(executed=executed, cache=delta)
    sidecar = stats_path(checkpoint_dir, shard)
    previous = _read_stats(sidecar)
    _write_stats(
        sidecar,
        {
            key: previous.get(key, 0) + value
            for key, value in delta.items()
        },
    )
    return ShardRun(
        shard=shard,
        total=len(owned),
        resumed=len(done),
        executed=executed,
    )


class ShardStatus(NamedTuple):
    """Per-shard checkpoint state, as :func:`shard_status` reports it.

    ``damaged`` is True while the checkpoint holds torn, foreign,
    stale-grid, or duplicate-index records that the next
    :func:`run_shard` will repair — the repair can only *shrink*
    ``done``, so schedulers (the fleet reclaim decision in
    particular) must treat a damaged shard as incomplete even when
    ``done == total``.
    """

    shard: int
    done: int
    total: int
    damaged: bool

    @property
    def complete(self) -> bool:
        return self.done == self.total and not self.damaged


def one_shard_status(
    manifest: ShardManifest, checkpoint_dir: str, shard: int
) -> ShardStatus:
    """A single shard's :class:`ShardStatus`, from its checkpoint."""
    owned = manifest.shard_indices(shard)
    done, damaged = _read_checkpoint(
        checkpoint_path(checkpoint_dir, shard),
        manifest.grid_digest,
        owned=owned,
    )
    return ShardStatus(
        shard,
        sum(1 for i in owned if i in done),
        len(owned),
        damaged,
    )


def shard_status(
    manifest: ShardManifest, checkpoint_dir: str
) -> List[ShardStatus]:
    """One :class:`ShardStatus` per shard, from the checkpoints."""
    return [
        one_shard_status(manifest, checkpoint_dir, shard)
        for shard in range(manifest.num_shards)
    ]


def merge_shards(
    manifest: ShardManifest, checkpoint_dir: str
) -> SweepResult:
    """Reassemble the grid's :class:`SweepResult` in manifest order.

    Raises :class:`ShardIncompleteError` (listing the missing cells)
    unless every manifest cell has a checkpointed result — a partial
    merge would silently change aggregate metrics.
    """
    results: Dict[int, CellResult] = {}
    for shard in range(manifest.num_shards):
        done, _ = _read_checkpoint(
            checkpoint_path(checkpoint_dir, shard),
            manifest.grid_digest,
            owned=manifest.shard_indices(shard),
        )
        for index in manifest.shard_indices(shard):
            if index in done:
                results[index] = done[index]
    missing = [
        i for i in range(len(manifest.cells)) if i not in results
    ]
    if missing:
        raise ShardIncompleteError(
            f"{len(missing)} of {len(manifest.cells)} cells have no "
            f"checkpointed result (first missing: {missing[:5]}); "
            "run the remaining shards before merging"
        )
    # Sum the per-shard cache-activity sidecars (advisory: absent or
    # torn sidecars contribute nothing and never block the merge).
    cache_stats = None
    for shard in range(manifest.num_shards):
        data = _read_stats(stats_path(checkpoint_dir, shard))
        if data:
            from repro.workloads.cache import CacheStats

            if cache_stats is None:
                cache_stats = CacheStats()
            cache_stats.add(
                CacheStats(
                    hits=data.get("hits", 0),
                    misses=data.get("misses", 0),
                    builds=data.get("builds", 0),
                    square_builds=data.get("square_builds", 0),
                    csr_builds=data.get("csr_builds", 0),
                )
            )
    return SweepResult(
        cells=[results[i] for i in range(len(manifest.cells))],
        cache_stats=cache_stats,
    )
