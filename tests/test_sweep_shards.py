"""Shard-merge equivalence and resumability.

The contract of :mod:`repro.exec.shards`: a grid split into 1, 2, or
k shards merges to a :class:`SweepResult` *byte-identical*
(``fingerprint()`` plus aggregate metrics) to the unsharded run, and
a killed shard resumes from its per-cell checkpoint without
recomputing finished cells.  Also pins the JSON codecs (lossless
round-trips are what byte-identity rests on), manifest persistence
with digest validation, and the prebuilt-instance shipping that keeps
process workers from rebuilding per cell.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import registry
from repro.congest.network import Network, NetworkPlan
from repro.exec import (
    CellResult,
    Coloring,
    ShardIncompleteError,
    ShardManifest,
    SweepBackend,
    SweepCell,
    compile_manifest,
    grid_cells,
    merge_shards,
    run_shard,
    run_sharded,
    shard_status,
)
from repro.exec.shards import (
    _column_to_json,
    cell_from_json,
    cell_to_json,
    checkpoint_path,
    result_from_json,
    result_to_json,
)
from repro.exec.sweep import run_cell
from repro.workloads import get_workload

SEED = 13

_SPECS = [
    registry.get_algorithm(name)
    for name in ("trial", "deterministic-d2", "greedy-oracle")
]
_WORKLOADS = [
    get_workload(name)
    for name in ("cycle5", "gnp24", "relay3x4", "powerlaw24")
]


def small_grid():
    return grid_cells(
        specs=_SPECS, scenarios=_WORKLOADS, seeds=(SEED, SEED + 1)
    )


@pytest.fixture(scope="module")
def unsharded():
    return SweepBackend(executor="serial").run_grid(small_grid())


class TestShardMergeEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 5])
    def test_merge_is_byte_identical(
        self, tmp_path, unsharded, num_shards
    ):
        merged = run_sharded(
            small_grid(), num_shards, str(tmp_path)
        )
        assert merged.fingerprint() == unsharded.fingerprint()
        assert repr(merged.aggregate_metrics()) == repr(
            unsharded.aggregate_metrics()
        )

    def test_shards_partition_the_grid(self):
        manifest = compile_manifest(small_grid(), 3)
        owned = [
            manifest.shard_indices(shard) for shard in range(3)
        ]
        flat = sorted(i for indices in owned for i in indices)
        assert flat == list(range(len(manifest.cells)))
        sizes = [len(indices) for indices in owned]
        assert max(sizes) - min(sizes) <= 1  # round-robin balance

    def test_second_process_can_run_from_the_manifest_file(
        self, tmp_path, unsharded
    ):
        """The multi-host story: shard runners share only the
        manifest file and the checkpoint directory."""
        manifest = compile_manifest(small_grid(), 2)
        path = manifest.save(str(tmp_path))
        for shard in (0, 1):
            reloaded = ShardManifest.load(path)
            run_shard(reloaded, shard, str(tmp_path))
        merged = merge_shards(
            ShardManifest.load(path), str(tmp_path)
        )
        assert merged.fingerprint() == unsharded.fingerprint()


class TestResume:
    def test_killed_shard_resumes_from_checkpoint(
        self, tmp_path, unsharded
    ):
        manifest = compile_manifest(small_grid(), 2)
        manifest.save(str(tmp_path))
        partial = run_shard(manifest, 0, str(tmp_path), max_cells=3)
        assert partial.executed == 3 and not partial.complete
        assert shard_status(manifest, str(tmp_path))[0][1] == 3

        resumed = run_shard(manifest, 0, str(tmp_path))
        assert resumed.resumed == 3  # nothing recomputed
        assert resumed.complete
        run_shard(manifest, 1, str(tmp_path))
        merged = merge_shards(manifest, str(tmp_path))
        assert merged.fingerprint() == unsharded.fingerprint()

    def test_truncated_checkpoint_line_is_recovered(
        self, tmp_path, unsharded
    ):
        """A kill mid-write leaves a torn JSON line; resume must drop
        it and recompute that cell, not crash or corrupt the merge."""
        manifest = compile_manifest(small_grid(), 2)
        run_shard(manifest, 0, str(tmp_path), max_cells=2)
        path = checkpoint_path(str(tmp_path), 0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 4, "result": {"algo')  # torn
        resumed = run_shard(manifest, 0, str(tmp_path))
        assert resumed.resumed == 2
        assert resumed.complete
        run_shard(manifest, 1, str(tmp_path))
        merged = merge_shards(manifest, str(tmp_path))
        assert merged.fingerprint() == unsharded.fingerprint()

    def test_merge_refuses_incomplete_checkpoints(self, tmp_path):
        manifest = compile_manifest(small_grid(), 2)
        run_shard(manifest, 0, str(tmp_path))
        with pytest.raises(ShardIncompleteError, match="no"):
            merge_shards(manifest, str(tmp_path))

    def test_stale_checkpoints_from_another_grid_are_discarded(
        self, tmp_path, unsharded
    ):
        """Reusing a checkpoint directory for a *different* grid must
        never merge the old grid's results into the new one: records
        are stamped with the grid digest and foreign ones dropped."""
        other = grid_cells(
            specs=_SPECS[:1],
            scenarios=[get_workload("petersen")],
            seeds=(SEED,),
        )
        run_sharded(other, 2, str(tmp_path))  # stale shard_*.jsonl

        manifest = compile_manifest(small_grid(), 2)
        manifest.save(str(tmp_path))
        # Nothing of the stale run counts as done for this grid.
        assert all(
            status.done == 0
            for status in shard_status(manifest, str(tmp_path))
        )
        for shard in (0, 1):
            run_shard(manifest, shard, str(tmp_path))
        merged = merge_shards(manifest, str(tmp_path))
        assert merged.fingerprint() == unsharded.fingerprint()


class TestManifest:
    def test_save_load_round_trip(self, tmp_path):
        manifest = compile_manifest(small_grid(), 4, inner="reference")
        path = manifest.save(str(tmp_path))
        loaded = ShardManifest.load(path)
        assert loaded == manifest

    def test_tampered_manifest_is_rejected(self, tmp_path):
        manifest = compile_manifest(small_grid(), 2)
        path = manifest.save(str(tmp_path))
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["cells"] = data["cells"][:-1]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        with pytest.raises(ValueError, match="digest"):
            ShardManifest.load(path)

    def test_version_1_manifest_is_refused(self, tmp_path):
        # Version-1 grids ran on per-node streams that no longer
        # exist: resuming or merging their checkpoints would mix two
        # definitions of randomness in one result.
        from repro.exec import fleet

        path = compile_manifest(small_grid(), 2).save(str(tmp_path))
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["version"] = 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        with pytest.raises(ValueError, match="version 1"):
            ShardManifest.load(path)
        for command in ("work", "merge"):
            with pytest.raises(ValueError, match="version 1"):
                fleet.main([command, str(tmp_path)])

    def test_checkpoints_of_another_version_never_resume(
        self, tmp_path, monkeypatch
    ):
        from repro.exec import shards

        cells = small_grid()
        monkeypatch.setattr(shards, "MANIFEST_VERSION", 1)
        old = compile_manifest(cells, 1)
        run_shard(old, 0, str(tmp_path))
        monkeypatch.undo()
        new = compile_manifest(cells, 1)
        assert new.grid_digest != old.grid_digest
        with pytest.raises(ShardIncompleteError):
            merge_shards(new, str(tmp_path))
        run = run_shard(new, 0, str(tmp_path))
        assert (run.resumed, run.executed) == (0, len(cells))

    def test_workload_cells_serialize_by_key(self):
        cells = small_grid()
        assert all(cell.workload for cell in cells)
        for cell in cells:
            data = cell_to_json(cell)
            assert "nodes" not in data  # key, not payload
            assert cell_from_json(data) == cell

    def test_adhoc_cells_serialize_by_payload(self):
        import networkx as nx

        from repro.exec import SweepCell

        cell = SweepCell.from_graph(
            "trial", "adhoc", 3, nx.path_graph(5)
        )
        data = cell_to_json(cell)
        assert data["nodes"] == [0, 1, 2, 3, 4]
        assert cell_from_json(data) == cell

    def test_result_codec_is_lossless(self, unsharded):
        for result in unsharded.cells:
            back = result_from_json(
                json.loads(json.dumps(result_to_json(result)))
            )
            assert repr(back) == repr(result)

    @pytest.mark.parametrize(
        "change",
        [
            # a timed-out cell leaves nodes uncolored
            {"coloring": Coloring.from_mapping({0: None, 1: 3, 2: None})},
            {
                "coloring": Coloring.from_mapping(
                    {0: 2**63, 1: 2**64 + 5, 2: -(2**63) - 1}
                )
            },
            {"coloring": Coloring(), "error": "ValueError: boom"},
        ],
    )
    def test_result_codec_keeps_edge_cases(self, unsharded, change):
        result = dataclasses.replace(unsharded.cells[0], **change)
        data = result_to_json(result)
        assert set(data["coloring"]) == {"nodes", "colors"}
        back = result_from_json(json.loads(json.dumps(data)))
        assert repr(back) == repr(result)

    @pytest.mark.parametrize(
        "coloring",
        [
            # version 2: one [node, color] pair per node
            lambda pairs: [list(pair) for pair in pairs],
            # columns of unequal length
            lambda pairs: {
                "nodes": [v for v, _ in pairs],
                "colors": [c for _, c in pairs][:-1],
            },
            # version 3: int columns as plain JSON lists
            lambda pairs: {
                "nodes": [v for v, _ in pairs],
                "colors": [c for _, c in pairs],
            },
        ],
        ids=["pair-list", "ragged-columns", "v3-int-lists"],
    )
    def test_unreadable_coloring_records_are_damage(
        self, tmp_path, unsharded, coloring
    ):
        """A version-2 record stores the coloring as ``[node, color]``
        pairs, a version-3 one as plain int lists.  Even stamped with
        the current grid digest either must be repaired and
        recomputed, never crash or reach a merge; so must a record
        whose two columns disagree in length."""
        from repro.exec.shards import _checkpoint_record

        manifest = compile_manifest(small_grid(), 2)
        run_shard(manifest, 0, str(tmp_path), max_cells=2)
        index = manifest.shard_indices(0)[2]
        record = json.loads(
            _checkpoint_record(
                index, unsharded.cells[index], manifest.grid_digest
            )
        )
        record["result"]["coloring"] = coloring(
            unsharded.cells[index].coloring
        )
        path = checkpoint_path(str(tmp_path), 0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

        status = shard_status(manifest, str(tmp_path))[0]
        assert status.damaged and status.done == 2
        with pytest.raises(ShardIncompleteError):
            merge_shards(manifest, str(tmp_path))
        resumed = run_shard(manifest, 0, str(tmp_path))
        assert resumed.resumed == 2 and resumed.complete
        assert not shard_status(manifest, str(tmp_path))[0].damaged
        run_shard(manifest, 1, str(tmp_path))
        merged = merge_shards(manifest, str(tmp_path))
        assert merged.fingerprint() == unsharded.fingerprint()


class TestPrebuiltShipping:
    def test_process_grid_matches_serial_on_workload_cells(
        self, unsharded
    ):
        pooled = SweepBackend(
            executor="process", max_workers=3
        ).run_grid(small_grid())
        assert pooled.fingerprint() == unsharded.fingerprint()
        assert pooled.ok, [c.error for c in pooled.failures]

    def test_spawn_workers_receive_prebuilt_instances(self):
        """Under a spawn context nothing is fork-inherited: worker
        cache contents can only come from the pool initializer."""
        import concurrent.futures

        from repro.exec.sweep import prebuild_instances
        from repro.workloads import install_prebuilt

        cells = small_grid()[:4]
        instances = prebuild_instances(cells)
        for instance in instances:
            instance.square_csr()
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=2,
            mp_context=ctx,
            initializer=install_prebuilt,
            initargs=(instances,),
        ) as pool:
            futures = [
                pool.submit(_probe_worker_cache, cell)
                for cell in cells
            ]
            out = [future.result() for future in futures]
        for builds, has_square in out:
            assert builds == 0  # nothing rebuilt in the worker
            assert has_square  # G² arrived prebuilt


def _probe_worker_cache(cell):
    """(worker-side) builds triggered by resolving ``cell`` and
    whether its G² rows arrived prebuilt."""
    from repro.workloads import instance_cache

    cache = instance_cache()
    before = cache.stats.builds
    instance = cell.instance()
    return (
        cache.stats.builds - before,
        instance.csr().has_square,
    )


class TestCheckpointOwnership:
    """Regression: ``_read_checkpoint`` used to accept digest-stamped
    records for indices the shard does not own, so ``resumed`` (and
    ``ShardRun.complete``) could report done work that never ran."""

    def test_foreign_shard_records_do_not_count_as_resumed(
        self, tmp_path, unsharded
    ):
        import shutil

        manifest = compile_manifest(small_grid(), 2)
        run_shard(manifest, 1, str(tmp_path))
        # Another shard's checkpoint copied into shard 0's slot: same
        # grid digest, entirely foreign indices.
        shutil.copy(
            checkpoint_path(str(tmp_path), 1),
            checkpoint_path(str(tmp_path), 0),
        )
        probe = run_shard(manifest, 0, str(tmp_path), max_cells=0)
        assert probe.resumed == 0  # nothing owned is actually done
        assert not probe.complete
        assert shard_status(manifest, str(tmp_path))[0][1] == 0

        full = run_shard(manifest, 0, str(tmp_path))
        assert full.complete and full.executed == full.total
        merged = merge_shards(manifest, str(tmp_path))
        assert merged.fingerprint() == unsharded.fingerprint()

    def test_out_of_range_indices_are_discarded(
        self, tmp_path, unsharded
    ):
        from repro.exec.shards import _checkpoint_record

        manifest = compile_manifest(small_grid(), 2)
        run_shard(manifest, 0, str(tmp_path), max_cells=2)
        path = checkpoint_path(str(tmp_path), 0)
        # A digest-stamped record for an index past the grid (a reused
        # directory whose old grid was longer, same digest by luck).
        with open(path, "a", encoding="utf-8") as handle:
            record = _checkpoint_record(
                10_000,
                unsharded.cells[0],
                manifest.grid_digest,
            )
            handle.write(record + "\n")
        resumed = run_shard(manifest, 0, str(tmp_path))
        assert resumed.resumed == 2
        assert resumed.complete
        run_shard(manifest, 1, str(tmp_path))
        merged = merge_shards(manifest, str(tmp_path))
        assert merged.fingerprint() == unsharded.fingerprint()


class TestAttributeCarryingCells:
    """Regression: ad-hoc cells used to drop node/edge attributes, so
    weighted graphs silently lost their weights on any worker that
    rebuilt the instance from the cell payload."""

    def _weighted_graph(self):
        from repro import graphs

        return graphs.weighted_gnp(12, 0.3, seed=5, max_weight=9)

    def test_adhoc_cell_rebuilds_attrs_from_payload(self):
        from repro.exec import SweepCell

        graph = self._weighted_graph()
        cell = SweepCell.from_graph("trial", "weighted", 2, graph)
        assert cell.edge_attrs  # the payload carries the weights
        rebuilt = cell.graph()
        for u, v in graph.edges:
            assert (
                rebuilt.edges[u, v]["weight"]
                == graph.edges[u, v]["weight"]
            )

    def test_attrs_round_trip_through_manifest_json(self):
        from repro.exec import SweepCell

        graph = self._weighted_graph()
        cell = SweepCell.from_graph("trial", "weighted", 2, graph)
        back = cell_from_json(
            json.loads(json.dumps(cell_to_json(cell)))
        )
        assert back == cell
        rebuilt = back.graph()
        for u, v in graph.edges:
            assert (
                rebuilt.edges[u, v]["weight"]
                == graph.edges[u, v]["weight"]
            )

    def test_attr_free_cells_keep_their_json_shape(self):
        """Grid digests of attribute-free grids must not change: the
        attrs keys are omitted when empty."""
        import networkx as nx

        from repro.exec import SweepCell

        cell = SweepCell.from_graph(
            "trial", "plain", 0, nx.path_graph(4)
        )
        data = cell_to_json(cell)
        assert "node_attrs" not in data
        assert "edge_attrs" not in data

    def test_weighted_adhoc_cells_agree_across_paths(
        self, tmp_path
    ):
        """serial ≡ process ≡ sharded for a weighted ad-hoc grid."""
        from repro.exec import SweepCell

        graph = self._weighted_graph()
        cells = [
            SweepCell.from_graph("trial", "weighted", seed, graph)
            for seed in (0, 1, 2, 3)
        ]
        serial = SweepBackend(executor="serial").run_grid(cells)
        pooled = SweepBackend(
            executor="process", max_workers=2
        ).run_grid(cells)
        sharded = run_sharded(cells, 2, str(tmp_path))
        assert pooled.fingerprint() == serial.fingerprint()
        assert sharded.fingerprint() == serial.fingerprint()
        assert serial.ok, [c.error for c in serial.failures]


class TestVectorizedInner:
    def test_sharded_vectorized_merge_matches_records_off_run(
        self, tmp_path, unsharded
    ):
        """``inner="vectorized"`` shards merge byte-identical to the
        reference-inner unsharded run (the engines promise
        bit-identical metrics)."""
        merged = run_sharded(
            small_grid(), 2, str(tmp_path), inner="vectorized"
        )
        assert merged.fingerprint() == unsharded.fingerprint()

    def test_vectorized_grid_matches_serial_records_off(self, unsharded):
        swept = SweepBackend(
            executor="serial", inner="vectorized"
        ).run_grid(small_grid())
        assert swept.fingerprint() == unsharded.fingerprint()
        assert swept.ok, [c.error for c in swept.failures]


class TestAtomicManifestSave:
    """Regression: ``ShardManifest.save`` used to write in place — a
    kill mid-save left a torn manifest that made every worker's
    ``load`` raise until a human re-saved it."""

    def test_interrupted_save_leaves_previous_manifest_intact(
        self, tmp_path, monkeypatch
    ):
        import repro.exec.shards as shards

        manifest = compile_manifest(small_grid(), 2)
        path = manifest.save(str(tmp_path))
        good = ShardManifest.load(path)

        def torn_dump(obj, handle, **kwargs):
            handle.write('{"version": 1, "num_sh')
            raise KeyboardInterrupt  # the kill, mid-write

        monkeypatch.setattr(shards.json, "dump", torn_dump)
        with pytest.raises(KeyboardInterrupt):
            compile_manifest(small_grid()[:4], 2).save(str(tmp_path))
        # The torn bytes never reached the manifest path.
        assert ShardManifest.load(path) == good

    def test_save_leaves_no_temp_droppings(self, tmp_path):
        compile_manifest(small_grid(), 2).save(str(tmp_path))
        assert os.listdir(str(tmp_path)) == ["manifest.json"]


class TestDuplicateCheckpointRecords:
    """Regression: a later duplicate record for an index silently
    overwrote the earlier one without setting ``damaged``, so a
    doubly-appended checkpoint (zombie writer + lease reclaimer) was
    never repaired — and last-wins is the wrong winner anyway."""

    def test_duplicate_index_is_damage_and_first_record_wins(
        self, tmp_path, unsharded
    ):
        from repro.exec.shards import _checkpoint_record

        manifest = compile_manifest(small_grid(), 2)
        run_shard(manifest, 0, str(tmp_path), max_cells=2)
        path = checkpoint_path(str(tmp_path), 0)
        with open(path, "r", encoding="utf-8") as handle:
            first = json.loads(handle.readline())
        # A conflicting duplicate (a real zombie's would be identical
        # since cells are deterministic; a detectably different one
        # proves keep-first).
        clobber = result_from_json(first["result"])
        clobber.rounds = 9999
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                _checkpoint_record(
                    first["index"], clobber, manifest.grid_digest
                )
                + "\n"
            )

        assert shard_status(manifest, str(tmp_path))[0].damaged
        resumed = run_shard(manifest, 0, str(tmp_path))
        assert resumed.resumed == 2
        assert resumed.complete

        with open(path, "r", encoding="utf-8") as handle:
            records = [
                json.loads(line) for line in handle if line.strip()
            ]
        indices = [r["index"] for r in records]
        assert len(indices) == len(set(indices))  # repaired: unique
        kept = {r["index"]: r for r in records}[first["index"]]
        assert kept["result"]["rounds"] == first["result"]["rounds"]
        assert kept["result"]["rounds"] != 9999

        run_shard(manifest, 1, str(tmp_path))
        merged = merge_shards(manifest, str(tmp_path))
        assert merged.fingerprint() == unsharded.fingerprint()


class TestDamagedStatus:
    """Regression: ``shard_status`` discarded the damaged flag, so a
    torn checkpoint reported done-counts that silently *shrank* after
    the next ``run_shard`` repaired it — and the fleet scheduler had
    no way to treat such a shard as incomplete."""

    def test_torn_checkpoint_is_flagged_until_repaired(self, tmp_path):
        manifest = compile_manifest(small_grid(), 2)
        run_shard(manifest, 0, str(tmp_path), max_cells=2)
        path = checkpoint_path(str(tmp_path), 0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 4, "result": {"algo')  # torn
        status = shard_status(manifest, str(tmp_path))[0]
        assert status.damaged
        assert not status.complete
        assert status.done == 2

        run_shard(manifest, 0, str(tmp_path))  # repairs, finishes
        status = shard_status(manifest, str(tmp_path))[0]
        assert not status.damaged
        assert status.complete

    def test_clean_checkpoints_report_undamaged(self, tmp_path):
        manifest = compile_manifest(small_grid(), 2)
        run_shard(manifest, 0, str(tmp_path))
        first, second = shard_status(manifest, str(tmp_path))
        assert not first.damaged and first.complete
        assert not second.damaged and second.done == 0


def test_run_sharded_writes_manifest_and_checkpoints(tmp_path):
    cells = small_grid()[:6]
    run_sharded(cells, 2, str(tmp_path))
    assert os.path.exists(os.path.join(str(tmp_path), "manifest.json"))
    manifest = ShardManifest.load(str(tmp_path))
    assert [
        status
        for status in shard_status(manifest, str(tmp_path))
        if not status.complete
    ] == []


# ----------------------------------------------------------------------
# the coloring columns and their record encoding

#: Each packed dtype's limits, one past them, and beyond int64.
_BOUNDARIES = [
    bound + step
    for bits in (8, 16, 32, 64)
    for bound in (-(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
    for step in ((-1, 0) if bound < 0 else (0, 1))
] + [2**64 + 5]

_colors = st.one_of(
    st.none(),
    st.integers(-300, 300),
    st.sampled_from(_BOUNDARIES),
)


@st.composite
def colorings(draw):
    if draw(st.booleans()):
        nodes = list(range(draw(st.integers(0, 40))))
    else:
        nodes = draw(
            st.lists(
                st.one_of(
                    st.integers(-(2**40), 2**40),
                    st.sampled_from(_BOUNDARIES),
                ),
                unique=True,
                max_size=40,
            )
        )
    return {node: draw(_colors) for node in nodes}


class TestColoringCodec:
    @given(colorings())
    @settings(max_examples=200, deadline=None)
    def test_record_round_trip(self, mapping):
        coloring = Coloring.from_mapping(mapping)
        result = CellResult("trial", "adhoc", 0, coloring=coloring)
        back = result_from_json(
            json.loads(json.dumps(result_to_json(result)))
        ).coloring
        assert back == coloring
        assert repr(back) == repr(coloring)
        assert dict(back) == mapping
        assert list(back) == sorted(mapping.items())

    def test_none_and_int64_min_have_different_digests(self):
        cut = Coloring.from_mapping({0: None})
        low = Coloring.from_mapping({0: -(2**63)})
        assert cut.colors.dtype == object and low.colors.dtype != object
        assert cut != low and repr(cut) != repr(low)

    def test_only_exact_ints_pack(self):
        assert Coloring.from_mapping({0: 1, 1: 2}).colors.dtype != object
        for odd in (True, 1.0, 2**63, None):
            coloring = Coloring.from_mapping({0: 1, 1: odd})
            assert coloring.colors.dtype == object
            assert list(coloring) == [(0, 1), (1, odd)]

    @pytest.mark.parametrize(
        "color, dtype",
        [
            (127, "<i1"),
            (-128, "<i1"),
            (128, "<i2"),
            (-129, "<i2"),
            (2**15, "<i4"),
            (2**31, "<i8"),
            (-(2**63), "<i8"),
        ],
    )
    def test_narrowest_dtype_packs(self, color, dtype):
        coloring = Coloring.from_mapping({3: color, 7: color})
        assert _column_to_json(coloring.colors)[0] == dtype
        assert _column_to_json(coloring.nodes)[0] == "<i1"

    def test_dense_nodes_are_a_range(self):
        coloring = Coloring.from_mapping({2: 5, 0: 5, 1: 6})
        assert list(coloring) == [(0, 5), (1, 6), (2, 5)]
        assert _column_to_json(coloring.nodes) == ["range", 3]

    def test_unsorted_or_ragged_columns_are_refused(self):
        with pytest.raises(ValueError):
            Coloring([1, 0], [5, 5])
        with pytest.raises(ValueError):
            Coloring([0, 1], [5])


class TestHugeTierCell:
    """One ``trial x gnp-huge-16384`` cell on the vectorized engine."""

    CELL = SweepCell.from_workload("trial", "gnp-huge-16384", 0)

    def test_fingerprint_is_small(self):
        cells = [self.CELL, dataclasses.replace(self.CELL, seed=1)]
        swept = SweepBackend(
            executor="serial", inner="vectorized"
        ).run_grid(cells)
        assert swept.ok, [c.error for c in swept.failures]
        assert len(swept.fingerprint()) < 2048 * len(cells)

    def test_a_run_leaves_no_cyclic_network(self):
        """A network and its plan are freed by reference counting
        alone: no cycle keeps the 2**20-node arrays alive until the
        next gen-2 collection."""
        run_cell(self.CELL, inner="vectorized")  # warm the cache
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            result = run_cell(self.CELL, inner="vectorized")
            gc.collect()
            cyclic = [
                type(obj).__name__
                for obj in gc.garbage
                if isinstance(obj, (Network, NetworkPlan))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert result.ok, result.error
        assert cyclic == []
