"""Lease-based fleet scheduling: claim, heartbeat, reclaim, survive.

The contract of :mod:`repro.exec.fleet`: any number of workers (any
process, any host sharing the checkpoint directory) race over one
shard manifest through atomic lease files; a worker dying mid-shard
— simulated abandonment or a real SIGKILL — has its lease reclaimed
by a survivor, and the final :func:`merge_shards` result stays
byte-identical to the unsharded sweep fingerprint.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import registry
from repro.exec import (
    LeaseLostError,
    LeaseStore,
    ReclaimPolicy,
    ShardManifest,
    SweepBackend,
    compile_manifest,
    fleet_status,
    grid_cells,
    merge_shards,
    run_fleet,
    run_fleet_worker,
    run_shard,
)
from repro.exec.fleet import main as fleet_main
from repro.workloads import get_workload

SEED = 31

#: Snappy loop for tests: stale after 100ms, poll every 20ms.
FAST = ReclaimPolicy(
    stale_after=0.1,
    poll_interval=0.02,
    max_poll_interval=0.1,
)

#: Generous wall-clock bound so a scheduling bug fails the test
#: instead of hanging the suite.
DEADLINE = 60.0


def small_grid():
    specs = [
        registry.get_algorithm(name)
        for name in ("trial", "greedy-oracle")
    ]
    corpus = [
        get_workload(name)
        for name in ("cycle5", "gnp24", "powerlaw24")
    ]
    return grid_cells(
        specs=specs, scenarios=corpus, seeds=(SEED, SEED + 1)
    )


@pytest.fixture(scope="module")
def unsharded():
    return SweepBackend(executor="serial").run_grid(small_grid())


@pytest.fixture()
def saved_manifest(tmp_path):
    manifest = compile_manifest(small_grid(), 2)
    manifest.save(str(tmp_path))
    return manifest


class TestLeaseStore:
    def _stores(self, tmp_path, *names, policy=FAST):
        return [
            LeaseStore(str(tmp_path), "digest", worker_id=name,
                       policy=policy)
            for name in names
        ]

    def test_claim_is_exclusive(self, tmp_path):
        a, b = self._stores(tmp_path, "a", "b")
        lease = a.try_claim(0)
        assert lease is not None
        assert b.try_claim(0) is None
        assert b.try_claim(1) is not None  # other shards unaffected

    def test_heartbeat_bumps_the_monotonic_counter(self, tmp_path):
        (a,) = self._stores(tmp_path, "a")
        lease = a.try_claim(0)
        for expected in (1, 2, 3):
            lease.heartbeat()
            assert a.read(0)["counter"] == expected

    def test_release_frees_the_shard(self, tmp_path):
        a, b = self._stores(tmp_path, "a", "b")
        a.try_claim(0).release()
        assert a.read(0) is None
        assert b.try_claim(0) is not None

    def test_fresh_lease_is_not_reclaimable(self, tmp_path):
        a, b = self._stores(
            tmp_path, "a", "b",
            policy=ReclaimPolicy(stale_after=60.0),
        )
        a.try_claim(0)
        assert b.try_reclaim(0) is None  # first sighting starts clock
        assert b.try_reclaim(0) is None  # still inside stale_after

    def test_stale_lease_is_reclaimed_and_owner_loses(self, tmp_path):
        a, b = self._stores(tmp_path, "a", "b")
        dead = a.try_claim(0)
        assert b.try_reclaim(0) is None  # observation starts
        time.sleep(FAST.stale_after * 1.5)
        taken = b.try_reclaim(0)
        assert taken is not None
        assert taken.takeovers == 1
        assert b.read(0)["owner"] == "b"
        with pytest.raises(LeaseLostError):
            dead.heartbeat()

    def test_heartbeats_keep_a_lease_live(self, tmp_path):
        a, b = self._stores(tmp_path, "a", "b")
        lease = a.try_claim(0)
        assert b.try_reclaim(0) is None
        time.sleep(FAST.stale_after * 0.7)
        lease.heartbeat()  # counter changed: b's clock restarts
        time.sleep(FAST.stale_after * 0.7)
        assert b.try_reclaim(0) is None

    def test_corrupt_lease_goes_stale_like_a_dead_one(self, tmp_path):
        a, b = self._stores(tmp_path, "a", "b")
        with open(a.lease_path(0), "w", encoding="utf-8") as handle:
            handle.write('{"own')  # claimer died mid-create
        assert b.read(0) == {"corrupt": True}
        assert b.try_reclaim(0) is None
        time.sleep(FAST.stale_after * 1.5)
        assert b.try_reclaim(0) is not None

    def test_takeover_budget_bounds_reclaims(self, tmp_path):
        policy = ReclaimPolicy(stale_after=0.05, max_takeovers=2)
        a, b = self._stores(tmp_path, "a", "b", policy=policy)
        lease = a.try_claim(0, takeovers=policy.max_takeovers)
        assert b.try_reclaim(0) is None
        time.sleep(policy.stale_after * 2)
        assert b.try_reclaim(0) is None  # budget spent: stuck
        assert lease.takeovers == policy.max_takeovers


class TestFleetWorkers:
    def test_single_worker_drains_the_manifest(
        self, tmp_path, saved_manifest, unsharded
    ):
        report = run_fleet_worker(
            saved_manifest,
            str(tmp_path),
            policy=FAST,
            deadline=DEADLINE,
        )
        assert sorted(report.claimed) == [0, 1]
        assert sorted(report.completed) == [0, 1]
        assert not report.lost and not report.reclaimed
        merged = merge_shards(saved_manifest, str(tmp_path))
        assert merged.fingerprint() == unsharded.fingerprint()

    def test_workers_racing_hold_disjoint_shards(
        self, tmp_path, unsharded
    ):
        import concurrent.futures

        manifest = compile_manifest(small_grid(), 4)
        manifest.save(str(tmp_path))
        # Roomy stale_after: nothing in this test should ever be
        # reclaimed, even on a loaded CI box.
        race = ReclaimPolicy(
            stale_after=5.0, poll_interval=0.02, max_poll_interval=0.1
        )
        with concurrent.futures.ThreadPoolExecutor(3) as pool:
            reports = [
                future.result()
                for future in [
                    pool.submit(
                        run_fleet_worker,
                        manifest,
                        str(tmp_path),
                        worker_id=f"w{k}",
                        policy=race,
                        deadline=DEADLINE,
                    )
                    for k in range(3)
                ]
            ]
        held = [s for r in reports for s in r.claimed + r.reclaimed]
        assert sorted(held) == [0, 1, 2, 3]  # each shard exactly once
        merged = merge_shards(manifest, str(tmp_path))
        assert merged.fingerprint() == unsharded.fingerprint()

    def test_dead_workers_shard_is_reclaimed_and_finished(
        self, tmp_path, saved_manifest, unsharded
    ):
        # Worker "casualty" claims shard 0, checkpoints two cells,
        # then dies without releasing (no further heartbeats).
        casualty = LeaseStore(
            str(tmp_path),
            saved_manifest.grid_digest,
            worker_id="casualty",
            policy=FAST,
        )
        abandoned = casualty.try_claim(0)
        assert abandoned is not None
        run_shard(saved_manifest, 0, str(tmp_path), max_cells=2)

        survivor = run_fleet_worker(
            saved_manifest,
            str(tmp_path),
            worker_id="survivor",
            policy=FAST,
            deadline=DEADLINE,
        )
        assert survivor.reclaimed == [0]
        assert survivor.resumed == 2  # the casualty's cells survive
        merged = merge_shards(saved_manifest, str(tmp_path))
        assert merged.fingerprint() == unsharded.fingerprint()
        with pytest.raises(LeaseLostError):
            abandoned.heartbeat()

    def test_worker_respects_max_shards(
        self, tmp_path, saved_manifest
    ):
        report = run_fleet_worker(
            saved_manifest,
            str(tmp_path),
            policy=FAST,
            max_shards=1,
            deadline=DEADLINE,
        )
        assert len(report.claimed) == 1
        statuses = fleet_status(saved_manifest, str(tmp_path))
        assert [s.state for s in statuses].count("complete") == 1

    def test_no_wait_worker_returns_while_peer_holds_work(
        self, tmp_path, saved_manifest
    ):
        peer = LeaseStore(
            str(tmp_path),
            saved_manifest.grid_digest,
            worker_id="peer",
            policy=FAST,
        )
        held = peer.try_claim(0)
        report = run_fleet_worker(
            saved_manifest,
            str(tmp_path),
            policy=FAST,
            wait_for_completion=False,
            deadline=DEADLINE,
        )
        assert report.claimed == [1]  # did its share, didn't linger
        held.release()

    def test_fleet_status_reports_leases_and_progress(
        self, tmp_path, saved_manifest
    ):
        peer = LeaseStore(
            str(tmp_path),
            saved_manifest.grid_digest,
            worker_id="peer",
            policy=FAST,
        )
        peer.try_claim(0)
        rows = fleet_status(saved_manifest, str(tmp_path))
        assert rows[0].state == "leased"
        assert rows[0].owner == "peer"
        assert rows[1].state == "pending"


class TestRunFleet:
    @pytest.mark.parametrize("num_workers", [1, 2])
    def test_merge_is_byte_identical(
        self, tmp_path, unsharded, num_workers
    ):
        merged = run_fleet(
            small_grid(),
            3,
            str(tmp_path),
            num_workers=num_workers,
            policy=FAST,
            deadline=DEADLINE,
        )
        assert merged.fingerprint() == unsharded.fingerprint()
        assert repr(merged.aggregate_metrics()) == repr(
            unsharded.aggregate_metrics()
        )


class TestSigkilledWorker:
    def test_sigkilled_cli_worker_is_survived(
        self, tmp_path, saved_manifest, unsharded
    ):
        """The acceptance scenario: a real fleet worker process is
        SIGKILLed mid-shard; a survivor reclaims whatever it held and
        the merge is byte-identical to the unsharded fingerprint —
        whatever instant the kill landed (before the claim, mid-cell,
        or mid-checkpoint-write)."""
        repo_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(repo_root, "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        victim = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.exec.fleet",
                "work",
                str(tmp_path),
                "--worker-id",
                "victim",
                "--throttle",
                "0.15",
                "--stale-after",
                "0.3",
                "--poll-interval",
                "0.02",
            ],
            cwd=repo_root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Let it get properly mid-shard: wait for a lease plus at
            # least one checkpointed cell (bounded wait).
            lease_dir = os.path.join(str(tmp_path), "leases")
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                leases = (
                    os.listdir(lease_dir)
                    if os.path.isdir(lease_dir)
                    else []
                )
                checkpoints = [
                    f
                    for f in os.listdir(str(tmp_path))
                    if f.endswith(".jsonl")
                    and os.path.getsize(
                        os.path.join(str(tmp_path), f)
                    )
                    > 0
                ]
                if leases and checkpoints:
                    break
                time.sleep(0.02)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:  # pragma: no cover - cleanup
                victim.kill()
                victim.wait(timeout=30)

        survivor = run_fleet_worker(
            saved_manifest,
            str(tmp_path),
            worker_id="survivor",
            policy=ReclaimPolicy(
                stale_after=0.3,
                poll_interval=0.02,
                max_poll_interval=0.1,
            ),
            deadline=DEADLINE,
        )
        # The victim died holding a lease, so the survivor reclaimed
        # (it can also have claimed shards the victim never reached).
        assert survivor.reclaimed or survivor.claimed
        merged = merge_shards(saved_manifest, str(tmp_path))
        assert merged.fingerprint() == unsharded.fingerprint()


class TestFleetCLI:
    def test_status_and_merge_commands(
        self, tmp_path, saved_manifest, unsharded, capsys
    ):
        assert (
            fleet_main(["status", str(tmp_path)]) == 3
        )  # incomplete
        run_fleet_worker(
            saved_manifest,
            str(tmp_path),
            policy=FAST,
            deadline=DEADLINE,
        )
        assert fleet_main(["status", str(tmp_path)]) == 0
        assert fleet_main(["merge", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        import hashlib

        expected = hashlib.sha256(
            unsharded.fingerprint()
        ).hexdigest()
        assert expected in out

    def test_work_command_drains_and_reports(
        self, tmp_path, saved_manifest, capsys
    ):
        code = fleet_main(
            [
                "work",
                str(tmp_path),
                "--worker-id",
                "cli-worker",
                "--stale-after",
                "0.2",
                "--poll-interval",
                "0.02",
                "--deadline",
                str(DEADLINE),
            ]
        )
        assert code == 0
        assert "cli-worker" in capsys.readouterr().out
        assert all(
            s.state == "complete"
            for s in fleet_status(saved_manifest, str(tmp_path))
        )


def test_lease_files_do_not_disturb_merge_or_status(
    tmp_path, saved_manifest, unsharded
):
    """The leases/ subdirectory lives inside the checkpoint dir; the
    manifest/checkpoint machinery must ignore it entirely."""
    run_fleet_worker(
        saved_manifest, str(tmp_path), policy=FAST, deadline=DEADLINE
    )
    reloaded = ShardManifest.load(str(tmp_path))
    assert reloaded == saved_manifest
    merged = merge_shards(reloaded, str(tmp_path))
    assert merged.fingerprint() == unsharded.fingerprint()
    with open(
        os.path.join(str(tmp_path), "manifest.json"),
        "r",
        encoding="utf-8",
    ) as handle:
        json.load(handle)  # still plain valid JSON


class TestFleetCLIStructuredOutput:
    """``--json`` emits machine-readable records (exit codes and the
    human rendering are unchanged); ``--trace-dir`` writes a valid
    ``repro.obs`` trace of the worker's lease activity."""

    def _work(self, tmp_path, *extra):
        return fleet_main(
            [
                "work",
                str(tmp_path),
                "--worker-id",
                "cli-worker",
                "--stale-after",
                "0.2",
                "--poll-interval",
                "0.02",
                "--deadline",
                str(DEADLINE),
                *extra,
            ]
        )

    def test_work_json_record(
        self, tmp_path, saved_manifest, capsys
    ):
        assert self._work(tmp_path, "--json") == 0
        record = json.loads(
            capsys.readouterr().out.strip().splitlines()[-1]
        )
        assert record["event"] == "worker_done"
        assert record["worker_id"] == "cli-worker"
        assert sorted(record["completed"]) == list(
            range(saved_manifest.num_shards)
        )
        assert record["executed"] > 0

    def test_status_and_merge_json_records(
        self, tmp_path, saved_manifest, unsharded, capsys
    ):
        assert fleet_main(["status", str(tmp_path), "--json"]) == 3
        record = json.loads(capsys.readouterr().out)
        assert record["event"] == "fleet_status"
        assert not record["complete"]
        assert len(record["shards"]) == saved_manifest.num_shards

        self._work(tmp_path)
        capsys.readouterr()
        assert fleet_main(["status", str(tmp_path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["complete"]
        assert all(
            s["state"] == "complete" for s in record["shards"]
        )

        assert fleet_main(["merge", str(tmp_path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        import hashlib

        assert record["event"] == "merge_done"
        assert record["fingerprint_sha256"] == hashlib.sha256(
            unsharded.fingerprint()
        ).hexdigest()
        aggregate = unsharded.aggregate_metrics()
        assert record["aggregate"]["rounds"] == aggregate.rounds
        assert (
            record["aggregate"]["total_bits"] == aggregate.total_bits
        )
        assert record["cache"] is not None
        assert record["cache"]["hits"] >= 0

    def test_trace_dir_writes_a_valid_trace(
        self, tmp_path, saved_manifest, capsys
    ):
        from repro.obs import read_trace, validate_trace

        trace_dir = os.path.join(str(tmp_path), "trace")
        assert self._work(tmp_path, "--trace-dir", trace_dir) == 0
        records = read_trace(trace_dir)
        assert validate_trace(records) == []
        events = {
            r["name"] for r in records if r["kind"] == "event"
        }
        assert "fleet.claim" in events
        assert "fleet.release" in events
        spans = {
            r.get("name")
            for r in records
            if r.get("kind") == "span"
        }
        assert "shard.run" in spans
        # The worker recorded its peak RSS as one event.
        (peak,) = [
            r
            for r in records
            if r["kind"] == "event" and r["name"] == "process.peak_rss"
        ]
        assert peak["attrs"]["mb"] > 0
