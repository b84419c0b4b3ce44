"""Lease-based fleet scheduling over shard manifests.

:mod:`repro.exec.shards` fixes *what* each shard owns (deterministic
round-robin over the manifest).  This module schedules *who runs it*:
any number of worker processes — on any host sharing the checkpoint
directory — claim incomplete shards through atomic lease files,
heartbeat while they run, and reclaim the leases of workers that died
mid-shard, so a killed worker's shard is finished by a survivor and
:func:`~repro.exec.shards.merge_shards` still produces the exact
unsharded :class:`~repro.exec.sweep.SweepResult`.

The lease protocol (see ``docs/FLEET.md`` for the full walk-through)::

    <dir>/manifest.json             the compiled grid
    <dir>/shard_<i>.jsonl           per-cell checkpoints (append-only)
    <dir>/leases/shard_<i>.lease    who is running shard i right now

* **claim** — create the lease file with ``O_CREAT | O_EXCL`` (atomic
  on POSIX and NFSv3+); exactly one claimant wins.
* **heartbeat** — rewrite the lease (unique temp file + fsync +
  ``os.replace``) bumping a monotonic counter after every
  checkpointed cell.  Observers never compare wall clocks across
  hosts: a lease is *stale* when its ``(owner, token, counter)`` has
  not changed for ``stale_after`` seconds of the *observer's* local
  monotonic time.
* **reclaim** — ``os.rename`` the stale lease to a unique tombstone
  (exactly one reclaimer wins the rename), then re-claim with the
  takeover count bumped.  ``max_takeovers`` bounds retries on a
  poison shard.

Exactly-once execution is *not* promised under arbitrary pauses (a
worker suspended longer than ``stale_after`` may race its reclaimer
for a few cells); byte-identical merges are promised anyway, because
cell execution is deterministic and duplicate checkpoint records are
repaired keep-first by :func:`~repro.exec.shards._read_checkpoint`.

CLI (any worker, any host)::

    python -m repro.exec.fleet work   <dir> [--stale-after 30 ...]
    python -m repro.exec.fleet status <dir>
    python -m repro.exec.fleet merge  <dir>
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import trace as obs_trace
from repro.exec.shards import (
    ShardManifest,
    ShardRun,
    compile_manifest,
    merge_shards,
    one_shard_status,
    prebuild_tag,
    run_shard,
    shard_status,
)
from repro.exec.sweep import SweepCell, SweepResult, prebuild_instances

LEASE_DIR = "leases"
LEASE_VERSION = 1


class LeaseLostError(RuntimeError):
    """The lease this worker was heartbeating has been reclaimed."""


class FleetStalledError(RuntimeError):
    """Every remaining shard's takeover budget is exhausted."""


class FleetTimeoutError(RuntimeError):
    """A worker's ``deadline`` elapsed before the manifest completed."""


@dataclass(frozen=True)
class ReclaimPolicy:
    """Tunables of the claim / heartbeat / reclaim loop.

    ``stale_after`` is the liveness horizon: a lease whose heartbeat
    counter has not advanced for this many seconds (of the observer's
    monotonic clock) is reclaimable.  It must comfortably exceed the
    worst per-cell wall time, since workers heartbeat per cell.
    ``poll_interval`` / ``backoff`` / ``max_poll_interval`` shape the
    idle loop of a worker that currently has nothing to claim, and
    ``max_takeovers`` bounds how often a repeatedly-dying shard is
    retried before the fleet declares it stuck.
    """

    stale_after: float = 30.0
    poll_interval: float = 0.5
    backoff: float = 2.0
    max_poll_interval: float = 8.0
    max_takeovers: int = 5


def default_worker_id() -> str:
    return (
        f"{socket.gethostname()}:{os.getpid()}"
        f":{threading.get_native_id()}"
    )


class Lease:
    """A held lease on one shard (returned by a successful claim)."""

    __slots__ = ("store", "shard", "token", "counter", "takeovers")

    def __init__(
        self,
        store: "LeaseStore",
        shard: int,
        token: str,
        counter: int,
        takeovers: int,
    ):
        self.store = store
        self.shard = shard
        self.token = token
        self.counter = counter
        self.takeovers = takeovers

    def heartbeat(self) -> None:
        """Bump the monotonic counter (raises :class:`LeaseLostError`
        if the lease was reclaimed out from under us)."""
        self.store._heartbeat(self)

    def release(self) -> None:
        """Drop the lease (no-op if it is no longer ours)."""
        self.store._release(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Lease shard={self.shard} counter={self.counter} "
            f"takeovers={self.takeovers}>"
        )


class LeaseStore:
    """Atomic lease files for one manifest's checkpoint directory.

    One store per worker: it carries the worker identity, and the
    per-shard ``(owner, token, counter)`` observations its staleness
    judgements are made from.  Multiple stores (processes, hosts) over
    the same directory coordinate purely through the filesystem.
    """

    def __init__(
        self,
        checkpoint_dir: str,
        grid_digest: str,
        worker_id: Optional[str] = None,
        policy: Optional[ReclaimPolicy] = None,
        clock=time.monotonic,
    ):
        self.checkpoint_dir = checkpoint_dir
        self.grid_digest = grid_digest
        self.worker_id = worker_id or default_worker_id()
        self.policy = policy or ReclaimPolicy()
        self._clock = clock
        #: shard -> ((owner, token, counter), first seen at) — the
        #: local-monotonic observation history staleness is judged on.
        self._observed: Dict[int, Tuple[Tuple, float]] = {}
        self._reclaim_seq = 0
        self.lease_dir = os.path.join(checkpoint_dir, LEASE_DIR)
        os.makedirs(self.lease_dir, exist_ok=True)

    def lease_path(self, shard: int) -> str:
        return os.path.join(self.lease_dir, f"shard_{shard}.lease")

    # -- reading and staleness -------------------------------------------

    def read(self, shard: int) -> Optional[Dict]:
        """The shard's current lease record, ``None`` if unleased, or
        ``{"corrupt": True}`` for an unparseable file (a claimer died
        mid-create; it never heartbeats, so it goes stale like any
        other dead lease)."""
        try:
            with open(
                self.lease_path(shard), "r", encoding="utf-8"
            ) as handle:
                raw = handle.read()
        except FileNotFoundError:
            self._observed.pop(shard, None)
            return None
        try:
            data = json.loads(raw)
            if not isinstance(data, dict):
                raise ValueError("lease is not an object")
        except ValueError:
            return {"corrupt": True}
        return data

    def is_stale(self, shard: int, data: Dict) -> bool:
        """Whether this lease has gone ``stale_after`` seconds (local
        monotonic) without its heartbeat key changing.  The first
        sighting of a key only *starts* the clock, so a fresh store
        never reclaims on its first pass."""
        key = (
            data.get("owner"),
            data.get("token"),
            data.get("counter"),
        )
        now = self._clock()
        seen = self._observed.get(shard)
        if seen is None or seen[0] != key:
            self._observed[shard] = (key, now)
            return False
        return now - seen[1] >= self.policy.stale_after

    # -- claim / heartbeat / release / reclaim ---------------------------

    def _payload(
        self, shard: int, token: str, counter: int, takeovers: int
    ) -> bytes:
        record = {
            "version": LEASE_VERSION,
            "shard": shard,
            "grid": self.grid_digest,
            "owner": self.worker_id,
            "token": token,
            "counter": counter,
            "takeovers": takeovers,
        }
        return (
            json.dumps(record, separators=(",", ":")) + "\n"
        ).encode("utf-8")

    def try_claim(
        self, shard: int, takeovers: int = 0
    ) -> Optional[Lease]:
        """Claim an unleased shard via ``O_CREAT | O_EXCL`` — exactly
        one concurrent claimant wins.  Returns ``None`` on loss."""
        path = self.lease_path(shard)
        token = os.urandom(8).hex()
        try:
            fd = os.open(
                path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            return None
        try:
            os.write(
                fd, self._payload(shard, token, 0, takeovers)
            )
            os.fsync(fd)
        finally:
            os.close(fd)
        obs_trace.event(
            "fleet.claim",
            shard=shard,
            worker=self.worker_id,
            takeovers=takeovers,
        )
        return Lease(self, shard, token, 0, takeovers)

    def try_reclaim(self, shard: int) -> Optional[Lease]:
        """Take over a stale lease: atomically rename it to a unique
        tombstone (one reclaimer wins), then re-claim with the
        takeover count bumped.  Returns ``None`` if the lease is
        live, not yet observed long enough, over its takeover budget,
        or lost to a racing reclaimer.

        Between our tombstone rename and our re-claim, a peer scanning
        the shard sees it unleased and may win the fresh ``O_EXCL``
        claim — the shard still gets exactly one new owner, but the
        takeover is then recorded as a plain claim (count reset), so
        ``max_takeovers`` is a best-effort bound under racing
        claimants, not an exact one."""
        data = self.read(shard)
        if data is None or not self.is_stale(shard, data):
            return None
        takeovers = data.get("takeovers", 0)
        if not isinstance(takeovers, int):
            takeovers = 0
        if takeovers >= self.policy.max_takeovers:
            return None
        path = self.lease_path(shard)
        self._reclaim_seq += 1
        tombstone = (
            f"{path}.dead.{os.getpid()}"
            f".{threading.get_native_id()}.{self._reclaim_seq}"
        )
        try:
            os.rename(path, tombstone)
        except FileNotFoundError:
            return None  # lost the race, or the owner released
        try:
            os.unlink(tombstone)
        except FileNotFoundError:  # pragma: no cover - best effort
            pass
        self._observed.pop(shard, None)
        lease = self.try_claim(shard, takeovers=takeovers + 1)
        if lease is not None:
            obs_trace.event(
                "fleet.reclaim",
                shard=shard,
                worker=self.worker_id,
                previous_owner=data.get("owner"),
                takeovers=takeovers + 1,
            )
        return lease

    def _write_atomic(self, path: str, blob: bytes) -> None:
        tmp = (
            f"{path}.tmp.{os.getpid()}.{threading.get_native_id()}"
        )
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _heartbeat(self, lease: Lease) -> None:
        data = self.read(lease.shard)
        if data is None or data.get("token") != lease.token:
            obs_trace.event(
                "fleet.lease_lost",
                shard=lease.shard,
                worker=self.worker_id,
                new_owner=(data or {}).get("owner"),
            )
            raise LeaseLostError(
                f"lease on shard {lease.shard} was reclaimed"
                + (
                    f" by {data.get('owner')!r}"
                    if data is not None
                    else ""
                )
            )
        lease.counter += 1
        self._write_atomic(
            self.lease_path(lease.shard),
            self._payload(
                lease.shard,
                lease.token,
                lease.counter,
                lease.takeovers,
            ),
        )
        obs_trace.event(
            "fleet.heartbeat",
            shard=lease.shard,
            worker=self.worker_id,
            counter=lease.counter,
        )

    def _release(self, lease: Lease) -> None:
        data = self.read(lease.shard)
        if data is not None and data.get("token") == lease.token:
            try:
                os.unlink(self.lease_path(lease.shard))
            except FileNotFoundError:  # pragma: no cover
                pass
            obs_trace.event(
                "fleet.release",
                shard=lease.shard,
                worker=self.worker_id,
            )
        self._observed.pop(lease.shard, None)


# ----------------------------------------------------------------------
# the worker driver


@dataclass
class FleetWorkerReport:
    """What one :func:`run_fleet_worker` invocation did."""

    worker_id: str
    claimed: List[int] = field(default_factory=list)
    reclaimed: List[int] = field(default_factory=list)
    completed: List[int] = field(default_factory=list)
    #: shards abandoned mid-run because the lease was reclaimed.
    lost: List[int] = field(default_factory=list)
    executed: int = 0
    resumed: int = 0

    def summary(self) -> str:
        return (
            f"worker {self.worker_id}: claimed {self.claimed}, "
            f"reclaimed {self.reclaimed}, completed {self.completed}"
            f", lost {self.lost}, executed {self.executed} cells "
            f"(+{self.resumed} resumed)"
        )


def _prebuild_manifest(manifest: ShardManifest) -> None:
    """Prebuild every instance the manifest references, once per
    process — claimed shard #2, #3, ... reuse it via the cache's
    prewarm tag instead of re-scanning."""
    from repro.workloads import instance_cache

    cache = instance_cache()
    tag = prebuild_tag(manifest)
    if cache.was_prewarmed(tag):
        return
    prebuild_instances(list(manifest.cells))
    cache.mark_prewarmed(tag)


def _run_leased_shard(
    manifest: ShardManifest,
    checkpoint_dir: str,
    lease: Lease,
    throttle: float = 0.0,
) -> ShardRun:
    def beat(index, result):
        if throttle:
            time.sleep(throttle)
        lease.heartbeat()

    return run_shard(
        manifest, lease.shard, checkpoint_dir, on_cell=beat
    )


def run_fleet_worker(
    manifest: ShardManifest,
    checkpoint_dir: str,
    worker_id: Optional[str] = None,
    policy: Optional[ReclaimPolicy] = None,
    max_shards: Optional[int] = None,
    wait_for_completion: bool = True,
    deadline: Optional[float] = None,
    throttle: float = 0.0,
) -> FleetWorkerReport:
    """One worker's scheduler loop: claim, run, heartbeat, reclaim.

    The worker repeatedly scans the manifest's shards; incomplete
    unleased shards are claimed (``O_EXCL``), incomplete shards under
    a stale lease are reclaimed, and each held shard runs through the
    lease-aware :func:`~repro.exec.shards.run_shard` (heartbeat per
    checkpointed cell; :class:`LeaseLostError` abandons the shard to
    its new owner).  With ``wait_for_completion`` (default) the
    worker lingers as a hot standby — sleeping with bounded backoff —
    until *every* shard is complete, so it can reclaim work from
    late-dying peers; otherwise it returns as soon as nothing is
    claimable.

    ``max_shards`` bounds how many shards this invocation will hold
    (testing / incremental schedulers), ``deadline`` (seconds) raises
    :class:`FleetTimeoutError` rather than waiting forever, and
    ``throttle`` sleeps that long per cell (the kill-window hook the
    fleet tests and the CI smoke job use).
    """
    policy = policy or ReclaimPolicy()
    os.makedirs(checkpoint_dir, exist_ok=True)
    store = LeaseStore(
        checkpoint_dir,
        manifest.grid_digest,
        worker_id=worker_id,
        policy=policy,
    )
    report = FleetWorkerReport(worker_id=store.worker_id)
    _prebuild_manifest(manifest)
    start = time.monotonic()
    idle = policy.poll_interval
    while True:
        if (
            deadline is not None
            and time.monotonic() - start > deadline
        ):
            raise FleetTimeoutError(
                f"worker {store.worker_id} exceeded its "
                f"{deadline}s deadline; {report.summary()}"
            )
        statuses = shard_status(manifest, checkpoint_dir)
        incomplete = [s for s in statuses if not s.complete]
        if not incomplete:
            return report
        held_total = len(report.claimed) + len(report.reclaimed)
        if max_shards is not None and held_total >= max_shards:
            return report
        progressed = False
        blocked_live = 0
        exhausted: List[int] = []
        for status in incomplete:
            lease = None
            was_reclaim = False
            data = store.read(status.shard)
            if data is None:
                lease = store.try_claim(status.shard)
            elif store.is_stale(status.shard, data):
                takeovers = data.get("takeovers", 0)
                if (
                    isinstance(takeovers, int)
                    and takeovers >= policy.max_takeovers
                ):
                    exhausted.append(status.shard)
                    continue
                lease = store.try_reclaim(status.shard)
                was_reclaim = lease is not None
            else:
                blocked_live += 1
            if lease is None:
                continue
            # A peer may have finished this shard (and released its
            # lease) after our status snapshot: the claim then lands
            # on complete work.  O_EXCL only succeeds after the
            # release, and the release only happens after the final
            # checkpoint write, so this recheck is authoritative.
            if one_shard_status(
                manifest, checkpoint_dir, status.shard
            ).complete:
                lease.release()
                progressed = True
                continue
            if was_reclaim:
                report.reclaimed.append(status.shard)
            else:
                report.claimed.append(status.shard)
            progressed = True
            try:
                run = _run_leased_shard(
                    manifest, checkpoint_dir, lease, throttle
                )
            except LeaseLostError:
                report.lost.append(lease.shard)
                continue
            report.executed += run.executed
            report.resumed += run.resumed
            if run.complete:
                report.completed.append(lease.shard)
            lease.release()
            held_total = len(report.claimed) + len(report.reclaimed)
            if max_shards is not None and held_total >= max_shards:
                break
        if progressed:
            idle = policy.poll_interval
            continue
        if len(exhausted) == len(incomplete) and not blocked_live:
            raise FleetStalledError(
                f"shards {exhausted} exceeded max_takeovers="
                f"{policy.max_takeovers} and no live worker holds "
                "them; inspect their checkpoints before retrying"
            )
        if not wait_for_completion:
            return report
        time.sleep(idle)
        idle = min(idle * policy.backoff, policy.max_poll_interval)


def run_fleet(
    cells: Sequence[SweepCell],
    num_shards: int,
    checkpoint_dir: str,
    num_workers: int = 2,
    inner: str = "reference",
    policy: Optional[ReclaimPolicy] = None,
    deadline: Optional[float] = None,
) -> SweepResult:
    """Convenience: compile + save the manifest, race ``num_workers``
    in-process worker threads over it, merge.

    Multi-host fleets instead call :func:`~repro.exec.shards.
    compile_manifest` + ``manifest.save`` once, start
    ``python -m repro.exec.fleet work <dir>`` anywhere, and
    ``merge`` when :func:`fleet_status` shows every shard complete.
    """
    manifest = compile_manifest(cells, num_shards, inner=inner)
    os.makedirs(checkpoint_dir, exist_ok=True)
    manifest.save(checkpoint_dir)
    if num_workers <= 1:
        run_fleet_worker(
            manifest,
            checkpoint_dir,
            policy=policy,
            deadline=deadline,
        )
    else:
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(
            max_workers=num_workers
        ) as pool:
            futures = [
                pool.submit(
                    run_fleet_worker,
                    manifest,
                    checkpoint_dir,
                    worker_id=f"{default_worker_id()}:w{k}",
                    policy=policy,
                    deadline=deadline,
                )
                for k in range(num_workers)
            ]
            for future in futures:
                future.result()
    return merge_shards(manifest, checkpoint_dir)


# ----------------------------------------------------------------------
# observability


@dataclass(frozen=True)
class ShardLeaseStatus:
    """One shard's checkpoint + lease state, for dashboards/CLI."""

    shard: int
    done: int
    total: int
    damaged: bool
    state: str  # "complete" | "leased" | "pending"
    owner: Optional[str] = None
    counter: Optional[int] = None
    takeovers: int = 0


def fleet_status(
    manifest: ShardManifest, checkpoint_dir: str
) -> List[ShardLeaseStatus]:
    """Checkpoint progress joined with the current lease per shard.

    Staleness is deliberately *not* judged here — it needs repeated
    observation over ``stale_after`` seconds; compare ``counter``
    across two invocations instead.
    """
    store = LeaseStore(
        checkpoint_dir, manifest.grid_digest, worker_id="status"
    )
    rows = []
    for status in shard_status(manifest, checkpoint_dir):
        data = store.read(status.shard)
        if data is not None:
            state = "leased"
        elif status.complete:
            state = "complete"
        else:
            state = "pending"
        takeovers = (data or {}).get("takeovers", 0)
        rows.append(
            ShardLeaseStatus(
                shard=status.shard,
                done=status.done,
                total=status.total,
                damaged=status.damaged,
                state=state,
                owner=(data or {}).get("owner"),
                counter=(data or {}).get("counter"),
                takeovers=takeovers if isinstance(takeovers, int) else 0,
            )
        )
    return rows


# ----------------------------------------------------------------------
# CLI


def _report_record(report: FleetWorkerReport) -> Dict:
    """The worker report as a structured (JSON-ready) record."""
    return {
        "event": "worker_done",
        "worker_id": report.worker_id,
        "claimed": report.claimed,
        "reclaimed": report.reclaimed,
        "completed": report.completed,
        "lost": report.lost,
        "executed": report.executed,
        "resumed": report.resumed,
    }


def _status_record(rows: List[ShardLeaseStatus]) -> Dict:
    """Per-shard status as a structured (JSON-ready) record."""
    return {
        "event": "fleet_status",
        "complete": all(r.state == "complete" for r in rows),
        "shards": [
            {
                "shard": row.shard,
                "done": row.done,
                "total": row.total,
                "damaged": row.damaged,
                "state": row.state,
                "owner": row.owner,
                "counter": row.counter,
                "takeovers": row.takeovers,
            }
            for row in rows
        ],
    }


def _emit(record: Dict, as_json: bool, human: str) -> None:
    """One output record: the structured form under ``--json``, the
    human rendering otherwise."""
    if as_json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(human)


def _peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (``ru_maxrss``:
    KiB on Linux, bytes on macOS)."""
    import resource
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse
    import hashlib

    defaults = ReclaimPolicy()
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.fleet",
        description=(
            "Lease-based fleet worker / status / merge over a shard "
            "manifest directory (see docs/FLEET.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    work = sub.add_parser(
        "work", help="claim, run, and reclaim shards until done"
    )
    work.add_argument("checkpoint_dir")
    work.add_argument("--worker-id", default=None)
    work.add_argument(
        "--stale-after", type=float, default=defaults.stale_after
    )
    work.add_argument(
        "--poll-interval", type=float, default=defaults.poll_interval
    )
    work.add_argument(
        "--max-takeovers", type=int, default=defaults.max_takeovers
    )
    work.add_argument("--max-shards", type=int, default=None)
    work.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="give up (exit 4) after this many seconds",
    )
    work.add_argument(
        "--throttle",
        type=float,
        default=0.0,
        help="sleep per cell (kill-window hook for tests/CI)",
    )
    work.add_argument(
        "--no-wait",
        action="store_true",
        help="return when nothing is claimable instead of lingering",
    )
    work.add_argument(
        "--trace-dir",
        default=None,
        help=(
            "write a repro.obs trace (per-process file in this "
            "directory; render with python -m repro.obs)"
        ),
    )

    status_p = sub.add_parser(
        "status", help="per-shard checkpoint + lease state"
    )
    status_p.add_argument("checkpoint_dir")

    merge_p = sub.add_parser(
        "merge",
        help="merge completed shards; prints the result fingerprint",
    )
    merge_p.add_argument("checkpoint_dir")

    for cmd in (work, status_p, merge_p):
        cmd.add_argument(
            "--json",
            action="store_true",
            help="emit structured JSON records instead of prose",
        )

    args = parser.parse_args(argv)
    manifest = ShardManifest.load(args.checkpoint_dir)

    if args.command == "work":
        policy = ReclaimPolicy(
            stale_after=args.stale_after,
            poll_interval=args.poll_interval,
            max_takeovers=args.max_takeovers,
        )
        rec = None
        if args.trace_dir:
            rec = obs_trace.enable(
                args.trace_dir,
                worker=args.worker_id or default_worker_id(),
            )
        try:
            report = run_fleet_worker(
                manifest,
                args.checkpoint_dir,
                worker_id=args.worker_id,
                policy=policy,
                max_shards=args.max_shards,
                wait_for_completion=not args.no_wait,
                deadline=args.deadline,
                throttle=args.throttle,
            )
        except FleetTimeoutError as exc:
            _emit(
                {"event": "worker_timeout", "error": str(exc)},
                args.json,
                str(exc),
            )
            return 4
        finally:
            if rec is not None:
                obs_trace.event("process.peak_rss", mb=_peak_rss_mb())
                obs_trace.disable()
        _emit(_report_record(report), args.json, report.summary())
        return 0

    if args.command == "status":
        rows = fleet_status(manifest, args.checkpoint_dir)
        record = _status_record(rows)
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            for row in rows:
                lease = (
                    f" lease={row.owner} counter={row.counter} "
                    f"takeovers={row.takeovers}"
                    if row.state == "leased"
                    else ""
                )
                damaged = " DAMAGED" if row.damaged else ""
                print(
                    f"shard {row.shard}: {row.done}/{row.total} "
                    f"{row.state}{damaged}{lease}"
                )
        return 0 if record["complete"] else 3

    result = merge_shards(manifest, args.checkpoint_dir)
    digest = hashlib.sha256(result.fingerprint()).hexdigest()
    aggregate = result.aggregate_metrics()
    record = {
        "event": "merge_done",
        "fingerprint_sha256": digest,
        "aggregate": {
            "rounds": aggregate.rounds,
            "total_messages": aggregate.total_messages,
            "total_bits": aggregate.total_bits,
            "max_message_bits": aggregate.max_message_bits,
            "violations": aggregate.violations,
        },
        "cache": (
            result.cache_stats.snapshot()
            if result.cache_stats is not None
            else None
        ),
    }
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"fingerprint sha256: {digest}")
        print(f"aggregate: {aggregate.summary()}")
        if result.cache_stats is not None:
            stats = result.cache_stats
            print(
                f"cache: hits={stats.hits} misses={stats.misses} "
                f"csr_builds={stats.csr_builds} "
                f"square_builds={stats.square_builds}"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
