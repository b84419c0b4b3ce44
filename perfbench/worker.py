"""One workload of the layer-ledger benchmark, in a fresh process.

``run.py`` starts this script once per workload so that the peak RSS
it reads back belongs to that workload alone.  The worker

1. for ``--seconds``, alternates building the instances a few times,
   each in a fresh instance cache (``setup_s``: ``InstanceCache.get``
   + ``Instance.csr`` + ``Instance.square_csr``), with solving the
   workload as a single-shard ``vectorized`` sweep
   (``compile_manifest`` -> ``run_shard`` -> ``merge_shards`` ->
   ``check_d2_coloring``, ``solve_s``), tracing off;
2. with ``--trace 1``, rebuilds and solves once more under
   ``repro.obs.enable`` and rolls the trace up into the per-layer
   ledger, then runs every cell once directly through
   ``AlgorithmSpec.run_on`` (untraced) for the paper-phase rounds the
   sweep records drop.

Each set-up and solve is timed in wall seconds and in this process's
CPU seconds.  The reported ``setup_s`` and ``solve_s`` are the CPU
seconds scaled to the speed of a quiet core: ``probe.py`` runs beside
the worker on the same CPU and times a fixed chunk of interpreter work
every 10 ms, and each section's CPU seconds are divided by how much
slower than ``REF_CHUNK_S`` those chunks ran during it.  On a shared
host the speed of a core swings by ±20% over tens of seconds (other
tenants on the sibling hyperthread, memory bandwidth, frequency); CPU
seconds follow it as much as wall seconds do, and the probe sees the
same spells.  On ten seeds per workload, taken while the host swung,
the scaling cut the quartile spread of the ``solve_s`` medians from
0.09-0.30 (CPU or wall seconds) to 0.03-0.06.

It prints one JSON object as its last stdout line.  Correctness
problems (checker, palette, fingerprint, workload validity) are listed
under ``problems``; the worker itself always exits 0 once it got that
far, and ``run.py`` decides.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import registry
from repro.exec import compile_manifest, merge_shards, run_shard
from repro.exec.sweep import SweepCell
from repro.obs import report as obs_report
from repro.obs import trace as obs_trace
from repro.verify.checker import check_d2_coloring
from repro.workloads import instance_cache


class Workload(NamedTuple):
    algorithm: str
    #: The registered instance workload every cell runs on.
    instance: str
    #: A run with seed ``s`` solves the cells seeded ``s*k .. s*k+k-1``.
    cells: int
    #: Set-ups before each solve.
    setup_reps: int


#: tight-ladder runs on the Hoffman-Singleton graph (n = 50, Δ = 7,
#: diameter 2): G² is the complete graph on Δ²+1 nodes, so no seed
#: lets the trials window finish, and similarity, the Reduce ladder,
#: LearnPalette and finish run in every cell (469-481 rounds each).
#: The PG(2,11) incidence graphs, at d2-degree 132 of 145, stop
#: anywhere from inside the trials window to past the ladder, which
#: spread a run's rounds and time by 20-40% from seed to seed.
WORKLOADS: Dict[str, Workload] = {
    "huge-trial": Workload("trial", "gnp-huge-1048576", 1, 3),
    "det-fallback": Workload("improved-d2color", "rr4-huge-16384", 1, 5),
    "tight-ladder": Workload("improved-d2color", "hoffman-singleton", 64, 5),
}

#: Every cause ``VectorizedBackend.execute`` can attach to an
#: ``exec.fallback`` event.
FALLBACK_CAUSES = (
    "kernel-declined",
    "no-kernel",
    "mixed-programs",
    "partial-generators",
    "no-numpy",
    "record-rounds",
    "already-started",
)

#: Paper-phase names in ``ColoringResult.phases`` -> ledger metric.
PHASE_METRICS = {
    "trials": "core.trials_rounds",
    "similarity": "core.similarity_rounds",
    "reduce-ladder": "core.ladder_rounds",
    "learn-palette": "core.learn_rounds",
    "finish": "core.finish_rounds",
    "linial": "det.linial_rounds",
    "locally-iterative": "det.locally_iterative_rounds",
    "color-reduction": "det.color_reduction_rounds",
}


def cells_for(name: str, seed: int) -> List[SweepCell]:
    w = WORKLOADS[name]
    return [
        SweepCell.from_workload(w.algorithm, w.instance, seed * w.cells + i)
        for i in range(w.cells)
    ]


# ----------------------------------------------------------------------
# set-up and solve


class Clock(NamedTuple):
    """Process CPU seconds, wall seconds and monotonic start of one
    timed section."""

    cpu: float
    wall: float
    start: float

    @staticmethod
    def now() -> "Clock":
        return Clock(time.process_time(), 0.0, time.monotonic())

    def elapsed(self) -> "Clock":
        return Clock(
            time.process_time() - self.cpu,
            time.monotonic() - self.start,
            self.start,
        )


#: Seconds between two chunks of the core-speed probe (``probe.py``).
PROBE_EVERY_S = 0.01
#: Probe samples this far outside a section still count for it, so a
#: section shorter than the probe period is never without a sample.
PROBE_PAD_S = 0.05
#: CPU seconds of one probe chunk on a quiet core of the 2-vCPU Xeon
#: host the benchmark was steadied on, so that there a scaled time
#: reads about as the CPU seconds.  It only sets the scale.
REF_CHUNK_S = 0.0005


@contextlib.contextmanager
def speed_probe():
    """Pin this process to one CPU and run ``probe.py`` beside it.

    Yields a list that holds the probe's ``(monotonic end, chunk CPU
    seconds)`` samples once the block has ended; the probe is stopped
    and waited for on every way out.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    proc = subprocess.Popen(
        [
            sys.executable,
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py"),
            "--cpu", str(cpu),
            "--every", str(PROBE_EVERY_S),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    samples: List[Tuple[float, float]] = []
    try:
        if proc.stdout.readline().strip() != "ready":
            raise RuntimeError("speed probe did not start")
        yield samples
    finally:
        try:
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    for line in out.splitlines():
        t, c = line.split()
        samples.append((float(t), float(c)))


def slowdown(samples: List[Tuple[float, float]], c: Clock) -> float:
    """How much slower than ``REF_CHUNK_S`` the probe ran during ``c``."""
    lo, hi = c.start - PROBE_PAD_S, c.start + c.wall + PROBE_PAD_S
    return statistics.fmean(
        cpu for t, cpu in samples if lo <= t <= hi
    ) / REF_CHUNK_S


def setup(cells: List[SweepCell]) -> Clock:
    """Build every instance in a fresh cache; the seconds it took."""
    cache = instance_cache()
    cache.clear()
    gc.collect()
    t0 = Clock.now()
    for cell in cells:
        with obs_trace.span("bench.setup.build"):
            instance = cache.get(cell.workload, cell.seed)
        with obs_trace.span("bench.setup.csr"):
            instance.csr()
        with obs_trace.span("bench.setup.square"):
            instance.square_csr()
    return t0.elapsed()


def check_cells(cells, result) -> Tuple[List[str], int]:
    """Checker and palette problems of a merged sweep result, and the
    number of cells that had any."""
    problems, failed = [], 0
    cache = instance_cache()
    for cell, res in zip(cells, result.cells):
        label = f"{cell.algorithm} x {cell.scenario} seed {cell.seed}"
        before = len(problems)
        if not res.ok:
            failed += 1
            problems.append(f"{label}: raised {res.error}")
            continue
        instance = cache.get(cell.workload, cell.seed)
        palette = instance.delta ** 2 + 1
        with obs_trace.span("bench.check"):
            report = check_d2_coloring(
                instance.graphlike(),
                dict(res.coloring),
                palette_size=palette,
                adjacency=instance.csr(),
            )
        if not report.valid:
            problems.append(f"{label}: checker: {report.explain()}")
        if res.colors_used > palette:
            problems.append(
                f"{label}: {res.colors_used} colors > Δ²+1 = {palette}"
            )
        failed += len(problems) > before
    return problems, failed


def solve(cells: List[SweepCell], ckpt: str):
    """One sweep as a user runs it, plus its check.

    Returns ``(Clock, merged result, problems, failed cells,
    checkpoint bytes)``.
    """
    shutil.rmtree(ckpt, ignore_errors=True)
    gc.collect()
    with obs_trace.span("bench.solve"):
        t0 = Clock.now()
        with obs_trace.span("bench.compile_manifest"):
            manifest = compile_manifest(cells, 1, inner="vectorized")
            os.makedirs(ckpt)
            manifest.save(ckpt)
        with obs_trace.span("bench.run_shard"):
            run_shard(manifest, 0, ckpt)
        with obs_trace.span("bench.merge_shards"):
            merged = merge_shards(manifest, ckpt)
        problems, failed = check_cells(cells, merged)
        took = t0.elapsed()
    ckpt_bytes = sum(
        os.path.getsize(os.path.join(ckpt, f)) for f in os.listdir(ckpt)
    )
    shutil.rmtree(ckpt, ignore_errors=True)
    return took, merged, problems, failed, ckpt_bytes


def fingerprint(result) -> str:
    return hashlib.sha256(result.fingerprint()).hexdigest()


# ----------------------------------------------------------------------
# the trace ledger


def span_intervals(records) -> List[Tuple[str, float, float]]:
    """``(name, start, end)`` of every completed span.

    E records carry their end time; X records their start time.
    """
    out = []
    for rec in obs_trace.iter_spans(records):
        dur = float(rec["dur"])
        start = rec["t"] - dur if rec["phase"] == "E" else rec["t"]
        out.append((rec["name"], start, start + dur))
    return out


def self_times(records) -> Dict[str, float]:
    """Summed self time per span name: a span's duration minus the
    part covered by the spans directly inside it.

    Nesting is taken from time containment, not from the ``parent``
    field, because complete ("X") spans such as ``exec.kernel`` and
    ``kernel.try_phases`` are written at exit and never become the
    parent of the spans they enclose.
    """
    spans = sorted(
        span_intervals(records), key=lambda s: (s[1], -(s[2] - s[1]))
    )
    totals: Dict[str, float] = {}
    stack: List[List] = []  # [name, end, self]

    def close(entry):
        totals[entry[0]] = totals.get(entry[0], 0.0) + entry[2]

    for name, start, end in spans:
        while stack and stack[-1][1] <= start:
            close(stack.pop())
        if stack:
            stack[-1][2] -= end - start
        stack.append([name, end, end - start])
    while stack:
        close(stack.pop())
    return totals


def ledger(records, cells, merged, run_on_results, solve_wall,
           overhead_ratio, ckpt_bytes) -> Dict[str, float]:
    """The per-layer metrics of one traced set-up + solve."""
    selfs = self_times(records)
    rollup = obs_report.span_rollup(records)
    events = [r for r in records if r.get("kind") == "event"]

    def wall(name):
        return rollup.get(name, {}).get("wall", 0.0)

    m: Dict[str, float] = {}
    m["workloads.build_s"] = wall("bench.setup.build")
    m["graphs.csr_s"] = wall("bench.setup.csr")
    m["graphs.square_s"] = wall("bench.setup.square")
    cache = instance_cache()
    m["graphs.g2_nnz"] = sum(
        int(cache.get(c.workload, c.seed).csr().g2_indices.size)
        for c in cells
    )
    stats = merged.cache_stats
    m["workloads.sweep_builds"] = stats.builds if stats is not None else 0

    m["congest.plan_s"] = selfs.get("plan.build", 0.0)
    m["congest.rng_s"] = selfs.get("plan.bulk_rng", 0.0)
    agg = merged.aggregate_metrics()
    m["congest.messages"] = agg.total_messages
    m["congest.bits"] = agg.total_bits

    kernel = selfs.get("exec.kernel", 0.0) + selfs.get(
        "kernel.try_phases", 0.0
    )
    loop = selfs.get("exec.run", 0.0)
    m["exec.kernel_s"] = kernel
    m["exec.try_phases_s"] = selfs.get("kernel.try_phases", 0.0)
    m["exec.loop_s"] = loop
    m["exec.kernel_share"] = kernel / (kernel + loop) if kernel + loop else 0.0
    causes = [
        (e.get("attrs") or {}).get("cause")
        for e in events
        if e.get("name") == "exec.fallback"
    ]
    m["exec.fallbacks"] = len(causes)
    for cause in FALLBACK_CAUSES:
        m[f"exec.fallbacks.{cause}"] = causes.count(cause)
    node_rounds = sum(
        cache.get(c.workload, c.seed).n * r.rounds
        for c, r in zip(cells, merged.cells)
    )
    m["exec.node_rounds_per_s"] = (
        node_rounds / (kernel + loop) if kernel + loop else 0.0
    )

    m["core.step0_fallback"] = sum(
        1 for r in run_on_results
        if r.params.get("deterministic_fallback")
    )
    for metric in PHASE_METRICS.values():
        m[metric] = 0
    for r in run_on_results:
        for phase in r.phases:
            metric = PHASE_METRICS.get(phase.name)
            if metric is not None:
                m[metric] += phase.rounds

    m["verify.check_s"] = wall("bench.check")
    m["shards.run_self_s"] = wall("bench.run_shard") - wall("sweep.cell")
    m["shards.merge_s"] = wall("bench.merge_shards")
    m["shards.checkpoint_bytes"] = ckpt_bytes

    m["obs.overhead_ratio"] = overhead_ratio
    accounted = sum(
        m[k]
        for k in (
            "congest.plan_s",
            "congest.rng_s",
            "exec.kernel_s",
            "exec.loop_s",
            "verify.check_s",
            "shards.run_self_s",
            "shards.merge_s",
        )
    )
    m["obs.unaccounted_s"] = solve_wall - accounted
    return m


def validity_problems(name, cells, layer) -> List[str]:
    """Guards that the workload still loads the layer it exists for."""
    problems = []
    if name == "det-fallback" and layer["core.step0_fallback"] != len(cells):
        problems.append(
            "det-fallback: Step 0 taken by "
            f"{layer['core.step0_fallback']} of {len(cells)} cells"
        )
    if name == "tight-ladder" and layer["core.ladder_rounds"] <= 0:
        problems.append("tight-ladder: no reduce-ladder rounds ran")
    if name == "huge-trial" and layer["exec.fallbacks"]:
        problems.append(
            f"huge-trial: {layer['exec.fallbacks']} exec.fallback events"
        )
    return problems


def graph_problems(name, cells) -> List[str]:
    if name != "huge-trial":
        return []
    cache = instance_cache()
    return [
        f"huge-trial: {c.scenario} materialized an nx graph"
        for c in cells
        if cache.get(c.workload, c.seed)._graph is not None
    ]


# ----------------------------------------------------------------------


def run(args) -> Dict:
    cells = cells_for(args.workload, args.seed)
    ckpt = os.path.join(args.out, "checkpoint")
    problems: List[str] = []

    setups: List[Clock] = []
    solves: List[Clock] = []
    prints = set()
    attempted = failed = 0
    traced_run = None
    # Set-ups and solves alternate, so both sample the whole window; a
    # round starts only if one more like the last still fits in it.
    t_start = time.perf_counter()
    last = 0.0
    with speed_probe() as samples:
        while not solves or time.perf_counter() - t_start + last <= args.seconds:
            # The previous result must not inflate this solve's peak RSS.
            merged = None
            t0 = time.perf_counter()
            setups += [
                setup(cells)
                for _ in range(WORKLOADS[args.workload].setup_reps)
            ]
            took, merged, bad, bad_cells, _ = solve(cells, ckpt)
            last = time.perf_counter() - t0
            solves.append(took)
            attempted += len(cells)
            failed += bad_cells
            problems += bad
            prints.add(fingerprint(merged))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # Inside the probe too, so its overhead reads in the same scale.
        if args.trace:
            traced_run = traced_solve(args, cells, ckpt)
    setup_slow = [slowdown(samples, c) for c in setups]
    solve_slow = [slowdown(samples, c) for c in solves]
    problems += graph_problems(args.workload, cells)
    if len(prints) > 1:
        problems.append(f"fingerprint differs across {len(solves)} repeats")

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "cells": f"{len(cells)} x {cells[0].algorithm} x "
        f"{cells[0].scenario}, seeds {cells[0].seed}..{cells[-1].seed}",
        "setup_s": [c.cpu / s for c, s in zip(setups, setup_slow)],
        "solve_s": [c.cpu / s for c, s in zip(solves, solve_slow)],
        "setup_cpu_s": [c.cpu for c in setups],
        "solve_cpu_s": [c.cpu for c in solves],
        "setup_wall_s": [c.wall for c in setups],
        "solve_wall_s": [c.wall for c in solves],
        "setup_slowdown": setup_slow,
        "solve_slowdown": solve_slow,
        "peak_rss_mb": peak_rss_mb,
        "rounds": sum(r.rounds for r in merged.cells),
        "colors_used": max(r.colors_used for r in merged.cells),
        "palette": max(r.palette_size for r in merged.cells),
        "attempted": attempted,
        "failed": failed,
        "fingerprint": prints.pop() if len(prints) == 1 else None,
        "problems": problems,
    }
    if traced_run is not None:
        took = traced_run[0]
        overhead = (took.cpu / slowdown(samples, took)) / statistics.median(
            out["solve_s"]
        )
        layer, bad, out["phases_table"] = traced_ledger(
            args, cells, traced_run, overhead, out["fingerprint"]
        )
        for name in ("setup_wall_s", "solve_wall_s", "setup_cpu_s",
                     "solve_cpu_s"):
            layer[name] = statistics.median(out[name])
        layer["probe.slowdown"] = statistics.median(solve_slow)
        # Exact per seed but spread across seeds (Δ and the number of
        # trial phases of a random graph), so reported per layer.
        layer["rounds"] = out["rounds"]
        layer["colors_used"] = out["colors_used"]
        layer["failed_frac"] = failed / attempted
        out["layer"] = layer
        problems += bad
    return out


def traced_solve(args, cells, ckpt):
    """One set-up + solve under ``repro.obs.enable``: the solve's
    ``Clock``, merged result, problems, checkpoint bytes and the trace
    records."""
    trace_path = os.path.join(args.out, "trace.jsonl")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    obs_trace.enable(trace_path, worker=args.workload)
    try:
        setup(cells)
        took, merged, bad, _, ckpt_bytes = solve(cells, ckpt)
    finally:
        obs_trace.disable()
    return took, merged, bad, ckpt_bytes, obs_trace.read_trace(trace_path)


def traced_ledger(args, cells, traced_run, overhead_ratio, untraced_print):
    """The ledger of the traced set-up + solve, its problems, and the
    ``repro.obs`` phases table."""
    took, merged, bad, ckpt_bytes, records = traced_run
    cache = instance_cache()
    run_on_results = [
        registry.get_algorithm(c.algorithm).run_on(
            cache.get(c.workload, c.seed),
            seed=c.seed,
            policy=c.policy,
            backend="vectorized",
        )
        for c in cells
    ]
    layer = ledger(
        records, cells, merged, run_on_results, took.wall, overhead_ratio,
        ckpt_bytes,
    )
    problems = bad + validity_problems(args.workload, cells, layer)
    problems += [
        f"trace: {p}" for p in obs_trace.validate_trace(records)
    ]
    if fingerprint(merged) != untraced_print:
        problems.append("fingerprint differs between traced and untraced runs")
    return layer, problems, obs_report.render_phases(records)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
