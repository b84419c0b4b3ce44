"""Layer-ledger benchmark: time to a verified d2-coloring.

Runs each workload as a single-shard ``vectorized`` sweep, exactly as a
user's sweep plus its check runs it (``compile_manifest`` ->
``run_shard`` -> ``merge_shards`` -> ``check_d2_coloring``).  Each
workload runs in its own fresh child process (``worker.py``), one at a
time; the load comes from that one process, cell after cell.

Usage, from the repository root::

    python3 perfbench/run.py                      # every workload, seed 0
    python3 perfbench/run.py --workload tight-ladder --seed 3 --trace 0

With ``--workload all`` (the default) every workload runs traced and
every metric is printed with its unit.  With one workload, ``--trace 0``
reports the end-to-end metrics and ``--trace 1`` the per-layer ledger.
The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the exit code is nonzero on any checker,
palette, fingerprint or workload-validity failure.

End-to-end metrics (tracing off; every repeat is kept in
``summary.csv`` with its quartiles, the median is reported):

- ``setup_s``: building the instances in a fresh cache
  (``InstanceCache.get`` + ``Instance.csr`` + ``Instance.square_csr``);
- ``solve_s``: ``compile_manifest`` through ``merge_shards`` and the
  check of every merged coloring against a Δ²+1 palette;
- ``peak_rss_mb``: the worker's own ``ru_maxrss`` after the untraced
  set-ups and solves.

Set-ups and solves alternate for ``--seconds``; each time is reported
as the median of its repeats.  The two times are the worker's CPU
seconds (``time.process_time``; the worker is single-threaded, with
the BLAS/OpenMP pools pinned to one thread) scaled to the speed of a
quiet core, which a probe process on the worker's CPU measures all
along (``probe.py``; see ``worker.py``): on a shared host the speed of
a core swings by ±20% over tens of seconds, and the unscaled CPU and
wall seconds swing with it.  Their medians are reported with the
ledger as ``setup_cpu_s``, ``solve_cpu_s``, ``setup_wall_s`` and
``solve_wall_s``, and the probe's median slowdown during the solves
as ``probe.slowdown``.

The per-layer ledger comes from one more set-up and solve under
``repro.obs.enable``, rolled up by span self time (see ``worker.py``).
``obs.overhead_ratio`` is that traced solve over the untraced
``solve_s`` median of the same run, both scaled.  ``rounds``, ``colors_used`` and
``failed_frac`` (failed cells over attempted cells) are exact for a
seed but move with it (Δ and the trial phases of a random graph), so
they are reported with the ledger.

Workloads (``why`` in ``BENCHMARK.json``):

- ``huge-trial``: ``trial`` x ``gnp-huge-1048576``, the 10^6-node
  yardstick: instance build, G², the try-phase kernel and
  checkpointing a 2^20-entry coloring.
- ``det-fallback``: ``improved-d2color`` x ``rr4-huge-16384``; Δ² = 16 <
  2·log2 n, so Step 0 hands off to the deterministic chain on the
  generator loop.  It draws no randomness.
- ``tight-ladder``: ``improved-d2color`` x ``hoffman-singleton``, 64
  cells.  G² is the complete graph on Δ²+1 nodes, so the trials window
  never finishes and similarity, the Reduce ladder, LearnPalette and
  finish run in every cell.

Seeds: the benchmark was steadied on seeds 0-39 and 100-109.  Check a later claim
on seed 1000 as well, which was not used while writing it.

Outputs go to ``perfbench/results/``: one ``<workload>-seed<n>/``
directory per run (``summary.csv``, ``result.json`` and, when traced,
``trace.jsonl``), plus ``aggregate_summary.csv`` and
``validation_report.md`` regenerated over every run directory present.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("huge-trial", "det-fallback", "tight-ladder")

#: A child that outlives this is killed, so a run ends within 3 minutes.
CHILD_TIMEOUT_S = 170


def load_units() -> Dict[str, str]:
    """Every metric's unit, as ``BENCHMARK.json`` declares it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return {
        m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]
    }


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


def run_child(workload: str, seed: int, seconds: float, trace: int,
              out: str) -> Dict:
    """One workload in a fresh interpreter; its parsed result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # One thread, so CPU seconds count no idle pool threads spinning.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", out,
    ]
    # Its own process group, so a timeout also kills its speed probe.
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(res: Dict, units: Dict[str, str]) -> Dict[str, Dict]:
    """Every end-to-end metric with its repeats and quartiles."""
    repeats = {
        "setup_s": res["setup_s"],
        "solve_s": res["solve_s"],
        "peak_rss_mb": [res["peak_rss_mb"]],
    }
    return {
        name: {
            "unit": units[name],
            "repeats": values,
            **quartiles(values),
        }
        for name, values in repeats.items()
    }


def write_run(out: str, res: Dict, e2e: Dict, units: Dict[str, str]) -> None:
    with open(os.path.join(out, "result.json"), "w") as handle:
        json.dump({**res, "end_to_end": e2e}, handle, indent=1)
    with open(os.path.join(out, "summary.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["kind", "metric", "unit", "n", "q1", "median", "q3", "repeats"]
        )
        for name, m in e2e.items():
            writer.writerow(
                ["end_to_end", name, m["unit"], m["n"], m["q1"],
                 m["median"], m["q3"], " ".join(map(repr, m["repeats"]))]
            )
        for name, value in res.get("layer", {}).items():
            writer.writerow(
                ["per_layer", name, units[name], 1, value, value,
                 value, repr(value)]
            )


def write_aggregate(results_dir: str, units: Dict[str, str]) -> None:
    """``aggregate_summary.csv`` + ``validation_report.md`` over every
    run directory present (the layout of a validation sweep: one
    folder per run, then the aggregate, then the report)."""
    runs = []
    for path in sorted(glob.glob(os.path.join(results_dir, "*", "result.json"))):
        with open(path) as handle:
            runs.append(json.load(handle))
    with open(os.path.join(results_dir, "aggregate_summary.csv"), "w",
              newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["workload", "seed", "kind", "metric", "unit", "n", "q1",
             "median", "q3"]
        )
        for res in runs:
            for name, m in res["end_to_end"].items():
                writer.writerow(
                    [res["workload"], res["seed"], "end_to_end", name,
                     m["unit"], m["n"], m["q1"], m["median"], m["q3"]]
                )
            for name, value in res.get("layer", {}).items():
                writer.writerow(
                    [res["workload"], res["seed"], "per_layer", name,
                     units[name], 1, value, value, value]
                )
    lines = ["# Validation report", ""]
    for res in runs:
        verdict = "FAIL" if res["problems"] else "ok"
        lines.append(f"## {res['workload']} seed {res['seed']}: {verdict}")
        lines.append("")
        lines.append(f"- cells: {res['cells']}")
        lines.append(
            f"- checked {res['attempted']} cell solves, "
            f"{res['failed']} failed; {res['colors_used']} colors of "
            f"a Δ²+1 = {res['palette']} palette; {res['rounds']} rounds"
        )
        lines.append(f"- fingerprint: `{res['fingerprint']}`")
        layer = res.get("layer")
        if layer:
            phases = ", ".join(
                f"{k.split('.', 1)[1]} {layer[k]}"
                for k in layer
                if k.startswith(("core.", "det.")) and layer[k]
            )
            lines.append(f"- traced: phases {phases or 'none'}; "
                         f"exec.fallback events {layer['exec.fallbacks']}; "
                         f"overhead {layer['obs.overhead_ratio']:.3f}x")
        for problem in res["problems"]:
            lines.append(f"- PROBLEM: {problem}")
        lines.append("")
    with open(os.path.join(results_dir, "validation_report.md"), "w") as handle:
        handle.write("\n".join(lines))


def print_tables(res: Dict, e2e: Dict, units: Dict[str, str]) -> None:
    from repro.util.tables import ascii_table

    print(f"== {res['workload']} seed {res['seed']}: {res['cells']}")
    print(ascii_table(
        ["end-to-end", "unit", "n", "q1", "median", "q3"],
        [[name, m["unit"], m["n"], round(m["q1"], 4),
          round(m["median"], 4), round(m["q3"], 4)]
         for name, m in e2e.items()],
    ))
    layer = res.get("layer")
    if layer:
        print(ascii_table(
            ["per-layer", "unit", "value"],
            [[name, units[name],
              round(value, 4) if isinstance(value, float) else value]
             for name, value in layer.items()],
        ))
        print(res["phases_table"])
    for problem in res["problems"]:
        print(f"PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Layer-ledger benchmark (see module docstring)."
    )
    parser.add_argument(
        "--workload", default="all", choices=("all",) + WORKLOAD_NAMES
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="untraced set-up + solve time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add a traced solve and print the ledger")
    parser.add_argument("--out", default=os.path.join(HERE, "results"))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    units = load_units()
    metrics: Dict[str, Dict] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        out = os.path.join(args.out, f"{name}-seed{args.seed}")
        os.makedirs(out, exist_ok=True)
        t0 = time.perf_counter()
        res = run_child(name, args.seed, args.seconds, args.trace, out)
        res["child_wall_s"] = time.perf_counter() - t0
        e2e = end_to_end(res, units)
        write_run(out, res, e2e, units)
        print_tables(res, e2e, units)
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and not res["problems"]
        # One workload reports one kind of metric; "all" reports both.
        values = {}
        if len(names) > 1 or not args.trace:
            values.update({k: m["median"] for k, m in e2e.items()})
        if args.trace:
            values.update(res["layer"])
        prefix = "" if len(names) == 1 else f"{name}:"
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    write_aggregate(args.out, units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
