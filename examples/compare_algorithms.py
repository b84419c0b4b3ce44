"""Head-to-head comparison of every registered d2-coloring algorithm.

Enumerates the algorithm registry (``repro.registry.ALGORITHMS``) —
the centralized oracles, the baselines the paper argues against, and
the paper's randomized and deterministic pipelines — runs everything
on the same workloads, and prints a table of rounds / colors /
messages.  Registering a new algorithm adds it to this comparison
automatically; so does tagging a workload ``"showcase"`` in
``repro.workloads`` (the default set: the Moore graphs Petersen and
Hoffman–Singleton, whose squares are complete, plus a random regular
graph), or naming any registered workloads with ``--workloads``.

Instances come from the workload cache, so the graph and its CSR
rows are built once however many algorithms run, and the validity
check reads the cached CSR rows (every closed neighbourhood must be
rainbow).

The execution engine is selectable (see docs/BACKENDS.md): pass
``--backend vectorized`` for the array engine, or
``--workers N`` to fan the whole comparison grid across a process
pool via the sweep backend — results are identical either way.

Run:  python examples/compare_algorithms.py
          [--backend NAME] [--workers N] [--workloads NAME ...]
"""

import argparse
import sys

from repro import registry
from repro.exec import SweepBackend, SweepCell, available_backends
from repro.util.tables import ascii_table
from repro.verify.checker import check_d2_coloring
from repro.workloads import get_workload, instance_cache, workloads

SEED = 1


def run_all(instance, backend=None):
    rows = []
    graph = instance.graph()
    for spec in registry.ALGORITHMS:
        if not spec.applicable(graph):
            continue
        result = spec.run_on(instance, seed=SEED, backend=backend)
        ok = check_d2_coloring(
            graph,
            result.coloring,
            result.palette_size,
            adjacency=instance.csr(),
        ).valid
        rows.append(
            [
                instance.workload,
                f"{spec.name} [{spec.kind}]",
                result.rounds,
                result.colors_used,
                result.palette_size,
                result.metrics.total_messages,
                "yes" if ok else "NO",
            ]
        )
    return rows


def run_all_swept(instances, workers, backend=None):
    """The same comparison, fanned out as one sweep grid."""
    cells = []
    by_name = {}
    for instance in instances:
        by_name[instance.workload] = instance
        graph = instance.graph()
        for spec in registry.ALGORITHMS:
            if not spec.applicable(graph):
                continue
            cells.append(
                SweepCell.from_workload(
                    spec.name, instance.workload, SEED
                )
            )
    swept = SweepBackend(
        executor="process",
        max_workers=workers,
        inner=backend or "reference",
    ).run_grid(cells)
    rows = []
    for cell in swept.cells:
        if not cell.ok:
            rows.append(
                [cell.scenario, cell.algorithm, "-", "-", "-", "-",
                 f"ERROR {cell.error}"]
            )
            continue
        spec = registry.get_algorithm(cell.algorithm)
        instance = by_name[cell.scenario]
        ok = check_d2_coloring(
            instance.graph(),
            dict(cell.coloring),
            cell.palette_size,
            adjacency=instance.csr(),
        ).valid
        rows.append(
            [
                cell.scenario,
                f"{cell.algorithm} [{spec.kind}]",
                cell.rounds,
                cell.colors_used,
                cell.palette_size,
                cell.metrics.total_messages,
                "yes" if ok else "NO",
            ]
        )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="execution engine for each run (default: reference)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fan the grid across N sweep workers (0: run serially)",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=None,
        metavar="NAME",
        help="registered workload names to compare on "
        '(default: the "showcase"-tagged set)',
    )
    args = parser.parse_args()

    if args.backend == "vectorized":
        # One warning up front (not one per instance) for every spec
        # that has no array kernel and will run on the generator loop.
        from repro.exec.vectorized import kernel_coverage

        coverage = kernel_coverage()
        uncovered = sorted(
            spec.name
            for spec in registry.ALGORITHMS
            if spec.name not in coverage
        )
        if uncovered:
            print(
                "note: no vectorized kernel for "
                + ", ".join(uncovered)
                + " — these fall back to reference (see "
                "docs/BACKENDS.md)",
                file=sys.stderr,
            )

    if args.workloads:
        specs = [get_workload(name) for name in args.workloads]
    else:
        specs = list(workloads("showcase"))
    cache = instance_cache()
    instances = [cache.get(spec, SEED) for spec in specs]

    if args.workers > 0:
        rows = run_all_swept(
            instances, args.workers, backend=args.backend
        )
    else:
        rows = []
        for instance in instances:
            rows.extend(run_all(instance, backend=args.backend))
    print(
        ascii_table(
            [
                "instance",
                "algorithm",
                "rounds",
                "colors",
                "palette",
                "messages",
                "valid",
            ],
            rows,
        )
    )


if __name__ == "__main__":
    main()
