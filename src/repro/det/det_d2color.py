"""Theorem 1.2: deterministic Δ²+1 d2-coloring in O(Δ² + log* n).

The three-stage pipeline of Appendix B, run back to back:

1. :func:`repro.det.linial.linial_d2_coloring`
   IDs → O(Δ⁴) colors in O(Δ + log* n) rounds (Theorem B.1);
2. :func:`repro.det.locally_iterative.locally_iterative_d2_coloring`
   O(Δ⁴) → q ∈ (4Δ², 8Δ²) colors in O(Δ²) rounds (Theorem B.4);
3. :func:`repro.det.color_reduction.color_reduction_d2`
   q → Δ²+1 colors in O(Δ²) rounds (Theorem B.2).

Each stage runs inside an obs span (``det.linial``,
``det.locally_iterative``, ``det.color_reduction``) annotated with its
rounds, messages and bits.  Colorings pass from stage to stage as
columns: each stage returns ``network.node_colors()`` (on a kernel
run, an :class:`~repro.results.ArrayColoring` over the kernel's color
array) and the next ships it as the ``color_in`` column of a
:func:`~repro.congest.network.column_inputs`, which the next kernel
reads as it is — no per-node input dict between the stages.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx

from repro.congest.policy import BandwidthPolicy
from repro.det.color_reduction import color_reduction_d2
from repro.det.linial import linial_d2_coloring
from repro.det.locally_iterative import locally_iterative_d2_coloring
from repro.graphs.square import max_degree
from repro.obs import trace as obs_trace
from repro.results import ColoringResult


def _stage(name: str, run) -> ColoringResult:
    """Run one pipeline stage inside its obs span."""
    with obs_trace.span(name) as sp:
        result = run()
        sp.annotate(
            rounds=result.rounds,
            messages=result.metrics.total_messages,
            bits=result.metrics.total_bits,
        )
    return result


def deterministic_d2_color(
    graph: nx.Graph,
    delta: Optional[int] = None,
    policy: Optional[BandwidthPolicy] = None,
    stop_early: bool = True,
) -> ColoringResult:
    """Deterministic d2-coloring with Δ²+1 colors (Theorem 1.2)."""
    if delta is None:
        delta = max_degree(graph)
    if delta == 0:
        coloring = {v: 0 for v in graph.nodes}
        return ColoringResult(
            algorithm="deterministic-d2",
            coloring=coloring,
            palette_size=1,
            rounds=0,
        )

    linial = _stage(
        "det.linial",
        lambda: linial_d2_coloring(graph, delta=delta, policy=policy),
    )
    iterative = _stage(
        "det.locally_iterative",
        lambda: locally_iterative_d2_coloring(
            graph,
            color_in=linial.coloring,
            palette_in=linial.palette_size,
            delta=delta,
            policy=policy,
            stop_early=stop_early,
        ),
    )
    target = delta * delta + 1
    if iterative.palette_size > target:
        reduced = _stage(
            "det.color_reduction",
            lambda: color_reduction_d2(
                graph,
                color_in=iterative.coloring,
                palette_in=iterative.palette_size,
                target=target,
                delta=delta,
                policy=policy,
            ),
        )
        final_coloring = reduced.coloring
        reduction_phase = reduced
    else:
        final_coloring = iterative.coloring
        reduction_phase = None

    result = ColoringResult(
        algorithm="deterministic-d2",
        coloring=final_coloring,
        palette_size=target,
        rounds=0,
        params={"delta": delta},
    )
    result.add_phase("linial", linial.rounds, linial.metrics)
    result.add_phase(
        "locally-iterative", iterative.rounds, iterative.metrics
    )
    if reduction_phase is not None:
        result.add_phase(
            "color-reduction",
            reduction_phase.rounds,
            reduction_phase.metrics,
        )
    result.params["max_blocked_phases"] = iterative.params[
        "max_blocked_phases"
    ]
    result.params["q"] = iterative.params["q"]
    return result
