"""Theorem 3.4: deterministic (1+ε)Δ coloring of G.

Recursively split G into p = 2^h parts with per-part degree at most
Δ_h (Lemma 3.3), then color all parts *in parallel* with disjoint
palettes of Δ_h+1 colors each (parts are vertex- and edge-disjoint, so
the parallel runs share no bandwidth).  Total colors:
2^h·(Δ_h+1) <= (1+ε)Δ.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx

from repro.congest.policy import BandwidthPolicy
from repro.det.g_coloring import deg_plus_one_coloring_g
from repro.det.recursive_split import (
    RecursiveSplit,
    recursive_split,
)
from repro.graphs.square import max_degree
from repro.results import ColoringResult


def eps_coloring_g(
    graph: nx.Graph,
    eps: float,
    delta: Optional[int] = None,
    policy: Optional[BandwidthPolicy] = None,
    target_degree: Optional[float] = None,
    levels: Optional[int] = None,
    deterministic_split: bool = True,
    split: Optional[RecursiveSplit] = None,
    split_lam: Optional[float] = None,
    split_threshold: Optional[float] = None,
) -> ColoringResult:
    """Deterministic (1+ε)Δ coloring of G (Theorem 3.4)."""
    if delta is None:
        delta = max_degree(graph)
    if delta == 0:
        return ColoringResult(
            algorithm="eps-coloring-g",
            coloring={v: 0 for v in graph.nodes},
            palette_size=1,
            rounds=0,
        )
    if split is None:
        split = recursive_split(
            graph,
            eps,
            target_degree=target_degree,
            levels=levels,
            deterministic=deterministic_split,
            lam=split_lam,
            threshold=split_threshold,
        )
    part_delta = max(1, split.max_part_degree)
    local_palette = part_delta + 1

    colored = deg_plus_one_coloring_g(
        graph,
        delta=delta,
        policy=policy,
        parts=split.parts,
        part_delta=part_delta,
        target=local_palette,
    )
    # Disjoint palettes: global color = part·(Δ_h+1) + local color.
    final = {
        v: split.parts[v] * local_palette + colored.coloring[v]
        for v in graph.nodes
    }
    palette = split.num_parts * local_palette

    result = ColoringResult(
        algorithm="eps-coloring-g",
        coloring=final,
        palette_size=palette,
        rounds=0,
        params={
            "eps": eps,
            "levels": split.levels,
            "parts": split.num_parts,
            "part_delta": part_delta,
            "split_charged_rounds": split.charged_rounds,
            "split_ok": all(
                r.ok for r in split.level_results
            ),
        },
    )
    result.add_phase(
        "recursive-split(charged)", split.charged_rounds
    )
    for phase in colored.phases:
        result.add_phase(phase.name, phase.rounds, phase.metrics)
    return result
