"""Theorem 1.3: deterministic (1+ε)Δ² coloring of G².

Pipeline (Sec. 3): recursively split G into p = 2^h parts with
per-part degree Δ_h (Lemma 3.3, via the derandomized local refinement
splitting of Theorem 3.2), then d2-color all subgraphs
H_i = G²[V_i] in parallel with disjoint palettes of Δ·Δ_h + 1 colors
each (Lemma 3.5 relay bounds; see :mod:`repro.det.part_d2coloring`).
Total colors: 2^h·(Δ·Δ_h + 1) ≈ (1+ε)Δ².

At paper parameters the splitting threshold 1200·ε⁻²·log³n exceeds
any laptop-scale Δ, making h = 0 (a single part = plain Theorem 1.2);
``target_degree``/``levels`` expose the h ≥ 1 regime to benches.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx

from repro.congest.policy import BandwidthPolicy
from repro.det.part_d2coloring import part_d2_coloring
from repro.det.recursive_split import (
    RecursiveSplit,
    recursive_split,
)
from repro.graphs.square import max_degree
from repro.results import ColoringResult


def eps_d2_color(
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
    """Deterministic (1+ε)Δ² d2-coloring of G (Theorem 1.3)."""
    if delta is None:
        delta = max_degree(graph)
    if delta == 0:
        return ColoringResult(
            algorithm="eps-d2-coloring",
            coloring={v: 0 for v in graph.nodes},
            palette_size=1,
            rounds=0,
        )
    if split is None:
        split = recursive_split(
            graph,
            eps / 4.0,
            target_degree=target_degree,
            levels=levels,
            deterministic=deterministic_split,
            lam=split_lam,
            threshold=split_threshold,
        )
    part_delta = max(1, split.max_part_degree)
    # Max degree of H_i = G²[V_i]: Δ neighbors each contributing at
    # most Δ_h same-part second neighbors, plus Δ_h direct ones.
    part_d2_degree = min(
        delta * delta, delta * part_delta
    )

    colored = part_d2_coloring(
        graph,
        parts=split.parts,
        part_d2_degree=part_d2_degree,
        num_parts=split.num_parts,
        delta=delta,
        policy=policy,
    )

    result = ColoringResult(
        algorithm="eps-d2-coloring",
        coloring=colored.coloring,
        palette_size=colored.palette_size,
        rounds=0,
        params={
            "eps": eps,
            "levels": split.levels,
            "parts": split.num_parts,
            "part_delta": part_delta,
            "part_d2_degree": part_d2_degree,
            "split_charged_rounds": split.charged_rounds,
            "delta_sq_plus_1": delta * delta + 1,
            "color_budget": (1.0 + eps) * delta * delta,
            "max_blocked_phases": colored.params[
                "max_blocked_phases"
            ],
        },
    )
    result.add_phase(
        "recursive-split(charged)", split.charged_rounds
    )
    for phase in colored.phases:
        result.add_phase(phase.name, phase.rounds, phase.metrics)
    return result
