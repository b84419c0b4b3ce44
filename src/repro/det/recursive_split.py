"""Recursive degree splitting (Lemma 3.3).

Starting from the trivial partition {V}, apply a λ-local refinement
splitting h times with λ = ε/(10·log Δ); each level splits every part
in two by color, so after h levels there are 2^h parts and every
vertex has at most Δ_h = (1+ε)·2^{-h}·Δ neighbors *in each part*.

The paper's h is the smallest integer with
(1 + ε/(10 log Δ))^h·2^{-h}·Δ <= 1200·ε^{-2}·log³ n; at laptop scale
that right-hand side exceeds Δ (so h = 0 and the direct coloring
applies — a legitimate, if boring, regime).  ``target_degree``
therefore is a parameter: benches exercise h >= 1 by lowering it,
which preserves the mechanism under test (the splitting quality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import networkx as nx

from repro.det.decomposition import (
    NetworkDecomposition,
    ball_carving_decomposition,
)
from repro.det.splitting import (
    SplittingResult,
    derandomized_splitting,
    random_splitting,
)
from repro.graphs.square import max_degree


def paper_target_degree(n: int, eps: float) -> float:
    """The Lemma 3.3 stopping threshold 1200·ε^{-2}·log³ n."""
    log_n = math.log2(max(n, 2))
    return 1200.0 * log_n**3 / (eps * eps)


def split_levels(delta: int, eps: float, target_degree: float) -> int:
    """Smallest h with (1+λ)^h·2^{-h}·Δ <= target_degree, where
    λ = ε/(10·log2 Δ)."""
    if delta <= target_degree:
        return 0
    lam = eps / (10.0 * max(1.0, math.log2(max(delta, 2))))
    h = 0
    degree = float(delta)
    while degree > target_degree and h < 64:
        degree *= (1.0 + lam) / 2.0
        h += 1
    return h


@dataclass
class RecursiveSplit:
    """Output of Lemma 3.3: the part of every vertex plus telemetry."""

    parts: Dict[int, int]
    num_parts: int
    levels: int
    lam: float
    max_part_degree: int
    level_results: List[SplittingResult] = field(default_factory=list)
    charged_rounds: int = 0


def measured_max_part_degree(
    graph: nx.Graph, parts: Dict[int, int]
) -> int:
    """max over v and parts i of |N(v) ∩ V_i|."""
    worst = 0
    for v in graph.nodes:
        counts: Dict[int, int] = {}
        for u in graph.neighbors(v):
            counts[parts[u]] = counts.get(parts[u], 0) + 1
        if counts:
            worst = max(worst, max(counts.values()))
    return worst


def recursive_split(
    graph: nx.Graph,
    eps: float,
    target_degree: Optional[float] = None,
    levels: Optional[int] = None,
    deterministic: bool = True,
    decomposition: Optional[NetworkDecomposition] = None,
    seed: int = 0,
    lam: Optional[float] = None,
    threshold: Optional[float] = None,
) -> RecursiveSplit:
    """Lemma 3.3: partition into 2^h parts with per-part degree
    ~ (1+ε)·2^{-h}·Δ.

    ``levels`` overrides the computed h; ``deterministic`` selects
    the Theorem 3.2 derandomization (else the zero-round random
    splitting).  The same decomposition is reused across levels
    (the paper's final remark in Lemma 3.3's proof).

    The paper's λ = ε/(10·log Δ) and degree floor 12·log n/λ² are
    asymptotic; at laptop scale the floor exceeds every degree and
    splittings become vacuous.  ``lam``/``threshold`` override both
    (DESIGN.md §3.1); benches of the h >= 1 regime pass e.g.
    ``lam=0.3, threshold=4``.
    """
    n = graph.number_of_nodes()
    delta = max_degree(graph)
    if target_degree is None:
        target_degree = paper_target_degree(n, eps)
    if levels is None:
        levels = split_levels(delta, eps, target_degree)
    if lam is None:
        lam = eps / (10.0 * max(1.0, math.log2(max(delta, 2))))

    parts = {v: 0 for v in graph.nodes}
    results: List[SplittingResult] = []
    charged = 0
    if levels > 0 and deterministic and decomposition is None:
        decomposition = ball_carving_decomposition(graph, k=2)
    for level in range(levels):
        if deterministic:
            result = derandomized_splitting(
                graph,
                parts,
                lam,
                decomposition=decomposition,
                threshold=threshold,
            )
        else:
            result = random_splitting(
                graph,
                parts,
                lam,
                seed=(seed, level),
                threshold=threshold,
            )
        results.append(result)
        charged += result.charged_rounds
        parts = {
            v: 2 * parts[v] + result.colors[v] for v in graph.nodes
        }
    # Renumber parts densely.
    distinct = sorted(set(parts.values()))
    renumber = {p: i for i, p in enumerate(distinct)}
    parts = {v: renumber[p] for v, p in parts.items()}
    return RecursiveSplit(
        parts=parts,
        num_parts=max(2**levels, len(distinct)),
        levels=levels,
        lam=lam,
        max_part_degree=measured_max_part_degree(graph, parts),
        level_results=results,
        charged_rounds=charged,
    )
