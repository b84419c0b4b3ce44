"""Centralized greedy d2-colorings.

The sequential greedy argument is what makes Δ²+1 the natural palette
size (Sec. 1): every node has at most Δ² d2-neighbors, so first-fit
never needs color Δ²+1 or higher.  These oracles provide ground truth
color counts for experiment E18 and sanity baselines for tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import networkx as nx

from repro.graphs.square import d2_neighborhoods, max_degree
from repro.results import ColoringResult


def _first_fit(used: set) -> int:
    color = 0
    while color in used:
        color += 1
    return color


def greedy_d2_coloring(
    graph: nx.Graph,
    order: Optional[Iterable[int]] = None,
) -> ColoringResult:
    """First-fit d2-coloring in ``order`` (default: by node ID)."""
    neighborhoods = d2_neighborhoods(graph)
    delta = max_degree(graph)
    coloring: Dict[int, int] = {}
    ordering = list(order) if order is not None else sorted(graph.nodes)
    for node in ordering:
        used = {
            coloring[u] for u in neighborhoods[node] if u in coloring
        }
        coloring[node] = _first_fit(used)
    return ColoringResult(
        algorithm="greedy-centralized",
        coloring=coloring,
        palette_size=delta * delta + 1,
        rounds=0,
        params={"centralized": True},
    )


def dsatur_d2_coloring(graph: nx.Graph) -> ColoringResult:
    """DSATUR on G²: always color the node whose d2-neighborhood uses
    the most distinct colors (ties by d2-degree, then ID)."""
    neighborhoods = d2_neighborhoods(graph)
    delta = max_degree(graph)
    coloring: Dict[int, int] = {}
    saturation: Dict[int, set] = {v: set() for v in graph.nodes}
    uncolored = set(graph.nodes)
    while uncolored:
        node = max(
            uncolored,
            key=lambda v: (
                len(saturation[v]),
                len(neighborhoods[v]),
                -v,
            ),
        )
        color = _first_fit(saturation[node])
        coloring[node] = color
        uncolored.discard(node)
        for u in neighborhoods[node]:
            saturation[u].add(color)
    return ColoringResult(
        algorithm="dsatur-centralized",
        coloring=coloring,
        palette_size=delta * delta + 1,
        rounds=0,
        params={"centralized": True},
    )
