"""Sparsity, slack and leeway (Sec. 2, Definition 2.4).

These are *analysis* quantities: the paper's algorithms never compute
them (nodes "do not know their leeway", Sec. 2), but the proofs hinge
on them, and several of our experiments (E9) verify their empirical
relationships, so we compute them centrally.

Definitions, with Δ the max degree of G and palette [Δ²] = {0..Δ²}:

- *sparsity* ζ(v): G²[v] (the subgraph of G² induced by v's
  d2-neighbors) has binom(Δ², 2) - Δ²·ζ(v) edges; equivalently ζ(v)
  is the average "non-degree" of that neighborhood, scaled by 1/2.
- *slack*  (w.r.t. a partial coloring): Δ² + 1 minus (number of
  distinct colors among colored d2-neighbors + number of live
  d2-neighbors).
- *leeway*: slack + number of live d2-neighbors = number of palette
  colors not used among d2-neighbors.
- v is *solid* if leeway φ <= c1·Δ² and sparsity ζ <= 4e³·φ.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Set

import networkx as nx

from repro.graphs.square import d2_neighborhoods, max_degree

E_CUBED = math.e**3


def sparsity(graph: nx.Graph, delta: Optional[int] = None) -> Dict:
    """ζ(v) for every node v (Definition 2.4).

    ``delta`` defaults to the true max degree; passing a larger known
    bound matches the paper's use of a globally known Δ.
    """
    if delta is None:
        delta = max_degree(graph)
    delta_sq = delta * delta
    if delta_sq == 0:
        return {v: 0.0 for v in graph.nodes}
    neighborhoods = d2_neighborhoods(graph)
    full_edges = delta_sq * (delta_sq - 1) / 2.0
    result = {}
    for v, nbrs in neighborhoods.items():
        edges = 0
        nbr_set = nbrs
        for u in nbrs:
            edges += sum(1 for w in neighborhoods[u] if w in nbr_set)
        edges //= 2
        result[v] = (full_edges - edges) / delta_sq
    return result


def _distinct_neighbor_colors(nbrs: Iterable, coloring: Dict) -> Set:
    return {
        coloring[u]
        for u in nbrs
        if coloring.get(u) is not None
    }


def slack(
    graph: nx.Graph,
    coloring: Dict,
    delta: Optional[int] = None,
) -> Dict:
    """Slack of every node under a partial ``coloring``.

    ``coloring`` maps node -> color or None (live).  Uses the palette
    size Δ²+1 of the paper.
    """
    if delta is None:
        delta = max_degree(graph)
    palette = delta * delta + 1
    neighborhoods = d2_neighborhoods(graph)
    result = {}
    for v, nbrs in neighborhoods.items():
        used = len(_distinct_neighbor_colors(nbrs, coloring))
        live = sum(1 for u in nbrs if coloring.get(u) is None)
        result[v] = palette - (used + live)
    return result


def leeway(
    graph: nx.Graph,
    coloring: Dict,
    delta: Optional[int] = None,
) -> Dict:
    """Leeway of every node: palette colors unused in the
    d2-neighborhood (= slack + live d2-neighbors)."""
    if delta is None:
        delta = max_degree(graph)
    palette = delta * delta + 1
    neighborhoods = d2_neighborhoods(graph)
    result = {}
    for v, nbrs in neighborhoods.items():
        used = len(_distinct_neighbor_colors(nbrs, coloring))
        result[v] = palette - used
    return result


def live_d2_counts(graph: nx.Graph, coloring: Dict) -> Dict:
    """Number of uncolored d2-neighbors of every node."""
    neighborhoods = d2_neighborhoods(graph)
    return {
        v: sum(1 for u in nbrs if coloring.get(u) is None)
        for v, nbrs in neighborhoods.items()
    }


def solid_nodes(
    graph: nx.Graph,
    coloring: Dict,
    c1: float,
    delta: Optional[int] = None,
) -> Set:
    """Nodes that are *solid* (Definition 2.4) under ``coloring``:
    leeway φ <= c1·Δ² and sparsity ζ <= 4e³·φ."""
    if delta is None:
        delta = max_degree(graph)
    lee = leeway(graph, coloring, delta)
    spars = sparsity(graph, delta)
    bound = c1 * delta * delta
    return {
        v
        for v in graph.nodes
        if lee[v] <= bound and spars[v] <= 4 * E_CUBED * lee[v]
    }
