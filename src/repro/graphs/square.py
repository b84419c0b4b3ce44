"""The square graph G² and distance-2 neighborhoods.

d2-coloring of G is exactly vertex coloring of G², where u, v are
adjacent in G² whenever their distance in G is 1 or 2 (Sec. 1 of the
paper).  These helpers are used by the algorithms *only* for
centralized analysis (sparsity computation, instance generation);
the CONGEST protocols themselves never touch G² directly.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

import networkx as nx


def d2_neighbors(graph: nx.Graph, node) -> Set:
    """All nodes at distance 1 or 2 from ``node`` (excluding itself)."""
    out: Set = set()
    for nbr in graph.neighbors(node):
        out.add(nbr)
        out.update(graph.neighbors(nbr))
    out.discard(node)
    return out


def d2_neighborhoods(graph: nx.Graph) -> Dict:
    """``{node: frozenset of d2-neighbors}`` for all nodes at once."""
    adjacency = {v: set(graph.neighbors(v)) for v in graph.nodes}
    result = {}
    for v in graph.nodes:
        out: Set = set(adjacency[v])
        for nbr in adjacency[v]:
            out |= adjacency[nbr]
        out.discard(v)
        result[v] = frozenset(out)
    return result


def square(graph: nx.Graph) -> nx.Graph:
    """Return G²: same nodes, edges between nodes at distance <= 2."""
    sq = nx.Graph()
    sq.add_nodes_from(graph.nodes)
    for v, nbrs in d2_neighborhoods(graph).items():
        for u in nbrs:
            sq.add_edge(v, u)
    return sq


def d2_degree(
    graph: Optional[nx.Graph], node, adjacency: Optional[Any] = None
) -> int:
    """Degree of ``node`` in G² (number of d2-neighbors).

    ``adjacency`` short-circuits the BFS with a precomputed
    :class:`~repro.exec.arrays.CSRAdjacency` (whose lazily derived G²
    degree array is read directly, no Python sets involved).
    """
    if adjacency is not None:
        return int(adjacency.d2_degrees[adjacency.index[node]])
    return len(d2_neighbors(graph, node))


def max_degree(graph: nx.Graph) -> int:
    """Maximum degree Δ of ``graph`` (0 for edgeless graphs).

    A CSR-backed graph view is read off its degree array, without
    materializing it.
    """
    csr = getattr(graph, "csr_adjacency", None)
    if csr is not None:
        return int(csr.degrees.max(initial=0))
    return max((d for _, d in graph.degree), default=0)


def max_d2_degree(
    graph: Optional[nx.Graph], adjacency: Optional[Any] = None
) -> int:
    """Maximum degree of G²; at most Δ² for Δ the max degree of G.

    ``adjacency`` (a :class:`~repro.exec.arrays.CSRAdjacency`) skips
    the set-based :func:`d2_neighborhoods` rebuild.  A CSR-backed
    graph view that carries its arrays (``graph.csr_adjacency``) is
    detected automatically, so array-born instances never pay for the
    dict.
    """
    if adjacency is None:
        adjacency = getattr(graph, "csr_adjacency", None)
    if adjacency is not None:
        return int(adjacency.d2_degrees.max(initial=0))
    neighborhoods = d2_neighborhoods(graph)
    return max((len(nbrs) for nbrs in neighborhoods.values()), default=0)


def common_d2_neighbors(graph: nx.Graph, u, v) -> Set:
    """d2-neighbors shared by ``u`` and ``v`` (the similarity measure
    behind the H graphs of Sec. 2.3)."""
    return d2_neighbors(graph, u) & d2_neighbors(graph, v)


def two_paths(graph: nx.Graph, u, v) -> list:
    """All middle nodes w with u-w-v a path in G.

    The paper stresses that d2-neighbors may be connected by *multiple*
    2-paths, which confounds naive random-neighbor selection
    (Sec. 2.1); Reduce-Phase step 2 explicitly filters to single-path
    pairs.
    """
    u_nbrs = set(graph.neighbors(u))
    return [w for w in graph.neighbors(v) if w in u_nbrs]
