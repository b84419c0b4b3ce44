"""Independent d2-coloring validity checker.

By default this deliberately does **not** reuse
:mod:`repro.graphs.square`: distance-2 adjacency is recomputed here
with a plain per-node BFS so that a bug in the shared square-graph
code cannot mask itself in the tests
(``tests/test_checker_properties.py`` pins the two against each
other).  Hot paths that check many colorings of the *same* instance —
the conformance sweep, the shard workers — may pass the instance's
CSR arrays (:meth:`repro.workloads.Instance.csr`) as ``adjacency``.
The distance-2 check then reads no G² at all: two nodes are within
distance 2 iff some closed neighbourhood N[x] of G holds both, so a
coloring is a valid d2-coloring iff every N[x] is rainbow, which one
sort of n + 2m ``(x, color)`` keys decides.  The independence
guarantee of that path rests on the relay parity suite
(``tests/test_csr_parity.py``) rather than on every call.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import NoneType
from typing import Any, Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.results import aligned_column, count_distinct

#: Color values outside this magnitude decline the array fast path
#: (int64 comparisons would be inexact).
_INT64_SAFE = 2**62


@dataclass
class CheckReport:
    """Outcome of a coloring check."""

    valid: bool
    conflicts: List[Tuple[int, int]] = field(default_factory=list)
    uncolored: List[int] = field(default_factory=list)
    out_of_palette: List[int] = field(default_factory=list)
    colors_used: int = 0
    palette_size: Optional[int] = None

    def explain(self) -> str:
        if self.valid:
            return (
                f"valid: {self.colors_used} colors"
                + (
                    f" (palette {self.palette_size})"
                    if self.palette_size is not None
                    else ""
                )
            )
        parts = []
        if self.uncolored:
            parts.append(f"{len(self.uncolored)} uncolored node(s)")
        if self.conflicts:
            parts.append(
                f"{len(self.conflicts)} conflicting pair(s), e.g. "
                f"{self.conflicts[:3]}"
            )
        if self.out_of_palette:
            parts.append(
                f"{len(self.out_of_palette)} node(s) colored outside "
                "the palette"
            )
        return "invalid: " + "; ".join(parts)


def _nodes_within(graph: nx.Graph, source, k: int) -> List:
    """Nodes at distance 1..k from ``source`` via BFS."""
    seen = {source: 0}
    queue = deque([source])
    out = []
    while queue:
        node = queue.popleft()
        depth = seen[node]
        if depth == k:
            continue
        for nbr in graph.neighbors(node):
            if nbr not in seen:
                seen[nbr] = depth + 1
                out.append(nbr)
                queue.append(nbr)
    return out


def _colors_used(coloring) -> int:
    used = set(coloring.values())
    used.discard(None)
    return len(used)


def _rank(colors: np.ndarray):
    """``(ranks, span)``: an int64 rank per color, equal colors equal
    ranks, all below ``span``, with ``len(colors) · span < 2⁶³`` — the
    offset from the minimum when that fits, else the dense rank."""
    n = colors.size
    low = int(colors.min(initial=0))
    span = int(colors.max(initial=0)) - low + 1
    if span * max(n, 1) < 2**63:
        return colors - low, span
    by_color = np.argsort(colors, kind="stable")
    ordered = colors[by_color]
    ranks = np.empty(n, dtype=np.int64)
    ranks[by_color] = np.concatenate(
        ([0], np.cumsum(ordered[1:] != ordered[:-1]))
    )
    return ranks, int(ranks.max(initial=0)) + 1


def _rainbow_clashes(csr, colors, colored):
    """Dense index pairs ``(i, j)``, ``i < j``, of equally colored
    nodes within distance 2, sorted and each once.

    Two nodes are within distance 2 iff some closed neighbourhood
    N[x] holds both, so the pairs are the repeated ``(x, color)`` keys
    of the closed rows — one sort of n + 2m keys, no G².  The rows
    hold no self-loops, so a self-loop never makes a node its own
    neighbour.
    """
    n = csr.n
    indices = csr.g_indices
    ranks, span = _rank(colors)
    dtype = np.int32 if n * span < 2**31 else np.int64
    base = np.arange(n, dtype=dtype) * dtype(span)
    ranks = ranks.astype(dtype)
    # N[x] is x itself (a head) and x's row.
    heads = base + ranks
    rows = np.repeat(base, csr.degrees) + ranks[indices]
    if colored is not None:
        heads, rows = heads[colored], rows[colored[indices]]
    key = np.concatenate((heads, rows))
    ordered = np.sort(key)
    if not (ordered[1:] == ordered[:-1]).any():
        return np.zeros((2, 0), dtype=np.int64)
    # Some N[x] repeats a color: pair each member of a repeated run
    # with every later member of it, then drop repeats of a pair
    # (met again at another common neighbour).
    members = (np.arange(n), indices)
    if colored is not None:
        members = (members[0][colored], indices[colored[indices]])
    members = np.concatenate(members)
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    starts = np.flatnonzero(
        np.concatenate(([True], key[1:] != key[:-1]))
    )
    lens = np.diff(np.append(starts, key.size))
    starts, lens = starts[lens > 1], lens[lens > 1]
    at = np.repeat(starts - np.cumsum(lens) + lens, lens)
    at += np.arange(at.size)
    later = np.repeat(starts + lens, lens) - at - 1
    first = np.repeat(at, later)
    second = first + 1 + np.arange(first.size) - np.repeat(
        np.cumsum(later) - later, later
    )
    u, w = members[by_key[first]], members[by_key[second]]
    pairs = np.sort(np.minimum(u, w) * n + np.maximum(u, w))
    pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]
    return np.stack((pairs // n, pairs % n))


def _check_csr(csr, coloring, k, palette_size) -> Optional[CheckReport]:
    """Array fast path over G's CSR rows; ``None`` declines the check
    (unsupported ``k``, or colors int64 can't compare exactly), in
    which case the caller falls back to BFS.  ``k = 1`` compares the
    ends of every edge, ``k = 2`` checks that every closed
    neighbourhood is rainbow.  The rows hold no self-loops, so a
    self-loop never conflicts, as in the BFS."""
    if k not in (1, 2):
        return None
    n = csr.n
    order = csr.order
    colored = None
    uncolored: List[int] = []
    colors = aligned_column(coloring, csr.order)
    if colors is not None:
        colors_used = count_distinct(colors)
    else:
        if not isinstance(coloring, Mapping):
            coloring = dict(coloring)
        vals = list(map(coloring.get, order))
        types = set(map(type, vals))
        if not types <= {int, NoneType}:
            # bools, floats, numpy scalars, ...: judge value by value.
            for c in vals:
                if c is not None and not (
                    isinstance(c, int) and -_INT64_SAFE < c < _INT64_SAFE
                ):
                    return None
        if NoneType in types:
            colored = np.fromiter(
                (c is not None for c in vals), dtype=bool, count=n
            )
            uncolored = [v for v, c in zip(order, vals) if c is None]
            vals = [0 if c is None else c for c in vals]
        try:
            colors = np.fromiter(vals, dtype=np.int64, count=n)
        except OverflowError:
            return None
        # Keyed by exactly the graph's nodes, all colored: the values
        # are ``colors`` (a bool reads as its int, as in a set).
        colors_used = (
            count_distinct(colors)
            if colored is None and len(coloring) == n
            else _colors_used(coloring)
        )
    if not (
        -_INT64_SAFE < colors.min(initial=0)
        and colors.max(initial=0) < _INT64_SAFE
    ):
        return None
    out_of_palette: List[int] = []
    if palette_size is not None:
        bad = (colors < 0) | (colors >= palette_size)
        if colored is not None:
            bad &= colored
        out_of_palette = [
            order[i] for i in np.flatnonzero(bad).tolist()
        ]
    if k == 1:
        indptr, indices = csr.g_indptr, csr.g_indices
        row_of = np.repeat(np.arange(n), np.diff(indptr))
        clash = (indices > row_of) & (colors[row_of] == colors[indices])
        if colored is not None:
            clash &= colored[row_of] & colored[indices]
        first, second = row_of[clash], indices[clash]
    else:
        first, second = _rainbow_clashes(csr, colors, colored)
    conflicts = [
        (order[i], order[j])
        for i, j in zip(first.tolist(), second.tolist())
    ]
    valid = not (uncolored or conflicts or out_of_palette)
    return CheckReport(
        valid=valid,
        conflicts=conflicts,
        uncolored=uncolored,
        out_of_palette=out_of_palette,
        colors_used=colors_used,
        palette_size=palette_size,
    )


def check_distance_k_coloring(
    graph: nx.Graph,
    coloring: Dict[int, Optional[int]],
    k: int,
    palette_size: Optional[int] = None,
    adjacency: Optional[Any] = None,
) -> CheckReport:
    """Check that nodes within distance ``k`` have distinct colors.

    ``coloring`` is a ``{node: color}`` mapping or a sweep
    ``Coloring`` (node-sorted columns).  ``adjacency``, when given, is
    the :class:`~repro.exec.arrays.CSRAdjacency` of G: the array fast
    path then checks every pair with a handful of vectorized passes
    over G's CSR rows (``k`` 1 and 2; anything it cannot replay
    exactly falls back to the per-node BFS), reading a column input
    whose nodes are the CSR order without building a dict.  Same
    verdicts either way; conflict pairs from the CSR path come out
    lexicographically sorted.
    """
    if adjacency is not None:
        report = _check_csr(adjacency, coloring, k, palette_size)
        if report is not None:
            return report
    if not isinstance(coloring, Mapping):
        coloring = dict(coloring)  # a sweep Coloring: (node, color) pairs
    uncolored = [
        v for v in graph.nodes if coloring.get(v) is None
    ]
    out_of_palette = []
    if palette_size is not None:
        out_of_palette = [
            v
            for v in graph.nodes
            if coloring.get(v) is not None
            and not 0 <= coloring[v] < palette_size
        ]
    conflicts: List[Tuple[int, int]] = []
    for v in graph.nodes:
        cv = coloring.get(v)
        if cv is None:
            continue
        for u in _nodes_within(graph, v, k):
            if u <= v:
                continue
            if coloring.get(u) == cv:
                conflicts.append((v, u))
    colors_used = _colors_used(coloring)
    valid = not (uncolored or conflicts or out_of_palette)
    return CheckReport(
        valid=valid,
        conflicts=conflicts,
        uncolored=uncolored,
        out_of_palette=out_of_palette,
        colors_used=colors_used,
        palette_size=palette_size,
    )


def check_d2_coloring(
    graph: nx.Graph,
    coloring: Dict[int, Optional[int]],
    palette_size: Optional[int] = None,
    adjacency: Optional[Any] = None,
) -> CheckReport:
    """Check a distance-2 coloring (the paper's main object)."""
    return check_distance_k_coloring(
        graph, coloring, 2, palette_size, adjacency=adjacency
    )


def check_coloring(
    graph: nx.Graph,
    coloring: Dict[int, Optional[int]],
    palette_size: Optional[int] = None,
) -> CheckReport:
    """Check an ordinary (distance-1) vertex coloring."""
    return check_distance_k_coloring(graph, coloring, 1, palette_size)
