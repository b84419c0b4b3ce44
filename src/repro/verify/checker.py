"""Independent d2-coloring validity checker.

By default this deliberately does **not** reuse
:mod:`repro.graphs.square`: distance-2 adjacency is recomputed here
with a plain per-node BFS so that a bug in the shared square-graph
code cannot mask itself in the tests
(``tests/test_checker_properties.py`` pins the two against each
other).  Hot paths that check many colorings of the *same* instance —
the conformance sweep, the shard workers — may pass the instance's
CSR arrays (:meth:`repro.workloads.Instance.square_csr`) as
``adjacency`` to scan G² rows instead of the per-call BFS; the
independence guarantee then rests on the parity suite
(``tests/test_csr_parity.py``) rather than on every call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import NoneType
from typing import Any, Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

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


def _check_csr(csr, coloring, k, palette_size) -> Optional[CheckReport]:
    """Array fast path over CSR rows; ``None`` declines the check
    (unsupported ``k``, or colors int64 can't compare exactly), in
    which case the caller falls back to BFS.  The rows hold no
    self-loops and G² no diagonal, so a self-loop never conflicts,
    as in the BFS."""
    if k == 1:
        indptr, indices = csr.g_indptr, csr.g_indices
    elif k == 2:
        indptr, indices = csr.g2_indptr, csr.g2_indices
    else:
        return None
    n = csr.n
    order = csr.order
    vals = list(map(coloring.get, order))
    types = set(map(type, vals))
    if not types <= {int, NoneType}:
        # bools, floats, numpy scalars, ...: judge value by value.
        for c in vals:
            if c is not None and not (
                isinstance(c, int) and -_INT64_SAFE < c < _INT64_SAFE
            ):
                return None
    colored = None
    uncolored: List[int] = []
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
    row_of = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(indptr)
    )
    clash = (indices > row_of) & (colors[row_of] == colors[indices])
    if colored is not None:
        clash &= colored[row_of] & colored[indices]
    conflicts = [
        (order[i], order[j])
        for i, j in zip(
            row_of[clash].tolist(), indices[clash].tolist()
        )
    ]
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


def check_distance_k_coloring(
    graph: nx.Graph,
    coloring: Dict[int, Optional[int]],
    k: int,
    palette_size: Optional[int] = None,
    adjacency: Optional[Any] = None,
) -> CheckReport:
    """Check that nodes within distance ``k`` have distinct colors.

    ``adjacency``, when given, is the
    :class:`~repro.exec.arrays.CSRAdjacency` of G: the array fast
    path then checks every pair with a handful of vectorized passes
    over the CSR rows (``k`` 1 and 2; anything it cannot replay
    exactly falls back to the per-node BFS).  Same verdicts either
    way; conflict pairs from the CSR path come out lexicographically
    sorted.
    """
    if adjacency is not None:
        report = _check_csr(adjacency, coloring, k, palette_size)
        if report is not None:
            return report
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
