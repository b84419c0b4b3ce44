"""Common result types returned by the coloring algorithms."""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from operator import countOf
from typing import Any, Dict, List, Optional

import numpy as np

from repro.congest.metrics import RunMetrics


def count_distinct(values: np.ndarray) -> int:
    """How many distinct values a 1-d array holds."""
    if not values.size:
        return 0
    ordered = np.sort(values)
    return 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def column(values) -> np.ndarray:
    """``values`` (a sized, re-iterable collection) as a read-only
    int64 column when every value is an exact int (not a ``bool``)
    inside int64, else as an object column."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        col = values.view()
    else:
        col = None
        if countOf(map(type, values), int) == len(values):
            try:
                col = np.fromiter(values, np.int64, len(values))
            except OverflowError:
                pass
        if col is None:
            col = np.fromiter(values, object, len(values))
    col.flags.writeable = False
    return col


def aligned_column(coloring, order) -> Optional[np.ndarray]:
    """A column-carrying coloring's int64 colors when its nodes are
    exactly ``order`` (a sweep ``Coloring``, or a kernel's
    :class:`ArrayColoring` with every node colored), else ``None``:
    the caller then reads the coloring node by node."""
    columns = getattr(coloring, "columns", None)
    if columns is None:
        return None
    nodes, colors = columns()
    if colors.dtype != np.int64 or len(nodes) != len(order):
        return None
    if isinstance(order, range):
        same = isinstance(nodes, np.ndarray) and np.array_equal(
            nodes, np.arange(order.start, order.stop, order.step)
        )
    else:
        same = nodes is order
    return colors if same else None


class ArrayColoring(Mapping):
    """A read-only ``{node: color}`` mapping over a kernel's arrays
    (kernels serve their other non-negative int tables, such as
    ``blocked_phases``, through it too).

    ``order[i]`` is the label of dense index ``i`` (ascending),
    ``colors[i]`` its int64 color, ``-1`` for an uncolored node (read
    as ``None``), and ``index`` the label → dense-index map.  Reads
    keep the plain-dict semantics, in ``order``; :meth:`columns` and
    :meth:`distinct` work on the arrays without building a dict.
    """

    __slots__ = ("order", "colors", "index")

    def __init__(self, order, colors: np.ndarray, index):
        self.order = order
        self.colors = colors.view()
        self.colors.flags.writeable = False
        self.index = index

    def __getitem__(self, node):
        try:
            i = self.index[node]
        except (KeyError, TypeError):
            raise KeyError(node) from None
        color = int(self.colors[i])
        return color if color >= 0 else None

    def __iter__(self):
        return iter(self.order)

    def __len__(self) -> int:
        return len(self.colors)

    def _values(self) -> list:
        if self.colors.min(initial=0) >= 0:
            return self.colors.tolist()
        return [c if c >= 0 else None for c in self.colors.tolist()]

    def values(self):
        return _ArrayValues(self)

    def items(self):
        return _ArrayItems(self)

    def columns(self):
        """``(nodes, colors)``: the labels as an int64 column when they
        are a ``range``, and the colors as int64, or as an object
        column holding ``None`` where a node is uncolored."""
        order, colors = self.order, self.colors
        if isinstance(order, range):
            order = np.arange(order.start, order.stop, order.step)
        if colors.min(initial=0) < 0:
            colors = np.array(self._values(), dtype=object)
        return order, colors

    def distinct(self) -> int:
        """How many distinct values ``values()`` holds (``None``
        counts as one, as in a ``set``)."""
        return count_distinct(self.colors)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _ArrayValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping._values())


class _ArrayItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping.order, self._mapping._values())


@dataclass
class PhaseResult:
    """One phase of a multi-phase algorithm (e.g. "Linial")."""

    name: str
    rounds: int
    metrics: Optional[RunMetrics] = None


@dataclass
class ColoringResult:
    """A coloring plus the cost of computing it.

    ``palette_size`` is the number of colors the algorithm was allowed
    (e.g. Δ²+1); ``colors_used`` is how many distinct colors actually
    appear.  ``rounds`` is the total number of CONGEST rounds across
    all phases.
    """

    algorithm: str
    #: ``{node: color}``: a dict, or an :class:`ArrayColoring` when a
    #: kernel produced it.
    coloring: Mapping[int, Optional[int]]
    palette_size: int
    rounds: int
    metrics: RunMetrics = field(default_factory=RunMetrics)
    phases: List[PhaseResult] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)

    @property
    def colors_used(self) -> int:
        if isinstance(self.coloring, ArrayColoring):
            return self.coloring.distinct()
        return len(set(self.coloring.values()))

    @property
    def complete(self) -> bool:
        """True when every node has a (non-None) color."""
        return all(c is not None for c in self.coloring.values())

    def phase_rounds(self) -> Dict[str, int]:
        return {phase.name: phase.rounds for phase in self.phases}

    def add_phase(
        self, name: str, rounds: int, metrics: Optional[RunMetrics] = None
    ) -> None:
        self.phases.append(PhaseResult(name, rounds, metrics))
        self.rounds += rounds
        if metrics is not None:
            self.metrics = self.metrics.merge(metrics)

    def summary(self) -> str:
        return (
            f"{self.algorithm}: {self.colors_used} colors "
            f"(palette {self.palette_size}), {self.rounds} rounds, "
            f"{self.metrics.total_messages} messages"
        )
