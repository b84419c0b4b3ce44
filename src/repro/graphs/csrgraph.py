"""A lazily-materialized ``nx.Graph`` view over a CSR adjacency.

:class:`CSRGraphView` is how CSR-born instances stay compatible with
every networkx consumer in the repository without paying for an
``nx.Graph``.  It *is* an ``nx.Graph`` subclass, but its ``_adj`` /
``_node`` dict-of-dicts are non-data descriptors that build from the
CSR arrays only when first touched — any nx algorithm or accessor the
view does not override transparently materializes and works on the
real structure (the correctness safety valve).  The hot accessors the
pipeline actually uses (``nodes``, ``edges``, ``degree``,
``neighbors``, ``has_edge``, counts, iteration) are overridden to
answer straight from the arrays, so kernel-path runs at n = 2²⁰
never build a Python dict per node.

Views are immutable (mutators raise); callers that need to mutate —
``high_girth``, ``sampling_palette_graph``, ``with_max_degree`` —
call :meth:`CSRGraphView.copy`, which returns a *real* ``nx.Graph``
built from the arrays: nodes ``0..n-1``, then the edges in canonical
order (sorted ``(u, v)`` with ``u < v``).

``graph.materialized`` reports whether the dict fallback was ever
taken; the huge-tier CI budget assertion uses it to fail if nx
sneaks back onto the kernel path.

nx internals (subgraph views, ``nx.freeze``) default-construct the
class with no arguments and then assign ``_adj``/``_node`` filter
atlases directly; a view with ``csr_adjacency is None`` therefore
behaves exactly like a plain ``nx.Graph`` — every override delegates.
"""

from __future__ import annotations

from typing import Callable, Iterator

import networkx as nx
import numpy as np

__all__ = ["CSRGraphView"]


class _LazySlot:
    """Non-data descriptor: build once, shadow via the instance dict."""

    def __init__(self, name: str, builder: Callable):
        self.name = name
        self.builder = builder

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = self.builder(obj)
        obj.__dict__[self.name] = value
        return value


class _CSRNodeView:
    """Array-backed stand-in for ``nx.NodeView`` (attr-free nodes)."""

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __contains__(self, v) -> bool:
        return isinstance(v, int) and 0 <= v < self._n

    def __getitem__(self, v):
        if v not in self:
            raise KeyError(v)
        return {}

    def __call__(self, data=False, default=None):
        if data is False:
            return self
        return self.data(data, default)

    def data(self, data=True, default=None):
        if data is False:
            return self
        fill = default if data is not True else None
        if data is True:
            return ((v, {}) for v in range(self._n))
        return ((v, fill) for v in range(self._n))

    def get(self, v, default=None):
        return {} if v in self else default

    def items(self):
        return ((v, {}) for v in range(self._n))


class _CSREdgeView:
    """Array-backed stand-in for ``nx.EdgeView`` (attr-free edges).

    Iterates the CSR upper triangle row-major — which, rows being
    sorted, is exactly lexicographically sorted ``(u, v)`` with
    ``u < v``: the canonical-payload order.
    """

    __slots__ = ("_view",)

    def __init__(self, view: "CSRGraphView"):
        self._view = view

    def _pairs(self):
        csr = self._view.csr_adjacency
        indptr, indices = csr.g_indptr, csr.g_indices
        for u in range(csr.n):
            row = indices[indptr[u]:indptr[u + 1]]
            for v in row[row > u].tolist():
                yield (u, v)

    def __len__(self) -> int:
        return self._view.csr_adjacency.g_indices.size // 2

    def __iter__(self):
        return self._pairs()

    def __contains__(self, e) -> bool:
        try:
            u, v = e
        except (TypeError, ValueError):
            return False
        return self._view.has_edge(u, v)

    def __getitem__(self, e):
        u, v = e
        if not self._view.has_edge(u, v):
            raise KeyError(e)
        return {}

    def __call__(self, nbunch=None, data=False, default=None):
        if nbunch is not None:
            # Uncommon path: delegate to a real EdgeView (materializes).
            return nx.classes.reportviews.EdgeView(self._view)(
                nbunch, data=data, default=default
            )
        if data is False:
            return self
        return self.data(data, default)

    def data(self, data=True, default=None):
        if data is False:
            return self
        fill = {} if data is True else default
        return ((u, v, fill) for u, v in self._pairs())


class _CSRDegreeView:
    """Array-backed stand-in for ``nx.DegreeView``."""

    __slots__ = ("_view",)

    def __init__(self, view: "CSRGraphView"):
        self._view = view

    def __iter__(self):
        degrees = self._view.csr_adjacency.degrees
        return iter(enumerate(degrees.tolist()))

    def __len__(self) -> int:
        return self._view.csr_adjacency.n

    def __getitem__(self, v) -> int:
        csr = self._view.csr_adjacency
        if not (isinstance(v, int) and 0 <= v < csr.n):
            raise KeyError(v)
        return int(csr.degrees[v])

    def __call__(self, nbunch=None, weight=None):
        if weight is not None:
            # Weighted degrees need edge data (materializes).
            return nx.classes.reportviews.DegreeView(self._view)(
                nbunch, weight=weight
            )
        if nbunch is None:
            return self
        if isinstance(nbunch, int):
            return self[nbunch]
        return iter((v, self[v]) for v in nbunch)


class CSRGraphView(nx.Graph):
    """An ``nx.Graph`` whose structure lives in a ``CSRAdjacency``.

    Constructed by the CSR-direct generators; every networkx code
    path keeps working (unoverridden access materializes the
    dict-of-dicts once), while the array-engine hot path never leaves
    numpy.
    """

    def __init__(self, csr=None):
        # Deliberately skips nx.Graph.__init__: _adj/_node stay lazy.
        self.graph = {}
        self.__networkx_cache__ = {}
        self.csr_adjacency = csr
        if csr is None:
            self.__dict__["_adj"] = {}
            self.__dict__["_node"] = {}

    # -- lazy dict-of-dicts fallback -----------------------------------

    def _materialize_adj(self):
        csr = self.csr_adjacency
        indptr = csr.g_indptr
        indices = csr.g_indices.tolist()
        adj = {}
        for u in range(csr.n):
            adj[u] = {
                v: {} for v in indices[indptr[u]:indptr[u + 1]]
            }
        return adj

    def _materialize_node(self):
        return {v: {} for v in range(self.csr_adjacency.n)}

    @property
    def materialized(self) -> bool:
        """True once the dict-of-dicts fallback was built."""
        return "_adj" in self.__dict__

    # -- array-backed accessors ----------------------------------------

    def __len__(self) -> int:
        csr = self.csr_adjacency
        return super().__len__() if csr is None else csr.n

    def __iter__(self) -> Iterator[int]:
        csr = self.csr_adjacency
        if csr is None:
            return super().__iter__()
        return iter(range(csr.n))

    def __contains__(self, v) -> bool:
        csr = self.csr_adjacency
        if csr is None:
            return super().__contains__(v)
        return isinstance(v, int) and 0 <= v < csr.n

    def number_of_nodes(self) -> int:
        return len(self)

    def order(self) -> int:
        return len(self)

    def number_of_edges(self, u=None, v=None) -> int:
        csr = self.csr_adjacency
        if csr is None:
            return super().number_of_edges(u, v)
        if u is None:
            return csr.g_indices.size // 2
        return int(self.has_edge(u, v))

    def size(self, weight=None):
        if weight is None:
            return self.number_of_edges()
        return super().size(weight)

    def has_node(self, v) -> bool:
        return v in self

    def has_edge(self, u, v) -> bool:
        csr = self.csr_adjacency
        if csr is None:
            return super().has_edge(u, v)
        if u not in self or v not in self:
            return False
        row = csr.g_indices[csr.g_indptr[u]:csr.g_indptr[u + 1]]
        i = np.searchsorted(row, v)
        return bool(i < row.size and row[i] == v)

    def neighbors(self, v) -> Iterator[int]:
        csr = self.csr_adjacency
        if csr is None:
            return super().neighbors(v)
        if v not in self:
            raise nx.NetworkXError(
                f"The node {v} is not in the graph."
            )
        return iter(
            csr.g_indices[csr.g_indptr[v]:csr.g_indptr[v + 1]].tolist()
        )

    @property
    def nodes(self):
        csr = self.csr_adjacency
        if csr is None:
            return nx.Graph.nodes.__get__(self)
        # One view per graph, like networkx's cached ``nodes``: callers
        # may recognize the graph's own view by identity.
        view = self.__dict__.get("_csr_nodes")
        if view is None:
            view = self.__dict__["_csr_nodes"] = _CSRNodeView(csr.n)
        return view

    @property
    def edges(self):
        if self.csr_adjacency is None:
            return nx.Graph.edges.__get__(self)
        return _CSREdgeView(self)

    @property
    def degree(self):
        if self.csr_adjacency is None:
            return nx.Graph.degree.__get__(self)
        return _CSRDegreeView(self)

    def copy(self, as_view: bool = False) -> nx.Graph:
        """A *real* ``nx.Graph`` twin (mutation-safe), built from the
        arrays: nodes ``0..n-1``, edges in canonical order."""
        if as_view or self.csr_adjacency is None:
            return super().copy(as_view=as_view)
        # Imported here: repro.exec imports the algorithm modules, and
        # they import repro.graphs.
        from repro.exec.arrays import csr_upper_edges

        us, vs = csr_upper_edges(self.csr_adjacency)
        graph = nx.Graph()
        graph.add_nodes_from(range(self.csr_adjacency.n))
        graph.add_edges_from(zip(us.tolist(), vs.tolist()))
        return graph

    # -- immutability ---------------------------------------------------

    def _frozen(self, *args, **kwargs):
        if self.csr_adjacency is None:
            raise nx.NetworkXError(
                "frozen graph can't be modified"
            )
        raise nx.NetworkXError(
            "CSR-born graph views are immutable; call .copy() for a "
            "mutable nx.Graph"
        )

    add_node = add_nodes_from = remove_node = remove_nodes_from = _frozen
    add_edge = add_edges_from = add_weighted_edges_from = _frozen
    remove_edge = remove_edges_from = clear = clear_edges = _frozen
    update = _frozen


CSRGraphView._adj = _LazySlot(
    "_adj", CSRGraphView._materialize_adj
)
CSRGraphView._node = _LazySlot(
    "_node", CSRGraphView._materialize_node
)
