"""CSR-form adjacency arrays: the primary instance representation.

A :class:`CSRAdjacency` is the struct-of-arrays form of one graph:
node labels flattened to dense indices ``0..n-1`` in sorted-label
order, with the G adjacency in compressed-sparse-row form and the
exact-distance-≤2 (G², self-free) adjacency derived lazily from it by
:func:`_square_rows`: the deduplicated ordered pairs of the closed
rows N[x], written per degree bucket into one key array and sorted
once — no Python sets and no scipy matmul.  Instances are *born* as CSR
(:mod:`repro.graphs.generators` emits them directly for the scalable
families), memoized per workload (:meth:`repro.workloads.cache.
Instance.csr` ships them prebuilt through pickling), and looked up
per graph object through a weak registry so repeated runs never
rebuild.

Everything here is plain numpy; the kernels in
:mod:`repro.exec.vectorized`, the checker fast path in
:mod:`repro.verify.checker`, and the instance cache are the
consumers.  The try-phase conflict pass and the checker's distance-2
path read only the G rows: they decide distance-2 clashes at the
common neighbours (every closed neighbourhood N[x] must be rainbow),
so a trial run and its check never derive G².  Their equivalence to
the G²/BFS definitions rests on the relay parity suites
(``tests/test_csr_parity.py``, ``tests/test_exec_vectorized.py``).
"""

from __future__ import annotations

import weakref
from typing import Tuple

import networkx as nx
import numpy as np

from repro.obs import trace as obs_trace

_EMPTY_INDPTR = np.zeros(1, dtype=np.int64)
#: Magnitudes below this convert to float64 exactly.
_FLOAT_EXACT = 2**53
_EMPTY_INDICES = np.zeros(0, dtype=np.int64)


class _IdentityIndex:
    """The label→dense-index map of an identity-labeled graph.

    CSR-born instances label nodes ``0..n-1``, so their index map is
    the identity; this stand-in answers the same Mapping-style calls
    as the dict :func:`build_csr` builds, in O(1) memory (a dict of a
    million small ints costs ~90 MB).
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __getitem__(self, label):
        if not (0 <= label < self.n):
            raise KeyError(label)
        return label

    def get(self, label, default=None):
        return label if 0 <= label < self.n else default

    def __contains__(self, label):
        return isinstance(label, int) and 0 <= label < self.n

    def __iter__(self):
        return iter(range(self.n))

    def __len__(self):
        return self.n

    def __eq__(self, other):
        if isinstance(other, _IdentityIndex):
            return self.n == other.n
        if isinstance(other, dict):
            return other == {i: i for i in range(self.n)}
        return NotImplemented

    def __reduce__(self):
        return (_IdentityIndex, (self.n,))


def _square_rows(
    n: int, indptr: np.ndarray, indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Distance-≤2 CSR rows (diagonal dropped) from distance-1 rows,
    and the number of candidate pair keys sorted to get them.

    u and w are within distance 2 iff some closed row N[x] holds both,
    so G²'s rows are the deduplicated ordered pairs of the closed
    rows.  Row x contributes ``(x, y)`` and ``(y, z)`` for distinct
    y, z ∈ N(x); its pairs ``(y, x)`` are the ``(y, x)`` that y's own
    row writes, so they are left out.  That is ``Σ d²`` keys
    ``row << b | col`` in one preallocated array, filled per degree
    bucket (the middles grouped by one argsort of the degrees, each
    bucket's rows gathered as a ``(d, k)`` matrix), then sorted in
    place and deduplicated; ``searchsorted`` reads the row bounds off
    the sorted keys.  Rows must be free of self-loops and repeats,
    as every CSR builder here makes them.  ``n ≤ 2³¹`` keeps a key
    inside int64 (a ``ValueError`` before any allocation otherwise).
    """
    if n > 1 << 31:
        raise ValueError(
            f"n={n}: the G² pair key row << b | col needs n ≤ 2³¹"
        )
    if n == 0:
        return _EMPTY_INDPTR.copy(), _EMPTY_INDICES.copy(), 0
    b = int(n - 1).bit_length()
    deg = np.diff(indptr)
    by_degree = np.argsort(deg)
    counts = np.bincount(deg)
    ends = np.cumsum(counts)
    total = int(np.dot(deg, deg))
    keys = np.empty(total, dtype=np.int64)
    pos = 0
    for d in (np.flatnonzero(counts[1:]) + 1).tolist():
        mids = by_degree[ends[d] - counts[d]:ends[d]]
        k = mids.size
        rows = indices[indptr[mids] + np.arange(d)[:, None]]
        high = rows << b
        np.bitwise_or(
            mids << b, rows, out=keys[pos:pos + d * k].reshape(d, k)
        )
        pos += d * k
        block = keys[pos:pos + d * (d - 1) * k].reshape(d, d - 1, k)
        for i in range(d):
            np.bitwise_or(high[i], rows[:i], out=block[i, :i])
            np.bitwise_or(high[i], rows[i + 1:], out=block[i, i:])
        pos += block.size
    keys.sort()  # in-place; dedup via boundary flags, not np.unique
    if total:
        keep = np.empty(keys.size, dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
        del keep
    g2_indptr = np.searchsorted(
        keys, np.arange(n + 1, dtype=np.int64) << b
    ).astype(np.int64, copy=False)
    keys &= (1 << b) - 1
    return g2_indptr, keys, total


class CSRAdjacency:
    """Dense-indexed CSR adjacency of G (and, lazily, G²).

    ``order[i]`` is the node label of dense index ``i`` (sorted label
    order — the same order every canonical payload uses; a ``range``
    for identity-labeled graphs), ``index`` the inverse map.
    ``g_indptr``/``g_indices`` is the CSR adjacency of G with sorted
    rows; ``g2_indptr``/``g2_indices`` the CSR adjacency of G²
    (distance ≤ 2, diagonal removed), derived on first touch and
    memoized — building a graph no longer pays for its square.
    ``degrees`` and ``d2_degrees`` are the per-row counts.
    ``has_selfloops`` flags graphs the kernels refuse (they fall back
    to the generator loop).
    """

    __slots__ = (
        "n",
        "order",
        "index",
        "g_indptr",
        "g_indices",
        "degrees",
        "has_selfloops",
        "_g2_indptr",
        "_g2_indices",
    )

    def __init__(
        self,
        n,
        order,
        index,
        g_indptr,
        g_indices,
        degrees=None,
        has_selfloops=False,
        g2_indptr=None,
        g2_indices=None,
    ):
        self.n = n
        self.order = order
        self.index = index
        self.g_indptr = g_indptr
        self.g_indices = g_indices
        self.degrees = (
            np.diff(g_indptr) if degrees is None else degrees
        )
        self.has_selfloops = has_selfloops
        self._g2_indptr = g2_indptr
        self._g2_indices = g2_indices

    def _ensure_square(self) -> None:
        if self._g2_indptr is None:
            with obs_trace.span("graphs.square") as sp:
                self._g2_indptr, self._g2_indices, pairs = _square_rows(
                    self.n, self.g_indptr, self.g_indices
                )
                sp.annotate(nnz=int(self._g2_indices.size), pairs=pairs)

    @property
    def g2_indptr(self) -> np.ndarray:
        self._ensure_square()
        return self._g2_indptr

    @property
    def g2_indices(self) -> np.ndarray:
        self._ensure_square()
        return self._g2_indices

    @property
    def d2_degrees(self) -> np.ndarray:
        return np.diff(self.g2_indptr)

    @property
    def has_square(self) -> bool:
        """True once the G² rows exist (derived or supplied)."""
        return self._g2_indptr is not None

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot in self.__slots__:
            setattr(self, slot, state[slot])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        m2 = (
            f"m2={self._g2_indices.size // 2}"
            if self._g2_indices is not None
            else "m2=?"
        )
        return (
            f"<CSRAdjacency n={self.n} "
            f"m={self.g_indices.size // 2} {m2}>"
        )


def square_csr(csr: CSRAdjacency) -> CSRAdjacency:
    """The G² adjacency of ``csr`` as a first-class CSR artifact.

    The result shares ``order``/``index`` with the input; its G rows
    are the input's (memoized) G² rows.  This is the array
    replacement for the set-of-sets :func:`repro.graphs.square.
    d2_neighborhoods` derivation — that one stays as the reference
    oracle, and a hypothesis suite pins their equivalence.
    """
    return CSRAdjacency(
        n=csr.n,
        order=csr.order,
        index=csr.index,
        g_indptr=csr.g2_indptr,
        g_indices=csr.g2_indices,
        has_selfloops=csr.has_selfloops,
    )


def _csr_rows(
    n: int, us: np.ndarray, vs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(g_indptr, g_indices)`` of the undirected edges ``us``/``vs``
    (dense indices, each edge listed once, no self-loops), rows
    sorted.

    One in-place sort of the fused keys ``src * n + dst`` orders the
    entries by row, then column; ``key % n`` is the column.  The keys
    are int64, so ``n² < 2⁶³`` is required.  Distinct edges give
    distinct keys, so the result does not depend on the input's edge
    order.
    """
    if n * n >= 1 << 63:
        raise ValueError(
            f"n={n}: the fused CSR sort key needs n² < 2⁶³"
        )
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    keys = np.concatenate((us * n + vs, vs * n + us))
    keys.sort()
    g_indices = keys % n
    counts = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    g_indptr = np.concatenate(
        (_EMPTY_INDPTR, np.cumsum(counts))
    ).astype(np.int64)
    return g_indptr, g_indices


def build_csr_from_edges(
    n: int, us: np.ndarray, vs: np.ndarray
) -> CSRAdjacency:
    """CSR artifact straight from edge arrays over nodes ``0..n-1``.

    The CSR-direct generators call this — no ``nx.Graph`` is ever
    constructed.  ``us``/``vs`` must be self-loop-free and duplicate
    free (undirected edges listed once, either orientation, in any
    order); that is what the generators produce.  The rows come from
    one sort of fused ``src * n + dst`` int64 keys, so ``n`` must
    satisfy ``n² < 2⁶³`` (a ``ValueError`` otherwise).
    """
    with obs_trace.span("graphs.csr"):
        g_indptr, g_indices = _csr_rows(n, us, vs)
    return CSRAdjacency(
        n=n,
        order=range(n),
        index=_IdentityIndex(n),
        g_indptr=g_indptr,
        g_indices=g_indices,
        has_selfloops=False,
    )


def _csr_from_labeled_edges(
    order, index, edge_iter, has_selfloops: bool
) -> CSRAdjacency:
    n = len(order)
    with obs_trace.span("graphs.csr"):
        rows = []
        cols = []
        for u, v in edge_iter:
            if u == v:
                continue
            rows.append(index[u])
            cols.append(index[v])
        g_indptr, g_indices = _csr_rows(n, rows, cols)
    return CSRAdjacency(
        n=n,
        order=order,
        index=index,
        g_indptr=g_indptr,
        g_indices=g_indices,
        has_selfloops=has_selfloops,
    )


def build_csr(graph: nx.Graph) -> CSRAdjacency:
    """Build the CSR artifact from an ``nx.Graph`` (compatibility
    path — CSR-born graphs carry their artifact from birth)."""
    order: Tuple = tuple(sorted(graph.nodes))
    index = {v: i for i, v in enumerate(order)}
    return _csr_from_labeled_edges(
        order,
        index,
        graph.edges,
        has_selfloops=nx.number_of_selfloops(graph) > 0,
    )


def build_csr_from_payload(nodes, edges) -> CSRAdjacency:
    """CSR artifact from a canonical ``(nodes, edges)`` payload —
    the post-pickle path of nx-born instances, no graph rebuild.
    The payload may carry self-loop edges (canonical payloads keep
    them); they are skipped and flagged like :func:`build_csr` does.
    """
    order = tuple(nodes)
    index = {v: i for i, v in enumerate(order)}
    return _csr_from_labeled_edges(
        order,
        index,
        edges,
        has_selfloops=any(u == v for u, v in edges),
    )


def csr_upper_edges(csr: CSRAdjacency):
    """The dense-index edge list of ``csr`` as ``(us, vs)`` arrays,
    upper-triangle row-major — lexicographically sorted ``u < v``,
    the canonical-payload order."""
    row_of = np.repeat(
        np.arange(csr.n, dtype=np.int64), csr.degrees
    )
    mask = csr.g_indices > row_of
    return row_of[mask], csr.g_indices[mask]


# ----------------------------------------------------------------------
# per-graph-object registry (weak: dies with the graph)

_GRAPH_CSR: "weakref.WeakKeyDictionary[nx.Graph, CSRAdjacency]" = (
    weakref.WeakKeyDictionary()
)


def csr_for_graph(graph: nx.Graph) -> CSRAdjacency:
    """The CSR artifact for a graph object, built at most once per
    object.  CSR-born graph views carry their artifact as an
    attribute; :meth:`Instance.csr` pre-seeds the weak registry, so
    cached workload instances never rebuild here."""
    born = getattr(graph, "csr_adjacency", None)
    if born is not None:
        return born
    cached = _GRAPH_CSR.get(graph)
    if cached is None:
        cached = build_csr(graph)
        _GRAPH_CSR[graph] = cached
    return cached


def register_csr(graph: nx.Graph, csr: CSRAdjacency) -> None:
    """Seed the per-graph registry with a prebuilt artifact."""
    _GRAPH_CSR[graph] = csr


# ----------------------------------------------------------------------
# segmented-row primitives (CSR rows of ragged length)

def row_any(flags: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row ``any`` over CSR-expanded boolean entries (empty rows
    are False)."""
    csum = np.concatenate(
        (np.zeros(1, dtype=np.int64),
         np.cumsum(flags, dtype=np.int64))
    )
    return (csum[indptr[1:]] - csum[indptr[:-1]]) > 0


def row_max(
    values: np.ndarray, indptr: np.ndarray, fill
) -> np.ndarray:
    """Per-row max over CSR-expanded entries; empty rows get ``fill``.

    ``np.maximum.reduceat`` treats ``starts[i] == starts[i+1]`` as a
    one-element segment, so it is only called on the strictly
    increasing starts of *non-empty* rows (a segment then ends exactly
    where the next non-empty row begins).
    """
    n = indptr.shape[0] - 1
    out = np.full(n, fill, dtype=values.dtype)
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if nonempty.size:
        out[nonempty] = np.maximum.reduceat(
            values, indptr[nonempty]
        )
    return out


def int_bits_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.congest.message.int_bits`, exact for
    any int64 payload: ``max(1, bit_length(|v|)) + (1 if v < 0)``.

    The exponent field of ``|float(v)|`` gives the bit length while
    the conversion is exact (below 2⁵³).  Above, rounding may carry a
    magnitude up to the next power of two, one bit too many, which
    the shift test takes back (``|-2⁶³|`` wraps to -2⁶³, whose shift
    is -1: its 64 bits stand).
    """
    values = np.asarray(values, dtype=np.int64)
    bits = values.astype(np.float64)
    np.abs(bits, out=bits)
    # float64 bits: sign (now 0), 11 exponent bits, 52 mantissa bits.
    bits = bits.view(np.int64)
    bits >>= 52
    bits -= 1022
    if values.size and not (
        -_FLOAT_EXACT < int(values.min()) and int(values.max()) < _FLOAT_EXACT
    ):
        bits -= (np.abs(values) >> np.maximum(bits - 1, 0)) == 0
    np.maximum(bits, 1, out=bits)
    bits += values < 0
    return bits
