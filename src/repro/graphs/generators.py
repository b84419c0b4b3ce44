"""Workload graph generators.

All generators return graphs with consecutive integer node labels
(required by the simulator: labels double as O(log n)-bit IDs).

The scalable families — :func:`gnp_fast`, :func:`random_regular`,
:func:`power_law` — are *CSR-direct*: they sample exactly the edge
set networkx would for the seed (same ``random.Random`` stream, pinned
by tests against networkx itself), collect it in edge arrays, and
return a :class:`~repro.graphs.csrgraph.CSRGraphView` born with its
:class:`~repro.exec.arrays.CSRAdjacency` — no dict-of-dicts is ever
built on the huge-tier hot path.  :func:`gnp_fast` draws its whole
sample with numpy (bulk geometric skips); the other two replay
networkx's sampling loop in Python.  Mutating consumers
(``high_girth``, ``sampling_palette_graph``, ``with_max_degree``)
``.copy()`` the view into a real ``nx.Graph`` built from its arrays
(canonical edge order) first.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import defaultdict
from typing import List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.graphs.csrgraph import CSRGraphView


def ensure_int_labels(graph: nx.Graph) -> nx.Graph:
    """Relabel nodes to 0..n-1 (sorted order when sortable)."""
    try:
        ordering = sorted(graph.nodes)
    except TypeError:
        ordering = list(graph.nodes)
    mapping = {node: index for index, node in enumerate(ordering)}
    return nx.relabel_nodes(graph, mapping, copy=True)


def _regular_edge_set(
    degree: int, n: int, seed: int
) -> Set[Tuple[int, int]]:
    """Exact port of ``nx.random_regular_graph``'s pairing model.

    Consumes the seed's ``random.Random`` stream identically and
    builds the edge set through the same insertion sequence, so the
    sampled graph is the one networkx would return.
    """
    rng = random.Random(seed)
    if degree == 0:
        return set()

    def _suitable(edges, potential_edges):
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def _try_creation():
        edges = set()
        stubs = list(range(n)) * degree
        while stubs:
            potential_edges = defaultdict(lambda: 0)
            rng.shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and ((s1, s2) not in edges):
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not _suitable(edges, potential_edges):
                return None
            stubs = [
                node
                for node, potential in potential_edges.items()
                for _ in range(potential)
            ]
        return edges

    edges = _try_creation()
    while edges is None:
        edges = _try_creation()
    return edges


def random_regular(degree: int, n: int, seed: int = 0) -> nx.Graph:
    """Connected-ish random ``degree``-regular graph on ``n`` nodes.

    CSR-direct: returns a :class:`CSRGraphView` over the exact edge
    set networkx would sample for this seed.
    """
    if degree >= n:
        raise ValueError("degree must be < n")
    if (degree * n) % 2 != 0:
        n += 1
    if not 0 <= degree < n:
        raise nx.NetworkXError(
            "the 0 <= d < n inequality must be satisfied"
        )
    # Imported here: repro.exec imports the algorithm modules, and
    # they import repro.graphs.
    from repro.exec.arrays import build_csr_from_edges

    edges = _regular_edge_set(degree, n, seed)
    pairs = np.fromiter(
        itertools.chain.from_iterable(edges),
        dtype=np.int64,
        count=2 * len(edges),
    ).reshape(-1, 2)
    return CSRGraphView(build_csr_from_edges(n, pairs[:, 0], pairs[:, 1]))


def gnp(n: int, p: float, seed: int = 0) -> nx.Graph:
    """Erdős–Rényi G(n, p)."""
    return ensure_int_labels(nx.gnp_random_graph(n, p, seed=seed))


#: Most uniform doubles :func:`_fast_gnp_edges` draws per refill.
_GNP_CHUNK = 1 << 22

#: A skip quotient this close to an integer (relative) is recomputed
#: with ``math.log``: numpy's vector ``log`` may differ from the C
#: library's by an ulp, which must never move an ``int()``.
_LOG_GUARD = 1e-9


def _geometric_skips(r: np.ndarray, lp: float, cap: int) -> np.ndarray:
    """``int(math.log(1 - x) / lp)`` for every double ``x`` of ``r``,
    as int64, with values above ``cap`` clipped to ``cap``.

    One ``np.log`` pass; quotients within :data:`_LOG_GUARD` of an
    integer are recomputed with ``math.log`` so the result matches the
    scalar formula exactly.
    """
    q = np.log(1.0 - r)
    q /= lp
    near = np.abs(q - np.rint(q)) <= _LOG_GUARD * q
    for i in np.flatnonzero(near).tolist():
        q[i] = math.log(1.0 - float(r[i])) / lp
    np.minimum(q, cap, out=q)
    return np.floor(q).astype(np.int64)


def _fast_gnp_edges(
    n: int, p: float, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The edges ``nx.fast_gnp_random_graph(n, p, seed)`` samples
    (undirected), as ``(us, vs)`` int64 arrays in its order.

    networkx walks the lower-triangle pairs ``(v, w)``, ``w < v``, in
    row-major order and jumps ``1 + int(log(1 - r) / log(1 - p))``
    pairs per ``random.Random(seed).random()`` draw.  Here the same
    doubles come from ``np.random.RandomState`` started from the
    seeded Mersenne Twister's state, the jumps are summed into pair
    indices ``v(v-1)/2 + w`` in chunks until one passes the last
    pair, and an integer square root maps each index back to
    ``(v, w)``.
    """
    total = n * (n - 1) // 2
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    lp = math.log(1.0 - p)
    if lp == 0.0:
        # p below the double resolution of 1: the scalar loop
        # divides by zero, and so does this port.
        raise ZeroDivisionError("float division by zero")
    mt_state = random.Random(seed).getstate()[1]
    mt = np.random.RandomState()
    mt.set_state(
        ("MT19937", np.array(mt_state[:-1], dtype=np.uint32), mt_state[-1])
    )
    expected = p * total
    chunk = min(_GNP_CHUNK, int(expected + 6.0 * math.sqrt(expected)) + 16)
    pieces = []
    last = -1
    while True:
        pos = _geometric_skips(mt.random_sample(chunk), lp, total)
        pos += 1
        pos[0] += last
        # Pair indices.  Every jump is at most total + 1, so the sums
        # stay below 2·total until the first one that passes the end.
        np.cumsum(pos, out=pos)
        past = pos >= total
        if past.any():
            pieces.append(pos[: int(past.argmax())])
            break
        pieces.append(pos)
        last = int(pos[-1])
    pos = np.concatenate(pieces)
    # v = floor((1 + sqrt(1 + 8·pos)) / 2), corrected for rounding.
    v = np.floor((1.0 + np.sqrt(8.0 * pos + 1.0)) / 2.0).astype(np.int64)
    while True:
        high = v * (v - 1) // 2 > pos
        low = v * (v + 1) // 2 <= pos
        if not (high.any() or low.any()):
            break
        v -= high
        v += low
    return v, pos - v * (v - 1) // 2


def gnp_fast(n: int, p: float, seed: int = 0) -> nx.Graph:
    """Erdős–Rényi G(n, p) via the O(n + m) geometric-skip sampler.

    The sample ``nx.fast_gnp_random_graph`` draws for this seed: same
    distribution as :func:`gnp`, different sample for the same seed —
    used for the huge tier, where the O(n²) sampler takes minutes.
    CSR-direct: :func:`_fast_gnp_edges` draws the sample in bulk with
    numpy straight into edge arrays, returned as a
    :class:`CSRGraphView`; no ``nx.Graph`` is built at any size.
    """
    if p <= 0 or p >= 1:
        # Degenerate densities take networkx's gnp fallback.
        return ensure_int_labels(
            nx.fast_gnp_random_graph(n, p, seed=seed)
        )
    from repro.exec.arrays import build_csr_from_edges

    us, vs = _fast_gnp_edges(n, p, seed)
    return CSRGraphView(build_csr_from_edges(n, us, vs))


def unit_disk(
    n: int,
    radius: float,
    seed: int = 0,
    side: float = 1.0,
) -> nx.Graph:
    """Random unit-disk graph: the wireless-interference workload.

    Nodes are placed uniformly in a ``side`` x ``side`` square and
    joined when within ``radius``.  d2-coloring of this graph is the
    frequency-assignment problem from the paper's introduction
    (nodes with common neighbors interfere).
    Positions are stored as the node attribute ``pos``.
    """
    rng = random.Random(seed)
    points = [
        (rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)
    ]
    graph = nx.Graph()
    for index, point in enumerate(points):
        graph.add_node(index, pos=point)
    r_sq = radius * radius
    for i in range(n):
        xi, yi = points[i]
        for j in range(i + 1, n):
            xj, yj = points[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= r_sq:
                graph.add_edge(i, j)
    return graph


def complete_bipartite(a: int, b: int) -> nx.Graph:
    """K_{a,b}; its square is the complete graph K_{a+b}."""
    return ensure_int_labels(nx.complete_bipartite_graph(a, b))


def grid(rows: int, cols: int, torus: bool = False) -> nx.Graph:
    """2D grid (or torus) — a bounded-degree planar-ish workload."""
    graph = nx.grid_2d_graph(rows, cols, periodic=torus)
    return ensure_int_labels(graph)


def caterpillar(spine: int, legs: int) -> nx.Graph:
    """Path of ``spine`` nodes, each with ``legs`` pendant leaves."""
    graph = nx.Graph()
    for i in range(spine):
        graph.add_node(i)
        if i > 0:
            graph.add_edge(i - 1, i)
    next_id = spine
    for i in range(spine):
        for _ in range(legs):
            graph.add_node(next_id)
            graph.add_edge(i, next_id)
            next_id += 1
    return graph


def double_star(leaves_per_center: int) -> nx.Graph:
    """The paper's Ω(Δ) verification lower-bound instance (Sec. 1):
    an edge {a, b} with ``leaves_per_center`` leaves attached to both
    endpoints.  Node 0 is a, node 1 is b."""
    graph = nx.Graph()
    graph.add_edge(0, 1)
    next_id = 2
    for center in (0, 1):
        for _ in range(leaves_per_center):
            graph.add_node(next_id)
            graph.add_edge(center, next_id)
            next_id += 1
    return graph


def clique_clusters(
    num_cliques: int,
    clique_size: int,
    seed: int = 0,
    bridges: int = 1,
) -> nx.Graph:
    """Ring of cliques joined by ``bridges`` random inter-clique edges.

    Dense neighborhoods with low sparsity — the regime where the
    paper's Reduce machinery (colored helpers) matters.
    """
    rng = random.Random(seed)
    graph = nx.Graph()
    members = []
    next_id = 0
    for _ in range(num_cliques):
        nodes = list(range(next_id, next_id + clique_size))
        next_id += clique_size
        members.append(nodes)
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                graph.add_edge(u, v)
    for index in range(num_cliques):
        nxt = (index + 1) % num_cliques
        if nxt == index:
            continue
        for _ in range(bridges):
            u = rng.choice(members[index])
            v = rng.choice(members[nxt])
            if u != v:
                graph.add_edge(u, v)
    return graph


def star_of_stars(branch: int, leaves: int) -> nx.Graph:
    """A root with ``branch`` children, each with ``leaves`` leaves.

    d2-degree of the root is branch*(leaves+1); a tree workload with
    highly non-uniform d2-degrees.
    """
    graph = nx.Graph()
    graph.add_node(0)
    next_id = 1
    for _ in range(branch):
        child = next_id
        next_id += 1
        graph.add_edge(0, child)
        for _ in range(leaves):
            graph.add_edge(child, next_id)
            next_id += 1
    return graph


def random_bipartite_tasks(
    tasks: int,
    resources: int,
    per_task: int,
    seed: int = 0,
) -> nx.Graph:
    """Task/resource bipartite graph for the strong-coloring example.

    Task nodes 0..tasks-1 each use ``per_task`` random resources
    (nodes tasks..tasks+resources-1).  Strong coloring of the induced
    hypergraph = d2-coloring restricted to the task side (Sec. 1,
    "Why d2-coloring?").
    """
    rng = random.Random(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(tasks + resources))
    for task in range(tasks):
        chosen = rng.sample(range(resources), min(per_task, resources))
        for res in chosen:
            graph.add_edge(task, tasks + res)
    return graph


def connected_gnp(n: int, p: float, seed: int = 0, tries: int = 50) -> nx.Graph:
    """G(n, p) conditioned on connectivity (re-sample up to ``tries``)."""
    for attempt in range(tries):
        graph = gnp(n, p, seed=seed + attempt)
        if nx.is_connected(graph):
            return graph
    # Fall back: connect components with a path of bridges.
    components = [sorted(c) for c in nx.connected_components(graph)]
    for first, second in zip(components, components[1:]):
        graph.add_edge(first[0], second[0])
    return graph


def bipartite_double(graph: nx.Graph) -> nx.Graph:
    """Bipartite double cover of ``graph`` (tensor product with K₂).

    Every node v becomes (v, 0) and (v, 1); every edge {u, v} becomes
    {(u, 0), (v, 1)} and {(u, 1), (v, 0)}.  The cover is triangle-free
    and bipartite while preserving degrees, so d2-neighborhoods look
    very different from the base graph's — an adversarial transform
    for algorithms that implicitly assume odd cycles or density.
    """
    base = ensure_int_labels(graph)
    n = base.number_of_nodes()
    double = nx.Graph()
    double.add_nodes_from(range(2 * n))
    for u, v in base.edges:
        double.add_edge(u, n + v)
        double.add_edge(v, n + u)
    return double


def high_girth(
    degree: int,
    n: int,
    girth: int = 6,
    seed: int = 0,
    max_passes: int = 200,
) -> nx.Graph:
    """Near-regular graph with girth at least ``girth``.

    Starts from a random ``degree``-regular graph and deletes one edge
    from every remaining short cycle until none is shorter than
    ``girth``.  High girth makes every d2-neighborhood as large as the
    degree allows (each pair of d2-neighbors shares a *single* 2-path
    when girth > 4) — the regime where similarity filtering and the
    single-2-path checks of Reduce-Phase are exercised hardest.
    """
    graph = random_regular(degree, n, seed=seed).copy()
    for _ in range(max_passes):
        shortest = _shortest_cycle_edge(graph, girth)
        if shortest is None:
            break
        graph.remove_edge(*shortest)
    return graph


def _shortest_cycle_edge(graph: nx.Graph, girth: int):
    """An edge on some cycle shorter than ``girth``, or None."""
    for u, v in graph.edges:
        # A u-v path of length <= girth-2 avoiding edge {u, v} closes
        # a cycle of length <= girth-1.
        graph.remove_edge(u, v)
        try:
            length = nx.shortest_path_length(graph, u, v)
        except nx.NetworkXNoPath:
            length = None
        graph.add_edge(u, v)
        if length is not None and length + 1 < girth:
            return (u, v)
    return None


def disconnected_mix(seed: int = 0) -> nx.Graph:
    """Disjoint union of heterogeneous components plus isolated nodes.

    Components: a path, a small clique, a star, a cycle, and a couple
    of isolated vertices.  Disconnected inputs are adversarial for
    protocols that implicitly assume global connectivity (flooding
    phases, termination detection).
    """
    rng = random.Random(seed)
    parts = [
        nx.path_graph(5 + rng.randrange(3)),
        nx.complete_graph(4),
        nx.star_graph(4 + rng.randrange(3)),
        nx.cycle_graph(5),
        nx.empty_graph(2),
    ]
    return ensure_int_labels(nx.disjoint_union_all(parts))


def multileaf(hubs: int, leaves: int) -> nx.Graph:
    """Self-loop-free multileaf: a hub cycle, each hub with many leaves.

    ``hubs`` nodes form a cycle (an edge for hubs == 2, a single node
    for hubs == 1) and every hub carries ``leaves`` pendant leaves.
    Leaves of one hub are pairwise d2-adjacent *through* the hub, and
    leaves of neighboring hubs are d2-adjacent too, so the d2-degree
    is far above the d1-degree of most nodes — the double-star
    lower-bound shape generalized.
    """
    if hubs < 1:
        raise ValueError("need at least one hub")
    graph = nx.Graph()
    graph.add_nodes_from(range(hubs))
    if hubs == 2:
        graph.add_edge(0, 1)
    elif hubs > 2:
        for i in range(hubs):
            graph.add_edge(i, (i + 1) % hubs)
    next_id = hubs
    for hub in range(hubs):
        for _ in range(leaves):
            graph.add_edge(hub, next_id)
            next_id += 1
    return graph


def _powerlaw_adjacency(
    n: int, m: int, p: float, seed: int
) -> dict:
    """Exact port of ``nx.powerlaw_cluster_graph`` (Holme–Kim).

    Replicates the dict-of-dicts adjacency insertion order — the
    clustering step draws from ``G.neighbors(target)`` — and the
    set-pop order of ``_random_subset``, so the sampled graph is the
    one networkx would return for this seed.
    """
    rng = random.Random(seed)
    adj: dict = {v: {} for v in range(m)}

    def add_edge(u, v):
        adj.setdefault(u, {})[v] = None
        adj.setdefault(v, {})[u] = None

    def _random_subset(seq, count):
        targets = set()
        while len(targets) < count:
            targets.add(rng.choice(seq))
        return targets

    repeated_nodes = list(range(m))
    source = m
    while source < n:
        possible_targets = _random_subset(repeated_nodes, m)
        target = possible_targets.pop()
        add_edge(source, target)
        repeated_nodes.append(target)
        count = 1
        while count < m:
            if rng.random() < p:
                neighborhood = [
                    nbr
                    for nbr in adj[target]
                    if nbr not in adj.get(source, {})
                    and nbr != source
                ]
                if neighborhood:
                    nbr = rng.choice(neighborhood)
                    add_edge(source, nbr)
                    repeated_nodes.append(nbr)
                    count = count + 1
                    continue
            target = possible_targets.pop()
            add_edge(source, target)
            repeated_nodes.append(target)
            count = count + 1
        repeated_nodes.extend([source] * m)
        source += 1
    return adj


def power_law(
    n: int,
    attach: int = 2,
    triangle_p: float = 0.1,
    seed: int = 0,
) -> nx.Graph:
    """Power-law degree graph (Holme–Kim preferential attachment).

    Heavy-tailed degrees give a few hubs whose d2-neighborhoods span
    most of the graph while the long tail stays sparse — the skewed
    regime the uniform families (regular, G(n,p)) never produce.
    CSR-direct: returns a :class:`CSRGraphView` over the exact edge
    set networkx would grow for this seed.
    """
    if n <= attach:
        raise ValueError("n must exceed the attachment count")
    from repro.exec.arrays import build_csr_from_edges

    adj = _powerlaw_adjacency(n, attach, triangle_p, seed)
    us: List[int] = []
    vs: List[int] = []
    for u, nbrs in adj.items():
        for v in nbrs:
            if u < v:
                us.append(u)
                vs.append(v)
    return CSRGraphView(build_csr_from_edges(n, us, vs))


def weighted_gnp(
    n: int,
    p: float,
    seed: int = 0,
    max_weight: int = 16,
) -> nx.Graph:
    """G(n, p) with integer edge weights in ``1..max_weight``.

    The structure (and therefore the coloring problem) is exactly
    :func:`gnp`; the ``weight`` attribute models per-link cost for
    traffic-aware sweeps.  Weights are drawn from a seed-derived
    stream so the same seed reproduces both topology and weights.
    """
    graph = gnp(n, p, seed=seed)
    rng = random.Random(seed ^ 0x9E3779B9)
    for u, v in sorted(graph.edges):
        graph.edges[u, v]["weight"] = rng.randint(1, max_weight)
    return graph


def congested_relay(
    num_cliques: int,
    clique_size: int,
    relays: int = 1,
    seed: int = 0,
) -> nx.Graph:
    """Cliques whose inter-clique connectivity routes through a few
    relay nodes (Flin, Halldórsson & Nolin 2023, *Fast Coloring
    Despite Congested Relays*).

    Each relay attaches to one seed-chosen port node per clique, so
    ports of different cliques are d2-adjacent *only* through relays:
    every cross-clique constraint competes for the relays' O(log n)
    bandwidth — the congestion regime the 2023 paper targets.
    Cliques are nodes ``0 .. num_cliques*clique_size - 1``; relays
    follow.
    """
    if num_cliques < 1 or clique_size < 1:
        raise ValueError("need at least one clique of at least one node")
    if relays < 1:
        raise ValueError("need at least one relay")
    rng = random.Random(seed)
    graph = nx.Graph()
    members = []
    next_id = 0
    for _ in range(num_cliques):
        nodes = list(range(next_id, next_id + clique_size))
        next_id += clique_size
        members.append(nodes)
        graph.add_nodes_from(nodes)
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                graph.add_edge(u, v)
    for _ in range(relays):
        relay = next_id
        next_id += 1
        graph.add_node(relay)
        for nodes in members:
            graph.add_edge(relay, rng.choice(nodes))
    return graph


def virtualized_clique(
    virtual_nodes: int,
    parts: int = 2,
    seed: int = 0,
) -> nx.Graph:
    """A clique on *virtual* nodes, each virtualized over ``parts``
    physical nodes (the cluster-graph shape of the 2023 relay paper).

    Virtual node ``i`` is the physical path ``i*parts ..
    (i+1)*parts - 1``; every virtual edge {i, j} lands between one
    seed-chosen physical part of ``i`` and one of ``j``.  The virtual
    topology is K_{virtual_nodes} but no physical node sees it whole,
    so protocols must coordinate across the parts.
    """
    if virtual_nodes < 1 or parts < 1:
        raise ValueError("need at least one virtual node and one part")
    rng = random.Random(seed)
    graph = nx.Graph()
    for i in range(virtual_nodes):
        base = i * parts
        graph.add_node(base)
        for offset in range(1, parts):
            graph.add_edge(base + offset - 1, base + offset)
    for i in range(virtual_nodes):
        for j in range(i + 1, virtual_nodes):
            u = i * parts + rng.randrange(parts)
            v = j * parts + rng.randrange(parts)
            graph.add_edge(u, v)
    return graph


def sampling_palette_graph(
    n: int,
    degree: int = 4,
    chords: int = 8,
    seed: int = 0,
) -> nx.Graph:
    """Sparse near-regular graph with a sprinkling of random chords —
    the color-sampling regime (Halldórsson & Nolin 2021, *Superfast
    Coloring in CONGEST via Efficient Color Sampling*).

    d2-degrees stay far below the Δ²+1 palette, so random color
    sampling succeeds with high probability in O(1) tries per node;
    workload specs built on this family carry a ``palette_slack``
    parameter recording the intended palette/d2-degree ratio.
    """
    graph = random_regular(degree, n, seed=seed).copy()
    rng = random.Random(seed ^ 0x5DEECE66)
    size = graph.number_of_nodes()
    for _ in range(chords):
        u = rng.randrange(size)
        v = rng.randrange(size)
        if u != v:
            graph.add_edge(u, v)
    return graph


def with_max_degree(graph: nx.Graph, delta: int, seed: int = 0) -> nx.Graph:
    """Drop random edges until max degree <= ``delta`` (workload trim)."""
    rng = random.Random(seed)
    graph = graph.copy()
    heavy = [v for v, d in graph.degree if d > delta]
    while heavy:
        node = heavy.pop()
        while graph.degree[node] > delta:
            nbr = rng.choice(list(graph.neighbors(node)))
            graph.remove_edge(node, nbr)
        heavy = [v for v, d in graph.degree if d > delta]
    return graph
