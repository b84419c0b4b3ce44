"""Paper-specific extremal instances.

Moore graphs of diameter 2 are the canonical hard d2-coloring inputs:
they have n = Δ²+1 nodes and G² is the complete graph K_{Δ²+1}, so a
valid d2-coloring must give *every* node a distinct color — the palette
bound Δ²+1 of Theorems 1.1/1.2 is exactly tight.  Projective-plane
incidence graphs have girth 6, so the d2-neighborhood of every node is
as large as possible (Δ² - Δ + 1 on the point side) while G² is far
from complete — dense but not a clique, the "varying sparsity" regime
of Sec. 2.1.
"""

from __future__ import annotations

import networkx as nx

from repro.graphs.generators import double_star, ensure_int_labels


def cycle5() -> nx.Graph:
    """C5: the Δ = 2 Moore graph (n = Δ² + 1 = 5)."""
    return nx.cycle_graph(5)


def petersen() -> nx.Graph:
    """Petersen graph: the Δ = 3 Moore graph (n = 10 = Δ² + 1)."""
    return ensure_int_labels(nx.petersen_graph())


def hoffman_singleton() -> nx.Graph:
    """Hoffman–Singleton graph: the Δ = 7 Moore graph (n = 50)."""
    return ensure_int_labels(nx.hoffman_singleton_graph())


def moore_graph(delta: int) -> nx.Graph:
    """The diameter-2 Moore graph of degree ``delta`` (2, 3 or 7)."""
    if delta == 2:
        return cycle5()
    if delta == 3:
        return petersen()
    if delta == 7:
        return hoffman_singleton()
    raise ValueError(
        "diameter-2 Moore graphs exist only for degree 2, 3, 7 (and "
        "possibly 57); requested degree "
        f"{delta}"
    )


def _prime_field_points(q: int):
    """Canonical representatives of PG(2, q): projective points over
    F_q, i.e. nonzero triples up to scalar, normalized so the first
    nonzero coordinate is 1."""
    points = []
    for x in range(q):
        for y in range(q):
            points.append((1, x, y))
    for y in range(q):
        points.append((0, 1, y))
    points.append((0, 0, 1))
    return points


def projective_plane_incidence(q: int) -> nx.Graph:
    """Point–line incidence graph of PG(2, q), q prime.

    Bipartite, (q² + q + 1) + (q² + q + 1) nodes, (q+1)-regular,
    girth 6.  Every two points lie on exactly one common line, so any
    two d2-neighbors on the same side share exactly one 2-path — the
    single-2-path regime that Reduce-Phase's step 2 checks for.
    """
    _validate_prime(q)
    points = _prime_field_points(q)
    count = len(points)
    graph = nx.Graph()
    graph.add_nodes_from(range(2 * count))
    # Lines have the same representation; point p is on line l iff
    # <p, l> = 0 over F_q.
    for pi, point in enumerate(points):
        for li, line in enumerate(points):
            dot = (
                point[0] * line[0]
                + point[1] * line[1]
                + point[2] * line[2]
            ) % q
            if dot == 0:
                graph.add_edge(pi, count + li)
    return graph


def _validate_prime(q: int) -> None:
    if q < 2:
        raise ValueError("q must be a prime >= 2")
    for factor in range(2, int(q**0.5) + 1):
        if q % factor == 0:
            raise ValueError(f"q must be prime; {q} = {factor}*{q // factor}")


def verification_lower_bound_tree(delta: int) -> nx.Graph:
    """The Sec. 1 instance behind the Ω(Δ) distance-3 verification
    lower bound: edge {a, b} with (n-2)/2 leaves on each endpoint.
    ``delta`` is the resulting maximum degree (leaves + 1)."""
    return double_star(delta - 1)
