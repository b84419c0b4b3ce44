"""The built-in workload corpus, registered declaratively.

Three slices, selected by tag:

``"corpus"``
    The standard conformance corpus — the paper's regimes (regular,
    G(n,p), dense clique clusters, Moore graphs where Δ²+1 is tight)
    plus degenerate and adversarial shapes, plus the related-work
    families: power-law and weighted G(n,p), color-sampling instances
    (Halldórsson & Nolin 2021), and congested-relay /
    virtualized-clique instances (Flin, Halldórsson & Nolin 2023).
    Everything is small enough that the full registry × corpus product
    runs in seconds.
``"large"``
    Scale-ups to n in the hundreds/thousands — the ``slow`` tier,
    swept weekly in CI through shard manifests.
``"huge"``
    Opt-in only (never part of a default corpus): G(n, p) at n in the
    several-thousands for throughput work.

Plus ``"named"`` — the extremal instances of
:mod:`repro.graphs.instances` (Moore graphs, projective planes) — and
``"showcase"`` — the head-to-head set ``examples/compare_algorithms``
runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.graphs.generators import (
    bipartite_double,
    clique_clusters,
    congested_relay,
    disconnected_mix,
    double_star,
    gnp,
    gnp_fast,
    grid,
    high_girth,
    multileaf,
    power_law,
    random_regular,
    sampling_palette_graph,
    virtualized_clique,
    weighted_gnp,
    with_max_degree,
)
from repro.graphs.instances import (
    cycle5,
    hoffman_singleton,
    petersen,
    projective_plane_incidence,
)
from repro.workloads.spec import (
    WorkloadSpec,
    register_workload,
    workload,
    workloads,
)


def _w(*args, **kwargs) -> WorkloadSpec:
    return register_workload(workload(*args, **kwargs))


# -- degenerate shapes --------------------------------------------------

import networkx as nx  # noqa: E402 - used only by the tiny builders below

_w(
    "path16", "path", lambda seed, n: nx.path_graph(n), {"n": 16},
    "corpus", "degenerate", "sparse", n_bound=16, delta_bound=2,
    seed_free=True,
)
_w(
    "star13", "star", lambda seed, leaves: nx.star_graph(leaves),
    {"leaves": 12},
    "corpus", "degenerate", "tree", n_bound=13, delta_bound=12,
    seed_free=True,
)
_w(
    "singleton", "empty", lambda seed, n: nx.empty_graph(n), {"n": 1},
    "corpus", "degenerate", n_bound=1, delta_bound=0,
    seed_free=True,
)
_w(
    "edgeless8", "empty", lambda seed, n: nx.empty_graph(n), {"n": 8},
    "corpus", "degenerate", "disconnected", n_bound=8, delta_bound=0,
    seed_free=True,
)
_w(
    "double-star6", "double-star",
    lambda seed, leaves: double_star(leaves), {"leaves": 6},
    "corpus", "degenerate", "tree", n_bound=14, delta_bound=7,
    seed_free=True,
)

# -- the paper's core regimes -------------------------------------------

_w(
    "cycle5", "moore", lambda seed: cycle5(), (),
    "corpus", "moore", "tight", "named", "showcase",
    n_bound=5, delta_bound=2,
    description="C5: the Δ=2 Moore graph; G² complete",
    seed_free=True,
)
_w(
    "petersen", "moore", lambda seed: petersen(), (),
    "corpus", "moore", "tight", "named", "showcase",
    n_bound=10, delta_bound=3,
    description="Petersen: the Δ=3 Moore graph; G² complete",
    seed_free=True,
)
_w(
    "rr4_24", "regular",
    lambda seed, degree, n: random_regular(degree, n, seed=seed),
    {"degree": 4, "n": 24},
    "corpus", "regular", n_bound=24, delta_bound=4,
)
_w(
    "gnp24", "gnp", lambda seed, n, p: gnp(n, p, seed=seed),
    {"n": 24, "p": 0.18},
    "corpus", "random", n_bound=24,
)
_w(
    "cliques3x4", "cliques",
    lambda seed, cliques, size: clique_clusters(cliques, size, seed=seed),
    {"cliques": 3, "size": 4},
    "corpus", "dense", n_bound=12, delta_bound=5,
)
_w(
    "grid4x5", "grid", lambda seed, rows, cols: grid(rows, cols),
    {"rows": 4, "cols": 5},
    "corpus", "planar", n_bound=20, delta_bound=4,
    seed_free=True,
)

# -- adversarial shapes -------------------------------------------------

_w(
    "bipartite-double-petersen", "bipartite-double",
    lambda seed: bipartite_double(petersen()), (),
    "corpus", "adversarial", "bipartite", n_bound=20, delta_bound=3,
    seed_free=True,
)
_w(
    "high-girth3_24", "high-girth",
    lambda seed, degree, n, girth: high_girth(
        degree, n, girth=girth, seed=seed
    ),
    {"degree": 3, "n": 24, "girth": 6},
    "corpus", "adversarial", "sparse", n_bound=24, delta_bound=3,
)
_w(
    "disconnected-mix", "disconnected",
    lambda seed: disconnected_mix(seed=seed), (),
    "corpus", "adversarial", "disconnected", n_bound=25, delta_bound=6,
)
_w(
    "multileaf4x5", "multileaf",
    lambda seed, hubs, leaves: multileaf(hubs, leaves),
    {"hubs": 4, "leaves": 5},
    "corpus", "adversarial", "tree", n_bound=24, delta_bound=7,
    seed_free=True,
)

# -- related-work families (2021 color sampling, 2023 relays) -----------

_w(
    "powerlaw24", "powerlaw",
    lambda seed, n, attach: power_law(n, attach=attach, seed=seed),
    {"n": 24, "attach": 2},
    "corpus", "powerlaw", "skewed", n_bound=24,
    description="Holme–Kim power-law: hub-skewed d2-degrees",
)
_w(
    "weighted-gnp24", "weighted-gnp",
    lambda seed, n, p, max_weight: weighted_gnp(
        n, p, seed=seed, max_weight=max_weight
    ),
    {"n": 24, "p": 0.15, "max_weight": 16},
    "corpus", "random", "weighted", n_bound=24,
    description="G(n,p) with seed-deterministic edge weights",
)
_w(
    "relay3x4", "relay",
    lambda seed, cliques, size, relays: congested_relay(
        cliques, size, relays=relays, seed=seed
    ),
    {"cliques": 3, "size": 4, "relays": 2},
    "corpus", "relay", "dense", n_bound=14, delta_bound=5,
    description="Congested relays (FHN 2023): cliques joined only "
    "through relay nodes",
)
_w(
    "virtual-clique5x3", "virtual-clique",
    lambda seed, virtual, parts: virtualized_clique(
        virtual, parts=parts, seed=seed
    ),
    {"virtual": 5, "parts": 3},
    "corpus", "relay", "virtual", n_bound=15, delta_bound=6,
    description="K5 virtualized over 3-node paths (FHN 2023)",
)
_w(
    "sampling-slack24", "sampling",
    lambda seed, n, degree, chords, palette_slack: sampling_palette_graph(
        n, degree=degree, chords=chords, seed=seed
    ),
    {"n": 24, "degree": 4, "chords": 8, "palette_slack": 2.0},
    "corpus", "sampling", "sparse", n_bound=24, delta_bound=12,
    description="Color-sampling regime (HN 2021): d2-degree far "
    "below the Δ²+1 palette",
)

# -- the large (slow) tier ----------------------------------------------

_w(
    "rr4-2048", "regular",
    lambda seed, degree, n: random_regular(degree, n, seed=seed),
    {"degree": 4, "n": 2048},
    "large", "regular", n_bound=2048, delta_bound=4,
)
_w(
    "gnp1500-sparse", "gnp",
    lambda seed, n, p: gnp(n, p, seed=seed),
    {"n": 1500, "p": 2.5 / 1500},
    "large", "random", "sparse", n_bound=1500,
)
_w(
    "grid40x50", "grid", lambda seed, rows, cols: grid(rows, cols),
    {"rows": 40, "cols": 50},
    "large", "planar", n_bound=2000, delta_bound=4,
    seed_free=True,
)
_w(
    "cliques64x6", "cliques",
    lambda seed, cliques, size: clique_clusters(cliques, size, seed=seed),
    {"cliques": 64, "size": 6},
    "large", "dense", n_bound=384, delta_bound=7,
)
_w(
    "multileaf48x40", "multileaf",
    lambda seed, hubs, leaves: multileaf(hubs, leaves),
    {"hubs": 48, "leaves": 40},
    "large", "adversarial", "tree", n_bound=1968, delta_bound=42,
    seed_free=True,
)
_w(
    "powerlaw-600", "powerlaw",
    lambda seed, n, attach, delta_cap: with_max_degree(
        power_law(n, attach=attach, seed=seed), delta_cap, seed=seed
    ),
    {"n": 600, "attach": 3, "delta_cap": 48},
    "large", "powerlaw", "skewed", n_bound=600, delta_bound=48,
)
_w(
    "relay40x8", "relay",
    lambda seed, cliques, size, relays: congested_relay(
        cliques, size, relays=relays, seed=seed
    ),
    {"cliques": 40, "size": 8, "relays": 4},
    "large", "relay", "dense", n_bound=324, delta_bound=40,
)
_w(
    "weighted-gnp800", "weighted-gnp",
    lambda seed, n, p, max_weight: weighted_gnp(
        n, p, seed=seed, max_weight=max_weight
    ),
    {"n": 800, "p": 3.0 / 800, "max_weight": 16},
    "large", "random", "weighted", n_bound=800,
)

# -- huge tier: opt-in only (never in a default corpus) -----------------

_w(
    "gnp-huge-4096", "gnp",
    lambda seed, n, p: gnp(n, p, seed=seed),
    {"n": 4096, "p": 2.5 / 4096},
    "huge", "random", "sparse", n_bound=4096,
    description="Huge sparse G(n,p) for throughput work (opt-in)",
)
_w(
    "gnp-huge-16384", "gnp",
    lambda seed, n, p: gnp_fast(n, p, seed=seed),
    {"n": 16384, "p": 2.5 / 16384},
    "huge", "random", "sparse", n_bound=16384,
    description="Huge sparse G(n,p), n=2^14 — the vectorized engine's "
    "home regime (opt-in)",
)
_w(
    "rr4-huge-16384", "regular",
    lambda seed, degree, n: random_regular(degree, n, seed=seed),
    {"degree": 4, "n": 16384},
    "huge", "regular", n_bound=16384, delta_bound=4,
    description="Huge 4-regular graph for vectorized throughput work "
    "(opt-in)",
)
_w(
    "gnp-huge-65536", "gnp",
    lambda seed, n, p: gnp_fast(n, p, seed=seed),
    {"n": 65536, "p": 2.0 / 65536},
    "huge", "random", "sparse", n_bound=65536,
    description="Huge sparse G(n,p), n=2^16 — pushes toward the "
    "related-work n≈10⁵ regime (opt-in)",
)
_w(
    "gnp-huge-262144", "gnp",
    lambda seed, n, p: gnp_fast(n, p, seed=seed),
    {"n": 262144, "p": 2.0 / 262144},
    "huge", "random", "sparse", n_bound=262144,
    description="Huge sparse G(n,p), n=2^18 — kernel-only territory: "
    "plan-driven runs never build Python nodes (opt-in)",
)
_w(
    "gnp-huge-1048576", "gnp",
    lambda seed, n, p: gnp_fast(n, p, seed=seed),
    {"n": 1048576, "p": 2.0 / 1048576},
    "huge", "random", "sparse", n_bound=1048576,
    description="Huge sparse G(n,p), n=2^20 — the 10⁶-node scaling "
    "target; only sweepable through the vectorized kernels (opt-in)",
)

# -- named extremal instances (repro.graphs.instances) -----------------

_w(
    "hoffman-singleton", "moore",
    lambda seed: hoffman_singleton(), (),
    "named", "moore", "tight", "showcase", n_bound=50, delta_bound=7,
    description="Hoffman–Singleton: the Δ=7 Moore graph",
    seed_free=True,
)
_w(
    "pg2_2", "projective",
    lambda seed, q: projective_plane_incidence(q), {"q": 2},
    "named", "girth6", n_bound=14, delta_bound=3,
    seed_free=True,
)
_w(
    "pg2_3", "projective",
    lambda seed, q: projective_plane_incidence(q), {"q": 3},
    "named", "girth6", n_bound=26, delta_bound=4,
    seed_free=True,
)
_w(
    "pg2_5", "projective",
    lambda seed, q: projective_plane_incidence(q), {"q": 5},
    "named", "girth6", n_bound=62, delta_bound=6,
    seed_free=True,
)
_w(
    "rr8-64", "regular",
    lambda seed, degree, n: random_regular(degree, n, seed=seed),
    {"degree": 8, "n": 64},
    "showcase", "regular", n_bound=64, delta_bound=8,
)


# ----------------------------------------------------------------------
# corpus views (the API the conformance shim re-exports)


def build_corpus(
    extra: Sequence[WorkloadSpec] = (),
) -> List[WorkloadSpec]:
    """The standard conformance corpus (the ``"corpus"`` tag slice),
    optionally extended with ``extra`` ad-hoc specs."""
    return list(workloads("corpus")) + list(extra)


def build_large_corpus(
    extra: Sequence[WorkloadSpec] = (),
) -> List[WorkloadSpec]:
    """The ``slow``-tier corpus (the ``"large"`` tag slice)."""
    return list(workloads("large")) + list(extra)


def corpus_names(
    corpus: Optional[Sequence[WorkloadSpec]] = None,
) -> List[str]:
    """Names in corpus order (stable pytest parametrization ids)."""
    return [s.name for s in (corpus or build_corpus())]
