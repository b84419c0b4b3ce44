"""The algorithm registry: one contract for every d2-coloring solver.

The paper's pitch is that wildly different algorithms — the improved
and basic randomized pipelines (Thm 1.1 / Cor 2.1), the deterministic
chain (Thm 1.2), the (1+ε)Δ² splitting pipeline (Thm 1.3), and the
baselines it argues against — all solve the *same* problem: produce a
valid distance-2 coloring under CONGEST bandwidth limits.  This module
states that contract once, as :class:`AlgorithmSpec`, and registers
every entry point behind a normalized ``run(graph, seed, policy)``
signature.

Everything that enumerates algorithms (the conformance harness in
:mod:`repro.conformance`, experiments E15/E18/E20, the benches, the
comparison example) iterates :data:`ALGORITHMS` instead of keeping its
own import list, so registering a new algorithm here automatically
adds it to conformance, experiments, and benchmarks.

Registering a new algorithm (see also docs/CONFORMANCE.md)::

    from repro.registry import AlgorithmSpec, register

    register(AlgorithmSpec(
        name="my-d2color",
        kind="randomized",
        entry_point=lambda graph, seed, policy: my_d2color(
            graph, seed=seed, policy=policy
        ),
        palette_bound=lambda delta: delta * delta + 1,
    ))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import networkx as nx

from repro.congest.policy import BandwidthPolicy
from repro.graphs.square import max_degree
from repro.results import ColoringResult

#: The admissible values of :attr:`AlgorithmSpec.kind`.
KINDS = ("randomized", "deterministic", "baseline")


def _always(graph: nx.Graph) -> bool:
    return True


@dataclass(frozen=True)
class AlgorithmSpec:
    """The contract one d2-coloring algorithm promises to satisfy.

    Attributes
    ----------
    name:
        Stable registry key (also used in reports and bench labels).
    kind:
        ``"randomized"`` / ``"deterministic"`` (the paper's
        algorithms) or ``"baseline"`` (oracles and strawmen).
    entry_point:
        Normalized runner ``(graph, seed, policy) -> ColoringResult``.
        Centralized oracles may ignore ``seed`` and ``policy``.
    palette_bound:
        ``delta -> int``: the number of colors the algorithm is
        allowed on a graph of maximum degree ``delta`` (e.g. Δ²+1).
        Conformance asserts ``colors_used <= palette_bound(Δ)``.
    distributed:
        True when the algorithm runs on the CONGEST simulator, so its
        :class:`~repro.congest.metrics.RunMetrics` are metered and the
        bandwidth expectations below apply.
    expects_compliant:
        For distributed specs: no message may exceed the policy's
        per-message bit budget (``metrics.compliant``).
    seed_sensitive:
        True when different seeds may legitimately produce different
        colorings.  Every spec — seeded or not — must be *repeatable*:
        the same seed always yields the identical coloring.
    supports:
        Predicate ``graph -> bool`` restricting the spec to the
        instances it is defined on (default: everything).
    tags:
        Free-form labels sweeps may filter on.  ``"heavy"`` marks
        specs whose round complexity makes them wall-clock-expensive
        on dense instances (E15 skips them; the conformance corpus,
        being tiny, still runs everything).
    description:
        One line for tables and docs.
    """

    name: str
    kind: str
    entry_point: Callable[[nx.Graph, int, Optional[BandwidthPolicy]], ColoringResult]
    palette_bound: Callable[[int], int]
    distributed: bool = True
    expects_compliant: bool = True
    seed_sensitive: bool = True
    supports: Callable[[nx.Graph], bool] = _always
    tags: frozenset = frozenset()
    description: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"kind must be one of {KINDS}; got {self.kind!r}"
            )

    # ------------------------------------------------------------------

    def run(
        self,
        graph: nx.Graph,
        seed: int = 0,
        policy: Optional[BandwidthPolicy] = None,
        backend: Any = None,
    ) -> ColoringResult:
        """Run the algorithm with the normalized signature.

        ``backend`` selects the execution engine (a name or an
        :class:`~repro.exec.base.ExecutionBackend`) for every CONGEST
        simulation inside the algorithm, installed ambiently via
        :func:`repro.exec.use_backend` so multi-phase pipelines switch
        engines without any per-phase plumbing.  ``None`` keeps the
        caller's ambient backend (default: ``reference``).
        """
        if backend is None:
            return self.entry_point(graph, seed, policy)
        from repro.exec import use_backend

        with use_backend(backend):
            return self.entry_point(graph, seed, policy)

    def run_on(
        self,
        instance,
        seed: int = 0,
        policy: Optional[BandwidthPolicy] = None,
        backend: Any = None,
    ) -> ColoringResult:
        """Run on a cached workload :class:`~repro.workloads.Instance`.

        Sweeps and examples that already hold an instance (graph built
        once, Δ / G² memoized) use this instead of re-deriving the
        graph per spec — see :mod:`repro.workloads`.  CSR-born
        instances run on their array-backed view; the nx graph is
        never materialized on this path.
        """
        return self.run(
            instance.graphlike(),
            seed=seed,
            policy=policy,
            backend=backend,
        )

    def applicable(self, graph: nx.Graph) -> bool:
        """True when the spec supports ``graph``."""
        return self.supports(graph)

    def bound_for(
        self, graph: nx.Graph, delta: Optional[int] = None
    ) -> int:
        """Palette bound instantiated for ``graph`` (pass ``delta``
        when it is already known, e.g. from a cached instance)."""
        if delta is None:
            delta = max_degree(graph)
        return self.palette_bound(delta)


# ----------------------------------------------------------------------
# registration machinery

_REGISTRY: Dict[str, AlgorithmSpec] = {}


def register(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add ``spec`` to the registry (name must be unused)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"algorithm {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a spec by name (KeyError lists the known names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None


def algorithms(
    kind: Optional[str] = None,
    distributed: Optional[bool] = None,
) -> Tuple[AlgorithmSpec, ...]:
    """Registered specs, optionally filtered by kind / distributedness."""
    out = []
    for spec in _REGISTRY.values():
        if kind is not None and spec.kind != kind:
            continue
        if distributed is not None and spec.distributed != distributed:
            continue
        out.append(spec)
    return tuple(out)


# ----------------------------------------------------------------------
# the built-in algorithms.  Entry points import lazily so that
# ``import repro.registry`` stays cheap and dependency cycles are
# impossible (the algorithm modules never import the registry).


def _run_improved(graph, seed, policy):
    from repro.core.d2color import improved_d2_color

    return improved_d2_color(graph, seed=seed, policy=policy)


def _run_basic(graph, seed, policy):
    from repro.core.d2color import basic_d2_color

    return basic_d2_color(graph, seed=seed, policy=policy)


def _run_deterministic(graph, seed, policy):
    from repro.det.det_d2color import deterministic_d2_color

    return deterministic_d2_color(graph, policy=policy)


def _run_eps_d2(graph, seed, policy):
    from repro.det.eps_d2coloring import eps_d2_color

    return eps_d2_color(graph, eps=0.5, policy=policy)


def _run_trial(graph, seed, policy):
    from repro.baselines.trial import trial_d2_color

    return trial_d2_color(graph, seed=seed, policy=policy)


def _run_trial_slack(graph, seed, policy):
    from repro.baselines.trial import trial_d2_color

    return trial_d2_color(graph, seed=seed, eps=1.0, policy=policy)


def _run_naive(graph, seed, policy):
    from repro.baselines.naive import naive_congest_d2_color

    return naive_congest_d2_color(graph, seed=seed, policy=policy)


def _run_greedy(graph, seed, policy):
    from repro.baselines.greedy import greedy_d2_coloring

    return greedy_d2_coloring(graph)


def _run_dsatur(graph, seed, policy):
    from repro.baselines.greedy import dsatur_d2_coloring

    return dsatur_d2_coloring(graph)


def _delta_sq_plus_1(delta: int) -> int:
    return delta * delta + 1


def _eps_sq_bound(eps: float) -> Callable[[int], int]:
    def bound(delta: int) -> int:
        return math.floor((1.0 + eps) * delta * delta) + 1

    return bound


register(
    AlgorithmSpec(
        name="improved-d2color",
        kind="randomized",
        entry_point=_run_improved,
        palette_bound=_delta_sq_plus_1,
        description="Improved-d2-Color (Thm 1.1): O(logΔ·log n) rounds",
    )
)
register(
    AlgorithmSpec(
        name="basic-d2color",
        kind="randomized",
        entry_point=_run_basic,
        palette_bound=_delta_sq_plus_1,
        tags=frozenset({"heavy"}),
        description="d2-Color (Cor 2.1): O(log³ n) rounds",
    )
)
register(
    AlgorithmSpec(
        name="deterministic-d2",
        kind="deterministic",
        entry_point=_run_deterministic,
        palette_bound=_delta_sq_plus_1,
        seed_sensitive=False,
        description="Deterministic chain (Thm 1.2): O(Δ²+log* n)",
    )
)
register(
    AlgorithmSpec(
        name="eps-d2-coloring",
        kind="deterministic",
        entry_point=_run_eps_d2,
        palette_bound=_eps_sq_bound(0.5),
        seed_sensitive=False,
        description="(1+ε)Δ² splitting pipeline (Thm 1.3), ε=0.5",
    )
)
register(
    AlgorithmSpec(
        name="trial",
        kind="baseline",
        entry_point=_run_trial,
        palette_bound=_delta_sq_plus_1,
        description="Random-trial strawman (Sec. 2.1), Δ²+1 palette",
    )
)
register(
    AlgorithmSpec(
        name="trial-slack",
        kind="baseline",
        entry_point=_run_trial_slack,
        palette_bound=_eps_sq_bound(1.0),
        description="Random trials with a slack 2Δ² palette (E16)",
    )
)
register(
    AlgorithmSpec(
        name="naive-g2",
        kind="baseline",
        entry_point=_run_naive,
        palette_bound=_delta_sq_plus_1,
        description="Naive G² simulation paying Θ(Δ)/round (Sec. 1)",
    )
)
register(
    AlgorithmSpec(
        name="greedy-oracle",
        kind="baseline",
        entry_point=_run_greedy,
        palette_bound=_delta_sq_plus_1,
        distributed=False,
        expects_compliant=False,
        seed_sensitive=False,
        description="Centralized first-fit oracle (ground truth)",
    )
)
register(
    AlgorithmSpec(
        name="dsatur-oracle",
        kind="baseline",
        entry_point=_run_dsatur,
        palette_bound=_delta_sq_plus_1,
        distributed=False,
        expects_compliant=False,
        seed_sensitive=False,
        description="Centralized DSATUR-on-G² oracle",
    )
)

def __getattr__(name):
    # ALGORITHMS is computed on access so that specs registered after
    # import (e.g. a new algorithm under test) are included too.
    if name == "ALGORITHMS":
        return tuple(_REGISTRY.values())
    raise AttributeError(
        f"module 'repro.registry' has no attribute {name!r}"
    )


#: Every registered spec, in registration order (live view).
ALGORITHMS: Tuple[AlgorithmSpec, ...]
