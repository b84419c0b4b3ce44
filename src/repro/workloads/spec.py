"""The declarative workload registry.

A :class:`WorkloadSpec` names one graph family instance — a seedable,
lazy builder plus its frozen parameter point — and the registry makes
it addressable everywhere by name: conformance corpora, sweep grids,
shard manifests, benches, and examples all reference workloads by key
instead of embedding graphs.

This supersedes the old ``Scenario`` records (see :func:`adhoc` for
their constructor shape) and the ad-hoc instance lists that used to
live in ``repro.graphs.instances``.

Registering a workload (see also docs/WORKLOADS.md)::

    from repro.workloads import WorkloadSpec, register_workload

    register_workload(WorkloadSpec(
        name="gnp64-dense",
        family="gnp",
        builder=lambda seed, n, p: gnp(n, p, seed=seed),
        params=(("n", 64), ("p", 0.3)),
        tags=frozenset({"random", "dense"}),
        n_bound=64,
    ))

Builders must be *deterministic in the seed*: the same ``(name,
params, seed)`` triple always yields the identical graph.  That
contract is what lets :class:`~repro.workloads.cache.InstanceCache`
content-address built instances and lets shard manifests reference
workloads by key while still merging byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Tuple,
)

import networkx as nx

#: Canonical frozen form of a parameter point: sorted (key, value)
#: pairs.  Hashable, so it can be part of cache keys.
ParamsKey = Tuple[Tuple[str, Any], ...]


def params_key(params: Any = ()) -> ParamsKey:
    """Canonicalize a params mapping / pair sequence to sorted pairs."""
    if isinstance(params, dict):
        items = params.items()
    else:
        items = tuple(params)
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class WorkloadSpec:
    """One named, seedable workload: a graph family at a parameter point.

    Attributes
    ----------
    name:
        Stable registry key (also the scenario label in sweeps/reports).
    family:
        The generator family this instance belongs to ("gnp",
        "moore", "relay", ...) — sweeps group and filter on it.
    builder:
        ``(seed, **params) -> nx.Graph``, deterministic in ``seed``.
    params:
        The frozen parameter point, as canonical sorted pairs (use
        :func:`params_key` or pass a dict to :func:`workload`).
    tags:
        Free-form labels ("corpus", "large", "adversarial", ...).
        The standard conformance corpus is the ``"corpus"``-tagged
        slice, the slow tier the ``"large"``-tagged one.
    n_bound / delta_bound:
        Declared upper bounds on node count / max degree that every
        built graph promises to respect (``None``: no promise).
        Property-tested in ``tests/test_workloads.py``.
    description:
        One line for tables and docs.
    """

    name: str
    family: str
    builder: Callable[..., nx.Graph]
    params: ParamsKey = ()
    tags: FrozenSet[str] = frozenset()
    n_bound: Optional[int] = None
    delta_bound: Optional[int] = None
    description: str = ""

    def param_dict(self) -> Dict[str, Any]:
        """The parameter point as a plain dict."""
        return dict(self.params)

    def graph(self, seed: int = 0) -> nx.Graph:
        """Build the instance for ``seed`` (deterministic)."""
        return self.builder(seed, **self.param_dict())


def workload(
    name: str,
    family: str,
    builder: Callable[..., nx.Graph],
    params: Any = (),
    *tags: str,
    n_bound: Optional[int] = None,
    delta_bound: Optional[int] = None,
    description: str = "",
) -> WorkloadSpec:
    """Convenience constructor: dict params, varargs tags."""
    return WorkloadSpec(
        name=name,
        family=family,
        builder=builder,
        params=params_key(params),
        tags=frozenset(tags),
        n_bound=n_bound,
        delta_bound=delta_bound,
        description=description,
    )


def adhoc(
    name: str,
    build: Callable[[int], nx.Graph],
    tags: Any = frozenset(),
    family: str = "adhoc",
) -> WorkloadSpec:
    """Wrap a bare ``seed -> graph`` callable as an (unregistered)
    spec — the old ``Scenario`` constructor shape."""
    return WorkloadSpec(
        name=name,
        family=family,
        builder=lambda seed: build(seed),
        tags=frozenset(tags),
    )


# ----------------------------------------------------------------------
# registration machinery

_REGISTRY: Dict[str, WorkloadSpec] = {}


def register_workload(
    spec: WorkloadSpec, replace_existing: bool = False
) -> WorkloadSpec:
    """Add ``spec`` to the registry (name must be unused)."""
    if spec.name in _REGISTRY and not replace_existing:
        raise ValueError(f"workload {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_workload(name: str) -> WorkloadSpec:
    """Look up a spec by name (KeyError lists the known names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; registered: "
            f"{sorted(_REGISTRY)}"
        ) from None


def has_workload(name: str) -> bool:
    return name in _REGISTRY


def is_registered_spec(scenario: Any) -> bool:
    """True when ``scenario`` *is* the registered workload of its
    name (not merely a namesake ad-hoc scenario or a modified copy).

    This single definition decides everywhere — the conformance
    runner, ``grid_cells`` — whether a scenario travels as a workload
    key (cache-shared) or as an embedded node/edge payload.
    """
    name = getattr(scenario, "name", None)
    return name in _REGISTRY and _REGISTRY[name] is scenario


def workloads(*tags: str, family: Optional[str] = None) -> Tuple[WorkloadSpec, ...]:
    """Registered specs carrying *all* of ``tags``, in registration
    order, optionally restricted to one ``family``."""
    want = frozenset(tags)
    out: List[WorkloadSpec] = []
    for spec in _REGISTRY.values():
        if family is not None and spec.family != family:
            continue
        if want <= spec.tags:
            out.append(spec)
    return tuple(out)


def workload_names(*tags: str) -> List[str]:
    """Names of :func:`workloads`, in registration order."""
    return [spec.name for spec in workloads(*tags)]


def __getattr__(name):
    # WORKLOADS is computed on access so that specs registered after
    # import are included too (same idiom as repro.registry).
    if name == "WORKLOADS":
        return tuple(_REGISTRY.values())
    raise AttributeError(
        f"module 'repro.workloads.spec' has no attribute {name!r}"
    )


#: Every registered spec, in registration order (live view).
WORKLOADS: Tuple[WorkloadSpec, ...]
