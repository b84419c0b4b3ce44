"""Unified workload subsystem: declarative corpus + cached instances.

``repro.workloads`` is the single place the repository's graph
workloads live:

- :mod:`repro.workloads.spec` — the declarative :class:`WorkloadSpec`
  registry (name, family, tags, frozen parameter point, seedable lazy
  builder);
- :mod:`repro.workloads.corpus` — the built-in corpus: the paper's
  regimes, the degenerate/adversarial shapes, the large tier, and the
  related-work families (color sampling 2021, congested relays 2023);
- :mod:`repro.workloads.cache` — the content-addressed
  :class:`InstanceCache` memoizing built graphs and their expensive
  derived artifacts (Δ, the CSR rows of G and G²) so they are
  computed once and shared across every spec × backend × seed cell.

See ``docs/WORKLOADS.md``.
"""

from repro.workloads.cache import (
    CacheStats,
    Instance,
    InstanceCache,
    canonical_nodes_edges,
    install_prebuilt,
    instance_cache,
)
from repro.workloads.spec import (
    WorkloadSpec,
    adhoc,
    get_workload,
    has_workload,
    is_registered_spec,
    params_key,
    register_workload,
    workload,
    workload_names,
    workloads,
)

# Importing the corpus registers the built-in workloads.
from repro.workloads.corpus import (  # noqa: E402
    build_corpus,
    build_large_corpus,
    corpus_names,
)

__all__ = [
    "CacheStats",
    "Instance",
    "InstanceCache",
    "WorkloadSpec",
    "adhoc",
    "build_corpus",
    "build_large_corpus",
    "canonical_nodes_edges",
    "corpus_names",
    "get_workload",
    "has_workload",
    "install_prebuilt",
    "instance_cache",
    "is_registered_spec",
    "params_key",
    "register_workload",
    "workload",
    "workload_names",
    "workloads",
]


def __getattr__(name):
    if name == "WORKLOADS":
        from repro.workloads import spec as _spec

        return _spec.WORKLOADS
    raise AttributeError(
        f"module 'repro.workloads' has no attribute {name!r}"
    )
