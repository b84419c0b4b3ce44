"""Differential conformance harness for the algorithm registry.

``repro.conformance`` states the one contract every registered
d2-coloring algorithm must satisfy and checks it on a shared corpus:

- the corpus itself lives in :mod:`repro.workloads` (the ``"corpus"``
  tag slice of the declarative workload registry — regular, random,
  dense, Moore-tight, degenerate, adversarial, and the related-work
  families), re-exported here;
- :mod:`repro.conformance.runner` — the differential runner executing
  every :data:`repro.registry.ALGORITHMS` spec on every applicable
  scenario through one sweep grid, validating with
  :mod:`repro.verify.checker` against the cached per-instance G² CSR
  rows and metering bandwidth via :mod:`repro.congest.metrics`.

Quick sweep::

    from repro.conformance import run_conformance

    report = run_conformance()
    assert report.ok, report.explain()
"""

from repro.conformance.runner import (
    ConformanceRecord,
    ConformanceReport,
    coloring_fingerprint,
    evaluate_pair,
    run_conformance,
)
from repro.workloads import build_corpus, build_large_corpus, corpus_names

__all__ = [
    "ConformanceRecord",
    "ConformanceReport",
    "build_corpus",
    "build_large_corpus",
    "coloring_fingerprint",
    "corpus_names",
    "evaluate_pair",
    "run_conformance",
]
