"""Shared fixtures: the instance suite used across the test files."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.exec import ExecutionBackend, get_backend
from repro.graphs.generators import (
    caterpillar,
    clique_clusters,
    double_star,
    gnp,
    grid,
    random_regular,
    unit_disk,
)
from repro.graphs.instances import (
    cycle5,
    petersen,
    projective_plane_incidence,
)


def small_suite():
    """Name -> graph; small instances exercised by most algorithms."""
    return {
        "path8": nx.path_graph(8),
        "cycle5": cycle5(),
        "petersen": petersen(),
        "grid4x4": grid(4, 4),
        "rr4_20": random_regular(4, 20, seed=1),
        "gnp30": gnp(30, 0.15, seed=2),
        "double_star6": double_star(6),
        "caterpillar": caterpillar(5, 3),
        "cliques3x5": clique_clusters(3, 5, seed=3),
        "udg": unit_disk(30, 0.3, seed=4),
        "pg2_3": projective_plane_incidence(3),
    }


@pytest.fixture(scope="session")
def suite():
    return small_suite()


def suite_params():
    return sorted(small_suite())


@pytest.fixture(params=suite_params())
def suite_graph(request, suite):
    return request.param, suite[request.param]


class RecordingBackend(ExecutionBackend):
    """``reference`` with per-round records forced on.

    Keeps each run's records as ``[round_index, messages, bits,
    max_message_bits]`` rows in :attr:`runs`.  Tests use it as the
    ground-truth side of cross-engine comparisons: the plain
    ``reference`` backend (records off, the loop's metering fast path)
    and ``vectorized`` must match it exactly.
    """

    name = "reference-recording"

    def __init__(self):
        self.runs = []

    def execute(self, network, *, record_rounds=False, **kwargs):
        result = get_backend("reference").execute(
            network, record_rounds=True, **kwargs
        )
        self.runs.append(
            [
                [r.round_index, r.messages, r.bits, r.max_message_bits]
                for r in result.metrics.per_round
            ]
        )
        return result
