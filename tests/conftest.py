"""Shared fixtures: the instance suite used across the test files."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.constants import Constants
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
    hoffman_singleton,
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


#: Few initial trials, so many nodes are still live when the Reduce
#: ladder starts and its queries, checks and proposals all run.
_SHORT_TRIALS = Constants.practical().scaled(c0=0.5)

#: Every live node active in every phase and the query probability
#: at its cap: many queries are accepted, checked, forwarded and
#: proposed, and the ladder itself colors the last nodes.
_BUSY_LADDER = _SHORT_TRIALS.scaled(act_c=4.0, query_c=16.0)

#: ``basic`` cells stop here: past the ladder, inside final-reduce.
LADDER_BASIC_MAX_ROUNDS = 800


def ladder_cells():
    """Name -> ``(graph, seed, driver kwargs)`` of runs whose Reduce
    ladder (Sec. 2.2) is non-empty and has live nodes.

    Hoffman–Singleton (Δ = 7, G² complete on Δ²+1 nodes) and PG(2,7)
    incidence (n = 114, Δ = 8) are Δ²-tight; the random 7-regular
    graph on 50 nodes has 4-cycles and triangles, so the XOR lottery
    sees duplicate routes and direct-vs-relayed ties.
    """
    hs = hoffman_singleton()
    pg7 = projective_plane_incidence(7)
    rr7 = random_regular(7, 50, seed=1)
    return {
        "hs-s0": (hs, 0, {}),
        "hs-s1": (hs, 1, {}),
        "hs-short-s0": (hs, 0, {"constants": _SHORT_TRIALS}),
        "hs-busy-s0": (hs, 0, {"constants": _BUSY_LADDER}),
        "hs-sampled-s0": (hs, 0, {"force_exact_similarity": False}),
        "hs-sampled-short-s3": (
            hs, 3,
            {"force_exact_similarity": False, "constants": _SHORT_TRIALS},
        ),
        "pg7-s0": (pg7, 0, {}),
        "pg7-short-s2": (pg7, 2, {"constants": _SHORT_TRIALS}),
        "rr7-short-s0": (rr7, 0, {"constants": _SHORT_TRIALS}),
    }
