"""The vectorized array engine: kernels, fallbacks, CSR artifacts.

`test_backend_equivalence.py` pins ``vectorized ≡ reference`` over
the registry × corpus product; this module drills into the engine
itself — exact parity on the awkward paths (round cutoffs, timeout
fast-forwards, precoloring, the end state written into programs), the
automatic generator-loop fallback for runs a kernel cannot replay, and
the CSR adjacency artifact the kernels consume.
"""

import dataclasses
import pickle
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.luby import (
    LubyDistanceKProgram,
    _all_decided,
    check_distance_k_mis,
    luby_distance_k_mis,
)
from repro.baselines.trial import TrialProgram, trial_d2_color
from repro.congest.errors import (
    BandwidthExceededError,
    NonterminationError,
)
from repro.congest.message import int_bits
from repro.congest.network import Network, UniformInputs
from repro.congest.policy import BandwidthMode, BandwidthPolicy
from repro.core import sampling
from repro.core.finish import FINISH_PHASE_ROUNDS
from repro.core.reduce import REDUCE_PHASE_ROUNDS
from repro.core.d2color import (
    RandomizedD2Program,
    basic_d2_color,
    improved_d2_color,
)
from repro.core.trying import all_colored
from repro.det.color_reduction import (
    ColorReductionProgram,
    color_reduction_d2,
)
from repro.det.g_coloring import prime_between
from repro.det.linial import (
    LinialProgram,
    linial_d2_coloring,
    linial_g_coloring,
)
from repro.det.locally_iterative import LocallyIterativeProgram
from repro.det.part_d2coloring import PartLocallyIterativeD2
from repro.graphs.instances import hoffman_singleton
from repro.exec import get_backend, use_backend, vectorized
from repro.exec.base import ExecutionBackend
from repro.obs import NullRecorder, use_recorder
from repro.util.primes import bertrand_prime
from repro.exec.arrays import (
    build_csr,
    csr_for_graph,
    int_bits_array,
    row_any,
    row_max,
)
from repro.exec.vectorized import kernel_coverage
from repro.workloads.cache import InstanceCache

from conftest import LADDER_BASIC_MAX_ROUNDS, ladder_cells


def _metrics_tuple(metrics):
    return (
        metrics.rounds,
        metrics.total_messages,
        metrics.total_bits,
        metrics.max_message_bits,
        metrics.budget_bits,
        metrics.violations,
        metrics.worst_violation_bits,
    )


def _graphs():
    disconnected = nx.disjoint_union(
        nx.cycle_graph(5), nx.path_graph(4)
    )
    return {
        "petersen": nx.petersen_graph(),
        "gnp24": nx.gnp_random_graph(24, 0.2, seed=11),
        "star": nx.star_graph(6),
        "edgeless": nx.empty_graph(5),
        "singleton": nx.path_graph(1),
        "disconnected": disconnected,
    }


GRAPHS = _graphs()


def _trial_network(graph, seed, policy=None, kind="dict", **data):
    """A :class:`TrialProgram` network whose nodes all get ``{palette:
    Δ²+1, **data}``: one dict per node (``kind="dict"``) or one shared
    :class:`UniformInputs` payload (``kind="uniform"``)."""
    delta = max((d for _, d in graph.degree), default=0)
    payload = {"palette": delta * delta + 1, **data}
    if kind == "uniform":
        inputs = UniformInputs(graph.nodes, payload)
    else:
        inputs = {v: dict(payload) for v in graph.nodes}
    return Network(
        graph, TrialProgram, seed=seed, policy=policy, inputs=inputs
    )


def _first_input(network):
    """The input of the network's first node (in plan order)."""
    return network._inputs.get(network.plan().order[0])


def _with_input(network, **changes):
    """A factory of copies of ``network`` whose every node gets its
    first node's input with ``changes`` applied."""
    data = dict(_first_input(network), **changes)
    return lambda: Network(
        network.graph, network.program_factory, seed=network._seed,
        policy=network.policy, delta=network.delta,
        inputs={v: data for v in network.graph},
    )


def _luby_network(graph, seed, k=2, policy=None):
    inputs = {v: {"k": k} for v in graph.nodes}
    return Network(
        graph,
        LubyDistanceKProgram,
        seed=seed,
        policy=policy,
        inputs=inputs,
    )


def _run_pair(make_network, backend="vectorized", **run_kwargs):
    ref_net = make_network()
    vec_net = make_network()
    ref = ref_net.run(backend="reference", **run_kwargs)
    vec = vec_net.run(backend=backend, **run_kwargs)
    return (ref_net, ref), (vec_net, vec)


def _assert_trial_parity(make_network, **run_kwargs):
    (ref_net, ref), (vec_net, vec) = _run_pair(
        make_network, **run_kwargs
    )
    assert vec.outputs == ref.outputs
    assert vec.stopped_early == ref.stopped_early
    assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
    for node in ref_net.programs:
        rp, vp = ref_net.programs[node], vec_net.programs[node]
        assert vp.color == rp.color, node
        assert vp.phases_tried == rp.phases_tried, node
        assert vp.nbr_colors == rp.nbr_colors, node


def _assert_luby_parity(make_network, **run_kwargs):
    (ref_net, ref), (vec_net, vec) = _run_pair(
        make_network, **run_kwargs
    )
    assert vec.outputs == ref.outputs
    assert vec.stopped_early == ref.stopped_early
    assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
    for node in ref_net.programs:
        rp, vp = ref_net.programs[node], vec_net.programs[node]
        assert vp.state == rp.state, node
        assert vp.phases == rp.phases, node


class TestKernelCoverage:
    def test_trial_and_luby_have_kernels(self):
        coverage = kernel_coverage()
        assert "TrialProgram" in coverage
        assert "LubyDistanceKProgram" in coverage

    def test_registry_spec_names_are_keys(self):
        # Coverage is queryable by registry spec name too, so tooling
        # (e.g. the compare_algorithms fallback warning) need not map
        # spec -> program class itself.
        coverage = kernel_coverage()
        for spec_name in (
            "trial",
            "trial-slack",
            "deterministic-d2",
            "eps-d2-coloring",
            "improved-d2color",
            "basic-d2color",
        ):
            assert spec_name in coverage, spec_name


class _TrialKernelCases:
    """Trial-kernel parity cases run once per input kind
    (:func:`_trial_network`'s ``kind``)."""

    KIND = "dict"

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_track_parity(self, name, seed):
        _assert_trial_parity(
            lambda: _trial_network(
                GRAPHS[name], seed, policy=BandwidthPolicy.track(),
                kind=self.KIND,
            ),
            max_rounds=5_000,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_unbounded_observables_match_records_off(self, seed):
        # Under UNBOUNDED neither engine sizes messages; they must
        # agree exactly.
        graph = GRAPHS["gnp24"]

        def runs(backend):
            net = _trial_network(graph, seed, kind=self.KIND)
            res = net.run(
                backend=backend,
                max_rounds=5_000,
                stop_when=all_colored,
                raise_on_timeout=False,
            )
            return res

        fast, vec = runs("reference"), runs("vectorized")
        assert vec.outputs == fast.outputs
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(
            fast.metrics
        )

    @pytest.mark.parametrize("max_rounds", range(9))
    def test_round_cutoff_parity(self, max_rounds):
        _assert_trial_parity(
            lambda: _trial_network(
                GRAPHS["petersen"], 5, policy=BandwidthPolicy.track(),
                kind=self.KIND,
            ),
            max_rounds=max_rounds,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    def test_nontermination_raise_parity(self):
        for backend in ("reference", "vectorized"):
            with pytest.raises(NonterminationError):
                _trial_network(
                    GRAPHS["petersen"], 5, kind=self.KIND
                ).run(
                    backend=backend,
                    max_rounds=1,
                    stop_when=all_colored,
                    raise_on_timeout=True,
                )

    def test_no_stop_monitor_fast_forward_parity(self):
        # stop_when=None: once everyone is colored the remaining
        # rounds are message-free; the kernel fast-forwards them and
        # must land on reference's exact metrics.
        _assert_trial_parity(
            lambda: _trial_network(
                GRAPHS["petersen"], 2, policy=BandwidthPolicy.track(),
                kind=self.KIND,
            ),
            max_rounds=60,
            stop_when=None,
            raise_on_timeout=False,
        )

    @pytest.mark.parametrize(
        "data",
        [
            {"avoid_known": True},
            {"palette": 0},
            {"palette": None},
            {"palette": True},
            {"palette": 26.0},
            {"palette": np.int64(26)},
            {"palette": 2**63},
            {"color": -1},
        ],
        ids=[
            "avoid-known", "palette-0", "palette-none", "palette-bool",
            "palette-float", "palette-numpy", "palette-over-int64",
            "color-negative",
        ],
    )
    def test_declines_like_reference(self, data):
        # The kernel declines before writing anything; the generator
        # loop then runs (or raises) exactly as reference does.
        def make():
            return _trial_network(
                GRAPHS["gnp24"], 2, policy=BandwidthPolicy.track(),
                kind=self.KIND, **data,
            )

        outcome, causes = _fallback_causes(
            lambda: _run_outcome(make(), "vectorized")
        )
        assert causes == ["kernel-declined"]
        assert outcome == _run_outcome(make(), "reference")
        palette = data.get("palette")
        if isinstance(palette, float):
            # Not an integer: raises on every Python (randrange only
            # deprecated it before 3.12).
            assert outcome[0] is TypeError
        elif isinstance(palette, (bool, np.integer)):
            assert isinstance(outcome[0], dict)  # ran to the monitor


def _run_outcome(network, backend):
    """A trial run's observable outcome, or the error it raised."""
    try:
        result = network.run(
            backend=backend,
            max_rounds=5_000,
            stop_when=all_colored,
            raise_on_timeout=False,
        )
    except Exception as exc:  # noqa: BLE001 - compared across engines
        return type(exc), str(exc)
    return (
        result.outputs,
        _metrics_tuple(result.metrics),
        network.node_colors(),
    )


class TestTrialKernel(_TrialKernelCases):
    def test_precolored_parity(self):
        graph = GRAPHS["petersen"]

        def make():
            delta = 3
            inputs = {
                v: {"palette": 10, "color": v % 3 if v < 4 else None}
                for v in graph.nodes
            }
            inputs = {
                v: {k: x for k, x in d.items() if x is not None}
                for v, d in inputs.items()
            }
            return Network(
                graph,
                TrialProgram,
                seed=9,
                policy=BandwidthPolicy.track(),
                delta=delta,
                inputs=inputs,
            )

        _assert_trial_parity(
            make,
            max_rounds=5_000,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    def test_driver_equivalence(self):
        with use_backend("reference"):
            ref = trial_d2_color(GRAPHS["gnp24"], seed=4)
        with use_backend("vectorized"):
            vec = trial_d2_color(GRAPHS["gnp24"], seed=4)
        assert vec.coloring == ref.coloring
        assert vec.rounds == ref.rounds


class _CountingUniformInputs(UniformInputs):
    """A :class:`UniformInputs` that counts every payload read."""

    __slots__ = ("reads",)

    def __init__(self, nodes, payload):
        super().__init__(nodes, payload)
        self.reads = 0

    @property
    def payload(self):
        self.reads += 1
        return self._payload

    def __getitem__(self, node):
        self.reads += 1
        return super().__getitem__(node)

    def get(self, node, default=None):
        self.reads += 1
        return super().get(node, default)


class TestTrialKernelUniformInputs(_TrialKernelCases):
    """The same cases on one shared payload, which the kernel reads
    once, not once per node."""

    KIND = "uniform"

    def test_partial_cover_declines_like_reference(self):
        # Nodes outside the UniformInputs get no palette: the kernel
        # declines and the generator constructor raises as reference.
        graph = GRAPHS["petersen"]

        def make():
            inputs = UniformInputs(range(5), {"palette": 10})
            return Network(
                graph, TrialProgram, seed=1, inputs=inputs,
                policy=BandwidthPolicy.track(),
            )

        outcome, causes = _fallback_causes(
            lambda: _run_outcome(make(), "vectorized")
        )
        assert causes == ["kernel-declined"]
        assert outcome == _run_outcome(make(), "reference")
        assert outcome[0] is KeyError

    def test_payload_read_once(self):
        graph = nx.gnp_random_graph(300, 0.02, seed=5)
        delta = max(d for _, d in graph.degree)
        inputs = _CountingUniformInputs(
            graph.nodes, {"palette": delta * delta + 1}
        )
        net = Network(graph, TrialProgram, seed=3, inputs=inputs)
        vec, causes = _fallback_causes(
            lambda: net.run(
                backend="vectorized",
                max_rounds=5_000,
                stop_when=all_colored,
                raise_on_timeout=False,
            )
        )
        assert causes == []
        assert not net.materialized
        assert inputs.reads == 1
        ref = _trial_network(graph, 3, kind="dict").run(
            backend="reference",
            max_rounds=5_000,
            stop_when=all_colored,
            raise_on_timeout=False,
        )
        assert vec.outputs == ref.outputs
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)


@st.composite
def _small_graphs(draw, max_nodes=9):
    """Small random graphs on nodes ``0..n-1``, edgeless ones too."""
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graph = nx.empty_graph(n)
    if pairs:
        graph.add_edges_from(
            draw(st.lists(st.sampled_from(pairs), unique=True))
        )
    return graph


@st.composite
def _trial_cases(draw):
    """``(make_network, precolored nodes)`` of a small TRACK trial
    run: palette anywhere from 1 to Δ²+1, some nodes precolored."""
    graph = draw(_small_graphs())
    delta = max((d for _, d in graph.degree), default=0)
    palette = draw(st.integers(1, delta * delta + 1))
    seed = draw(st.integers(0, 2**20))
    colors = draw(
        st.lists(
            st.one_of(st.none(), st.integers(0, palette - 1)),
            min_size=graph.number_of_nodes(),
            max_size=graph.number_of_nodes(),
        )
    )
    precolored = {v: c for v, c in enumerate(colors) if c is not None}
    if not precolored and draw(st.booleans()):
        inputs = UniformInputs(graph.nodes, {"palette": palette})
    else:
        inputs = {
            v: {"palette": palette, "color": precolored[v]}
            if v in precolored
            else {"palette": palette}
            for v in graph.nodes
        }

    def make():
        return Network(
            graph, TrialProgram, seed=seed, inputs=inputs,
            policy=BandwidthPolicy.track(),
        )

    return make


class TestLiveRowConflictPass:
    """The try-phase engine decides conflicts at the relays, over the
    closed rows of the middles next to its triers (no G²); it must
    decide every phase exactly as the generators do."""

    @pytest.mark.parametrize("max_rounds", [*range(9), 300])
    @given(make=_trial_cases())
    @settings(max_examples=25, deadline=None)
    def test_trial_parity(self, max_rounds, make):
        # Tiny palettes conflict in most phases (and time out at 300);
        # precolored nodes block their color at distance 1 only.
        _assert_trial_parity(
            make,
            max_rounds=max_rounds,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    @given(make=_trial_cases())
    @settings(max_examples=25, deadline=None)
    def test_touched_middles(self, make):
        # Past _ALL_MIDDLES_MAX closed-row entries, a phase with fewer
        # than half the nodes trying groups only the middles next to
        # a trier; both ways decide alike.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vectorized, "_ALL_MIDDLES_MAX", 0)
            _assert_trial_parity(
                make,
                max_rounds=300,
                stop_when=all_colored,
                raise_on_timeout=False,
            )

    @given(make=_trial_cases())
    @settings(max_examples=25, deadline=None)
    def test_searched_ranks(self, make):
        # Candidates past _RANK_TABLE_MAX are ranked by a sorted
        # search instead of a lookup table; both decide alike.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vectorized, "_RANK_TABLE_MAX", 0)
            _assert_trial_parity(
                make,
                max_rounds=300,
                stop_when=all_colored,
                raise_on_timeout=False,
            )

    @pytest.mark.parametrize("palette", [2**40, 2**62 - 1])
    def test_wide_palettes(self, palette):
        # Keys rank the candidates, so they stay inside int64 however
        # wide the palette; precolored values that wide block too.
        graph = GRAPHS["gnp24"]

        def make():
            inputs = {
                v: {"palette": palette}
                | ({"color": palette - 1 - v} if v < 6 else {})
                for v in graph.nodes
            }
            return Network(
                graph, TrialProgram, seed=4, inputs=inputs,
                policy=BandwidthPolicy.track(),
            )

        _, causes = _fallback_causes(
            lambda: _assert_trial_parity(
                make,
                max_rounds=5_000,
                stop_when=all_colored,
                raise_on_timeout=False,
            )
        )
        assert causes == []

    @pytest.mark.parametrize("block", [1, 5])
    @pytest.mark.parametrize("precolored", [False, True])
    def test_middle_blocks(self, block, precolored, monkeypatch):
        # Middles are grouped in blocks of about _ENTRIES_PER_PASS
        # closed-row entries, all of them or only those next to a
        # trier; every block size decides every phase alike.
        monkeypatch.setattr(vectorized, "_ENTRIES_PER_PASS", block)
        monkeypatch.setattr(vectorized, "_ALL_MIDDLES_MAX", 0)
        graph = GRAPHS["gnp24"]
        delta = max(d for _, d in graph.degree)

        def make():
            inputs = {
                v: {"palette": delta * delta + 1}
                | ({"color": v % 3} if precolored and v < 6 else {})
                for v in graph.nodes
            }
            return Network(
                graph, TrialProgram, seed=4, inputs=inputs,
                policy=BandwidthPolicy.track(),
            )

        _assert_trial_parity(
            make,
            max_rounds=5_000,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    @given(graph=_small_graphs(), seed=st.integers(0, 99))
    @example(graph=nx.empty_graph(4), seed=0)
    @settings(max_examples=40, deadline=None)
    def test_phases_without_triers(self, graph, seed):
        # No stop monitor: the locally-iterative schedule runs all q
        # phases, and every phase after the last adoption has no
        # trier (an edgeless graph adopts everything in phase 0).
        q, _ = _li_network(graph, seed)
        _assert_poly_phase_parity(
            lambda: _li_network(
                graph, seed, policy=BandwidthPolicy.track()
            ),
            with_parts=False,
            max_rounds=3 * q + 3,
            stop_when=None,
            raise_on_timeout=False,
        )


class TestColorTable:
    """``node_colors()`` of a kernel run is read off the color array:
    zipped as is when every node is colored, ``-1`` → ``None``
    otherwise."""

    @pytest.mark.parametrize(
        "max_rounds, finished", [(5_000, True), (2, False)]
    )
    def test_node_colors_match_reference(self, max_rounds, finished):
        def colors(backend):
            net = _trial_network(GRAPHS["gnp24"], 3)
            net.run(
                backend=backend,
                max_rounds=max_rounds,
                stop_when=all_colored,
                raise_on_timeout=False,
            )
            return net, net.node_colors()

        _, ref = colors("reference")
        (vec_net, vec), causes = _fallback_causes(
            lambda: colors("vectorized")
        )
        assert causes == [] and not vec_net.materialized
        assert vec == ref
        assert list(vec) == list(ref)
        assert (None not in vec.values()) == finished


class TestLubyKernel:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_track_parity(self, name, k):
        _assert_luby_parity(
            lambda: _luby_network(
                GRAPHS[name], 7, k=k, policy=BandwidthPolicy.track()
            ),
            max_rounds=5_000,
            stop_when=_all_decided,
            raise_on_timeout=False,
        )

    @pytest.mark.parametrize("max_rounds", range(13))
    def test_round_cutoff_parity(self, max_rounds):
        _assert_luby_parity(
            lambda: _luby_network(
                GRAPHS["gnp24"], 3, k=2, policy=BandwidthPolicy.track()
            ),
            max_rounds=max_rounds,
            stop_when=_all_decided,
            raise_on_timeout=False,
        )

    def test_no_stop_monitor_fast_forward_parity(self):
        # The decided network keeps flooding (K, -1) broadcasts; the
        # kernel's closed-form fast-forward must match reference.
        _assert_luby_parity(
            lambda: _luby_network(
                GRAPHS["petersen"], 1, k=2,
                policy=BandwidthPolicy.track(),
            ),
            max_rounds=41,
            stop_when=None,
            raise_on_timeout=False,
        )

    def test_driver_produces_valid_mis(self):
        graph = GRAPHS["gnp24"]
        with use_backend("vectorized"):
            mis, _phases, _metrics = luby_distance_k_mis(
                graph, k=2, seed=3
            )
        assert check_distance_k_mis(graph, mis, 2)


def _li_network(graph, seed, policy=None):
    delta = max((d for _, d in graph.degree), default=0)
    q = bertrand_prime(max(delta, 1))
    inputs = {
        v: {"q": q, "color_in": i % (q * q)}
        for i, v in enumerate(sorted(graph.nodes))
    }
    return q, Network(
        graph,
        LocallyIterativeProgram,
        seed=seed,
        policy=policy,
        delta=delta,
        inputs=inputs,
    )


def _part_li_network(graph, seed, parts=3, policy=None):
    delta = max((d for _, d in graph.degree), default=0)
    d_part = max(1, delta)
    q = prime_between(4 * d_part, 8 * d_part)
    inputs = {
        v: {"q": q, "part": i % parts, "color_in": i % (q * q)}
        for i, v in enumerate(sorted(graph.nodes))
    }
    return q, Network(
        graph,
        PartLocallyIterativeD2,
        seed=seed,
        policy=policy,
        delta=delta,
        inputs=inputs,
    )


def _assert_poly_phase_parity(make_network, with_parts, **run_kwargs):
    (ref_net, ref), (vec_net, vec) = _run_pair(
        lambda: make_network()[1], **run_kwargs
    )
    assert vec.outputs == ref.outputs
    assert vec.stopped_early == ref.stopped_early
    assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
    for node in ref_net.programs:
        rp, vp = ref_net.programs[node], vec_net.programs[node]
        assert vp.color == rp.color, node
        assert vp.blocked_phases == rp.blocked_phases, node
        assert vp.nbr_colors == rp.nbr_colors, node
        if with_parts:
            assert vp.offset == rp.offset, node
        else:
            assert vp.succeeded_phase == rp.succeeded_phase, node


class TestPolyPhaseKernels:
    """The locally-iterative / part-offset kernels behind the
    deterministic-d2 and eps-d2-coloring try-phase stages."""

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 2])
    def test_li_track_parity(self, name, seed):
        graph = GRAPHS[name]
        q, _ = _li_network(graph, seed)
        _assert_poly_phase_parity(
            lambda: _li_network(
                graph, seed, policy=BandwidthPolicy.track()
            ),
            with_parts=False,
            max_rounds=3 * q + 3,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", [0, 2])
    def test_part_li_track_parity(self, name, seed):
        graph = GRAPHS[name]
        q, _ = _part_li_network(graph, seed)
        _assert_poly_phase_parity(
            lambda: _part_li_network(
                graph, seed, policy=BandwidthPolicy.track()
            ),
            with_parts=True,
            max_rounds=3 * q + 3,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    @pytest.mark.parametrize(
        "max_rounds", [0, 1, 2, 3, 4, 5, 6, 7, 11, 200]
    )
    def test_li_round_cutoff_parity(self, max_rounds):
        # Mid-phase cutoffs: the end state must reconstruct exactly
        # the blocked/succeeded counters the aborted generators hold.
        _assert_poly_phase_parity(
            lambda: _li_network(
                GRAPHS["petersen"], 5, policy=BandwidthPolicy.track()
            ),
            with_parts=False,
            max_rounds=max_rounds,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    @pytest.mark.parametrize("max_rounds", [0, 1, 3, 5, 8, 200])
    def test_part_li_round_cutoff_parity(self, max_rounds):
        _assert_poly_phase_parity(
            lambda: _part_li_network(
                GRAPHS["gnp24"], 3, policy=BandwidthPolicy.track()
            ),
            with_parts=True,
            max_rounds=max_rounds,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    def test_li_full_schedule_halts(self):
        # No stop monitor: the program halts itself after 3q rounds;
        # the kernel must replay the whole schedule plus the halting
        # resume and leave the network in the halted state.
        graph = GRAPHS["petersen"]
        q, _ = _li_network(graph, 1)
        _assert_poly_phase_parity(
            lambda: _li_network(
                graph, 1, policy=BandwidthPolicy.track()
            ),
            with_parts=False,
            max_rounds=3 * q + 3,
            stop_when=None,
            raise_on_timeout=False,
        )


POLICIES = {
    "track": BandwidthPolicy.track(),
    "strict": BandwidthPolicy.strict(),
    "unbounded": BandwidthPolicy.unbounded(),
}

#: Packs relay/gather chunks for a 40-bit budget but never meters one,
#: so a decline under it can only come from the list lengths.
_UNBOUNDED_40_BITS = BandwidthPolicy(
    BandwidthMode.UNBOUNDED, beta=1, min_bits=40
)


class _Capturing(ExecutionBackend):
    """Delegates to ``inner`` and keeps every network it runs."""

    name = "capturing"

    def __init__(self, inner):
        self.inner = get_backend(inner)
        self.networks = []

    def execute(self, network, **kwargs):
        self.networks.append(network)
        return self.inner.execute(network, **kwargs)


def _recipe(driver):
    """A factory of fresh copies of the first network ``driver()``
    runs (same graph, program, policy, Δ and inputs)."""
    capture = _Capturing("reference")
    with use_backend(capture):
        try:
            driver()
        except Exception:  # noqa: BLE001 - the tests replay it
            pass
    net = capture.networks[0]
    return lambda: Network(
        net.graph,
        net.program_factory,
        seed=net._seed,
        policy=net.policy,
        delta=net.delta,
        inputs=net._inputs,
    )


def _events(run):
    """``run()``'s result and every trace event it emitted."""
    events = []

    class Rec(NullRecorder):
        def event(self, name, attrs=None):
            events.append((name, attrs))

    with use_recorder(Rec()):
        result = run()
    return result, events


def _fallback_causes(run):
    """``run()``'s result and the ``exec.fallback`` causes it emitted."""
    result, events = _events(run)
    return result, [
        attrs["cause"] for name, attrs in events if name == "exec.fallback"
    ]


def _shuffled(graph, seed):
    """``graph`` with its nodes inserted in a shuffled order; both
    engines still resume nodes, and fill inboxes, in label order."""
    nodes = list(graph.nodes)
    random.Random(seed).shuffle(nodes)
    out = nx.Graph()
    out.add_nodes_from(nodes)
    out.add_edges_from(graph.edges)
    return out


def _assert_same_run(make_network, make_twin):
    """Each engine runs ``make_network()`` exactly as it runs
    ``make_twin()``: outputs, colors and every metric,
    ``max_message_bits`` included."""
    for backend in ("reference", "vectorized"):
        runs = []
        for make in (make_network, make_twin):
            net = make()
            res = net.run(backend=backend)
            runs.append((
                res.outputs,
                res.halted,
                _metrics_tuple(res.metrics),
                dict(net.node_colors()),
            ))
        assert runs[0] == runs[1], backend


def _assert_fixed_schedule_parity(make_network, state):
    """vectorized ≡ reference on outputs, metrics and program ``state``
    attributes — written back on a deferred materialization — with no
    fallback."""
    fast_net, vec_net = make_network(), make_network()
    fast = fast_net.run(backend="reference")
    vec, causes = _fallback_causes(lambda: vec_net.run(backend="vectorized"))
    assert causes == []
    assert not vec_net.materialized
    assert vec.outputs == fast.outputs
    assert vec.halted and fast.halted
    assert _metrics_tuple(vec.metrics) == _metrics_tuple(fast.metrics)
    assert vec_net.node_colors() == fast_net.node_colors()
    for node in fast_net.programs:
        fp, vp = fast_net.programs[node], vec_net.programs[node]
        for attr in state:
            assert getattr(vp, attr) == getattr(fp, attr), (node, attr)


def _assert_declined(make_network, raises=None, **run_kwargs):
    """The kernel declines (``kernel-declined``) and the generator-loop
    replay matches a plain reference run — errors included."""

    def outcome(backend):
        net = make_network()
        try:
            res = net.run(backend=backend, **run_kwargs)
        except Exception as exc:  # noqa: BLE001 - compared below
            return type(exc), str(exc)
        return (
            res.outputs,
            _metrics_tuple(res.metrics),
            res.halted,
            {v: p.color for v, p in net.programs.items()},
        )

    vec, causes = _fallback_causes(lambda: outcome("vectorized"))
    assert causes == ["kernel-declined"]
    assert vec == outcome("reference")
    if raises is not None:
        assert vec[0] is raises


_LINIAL = {"d2": linial_d2_coloring, "g": linial_g_coloring}


def _wide_linial(graph, variant="d2", **kwargs):
    """Linial on G² (or G) from a 10⁶-color input, so the schedule is
    never empty (IDs of a small graph are already at the fixed
    point)."""
    return _LINIAL[variant](
        graph,
        color_in={v: 1000 * v + 7 for v in graph.nodes},
        palette_in=10**6,
        **kwargs,
    )


class TestLinialKernel:
    """The plan-driven kernel behind Theorem B.1's Linial stage."""

    @pytest.mark.parametrize("variant", sorted(_LINIAL))
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_parity(self, variant, name, policy):
        make = _recipe(
            lambda: _wide_linial(
                GRAPHS[name], variant, policy=POLICIES[policy]
            )
        )
        assert _first_input(make())["schedule"]
        _assert_fixed_schedule_parity(make, ("color",))

    @pytest.mark.parametrize("name", ["gnp24", "disconnected"])
    def test_uniform_inputs_start_from_labels(self, name):
        # One shared payload without ``color_in``: the kernel reads it
        # once and every node's input color is its label.
        captured = _recipe(lambda: _wide_linial(GRAPHS[name]))()
        payload = dict(_first_input(captured))
        del payload["color_in"]

        def make():
            return Network(
                captured.graph, captured.program_factory,
                policy=captured.policy, delta=captured.delta,
                inputs=UniformInputs(captured.graph.nodes, payload),
            )

        _assert_fixed_schedule_parity(make, ("color",))

    def test_uniform_inputs_decline_a_label_outside_int64(self):
        # Labels as input colors: every label of the one shared group
        # must fit the int64 arrays, or the kernel declines.
        captured = _recipe(lambda: _wide_linial(GRAPHS["gnp24"]))()
        payload = dict(_first_input(captured))
        del payload["color_in"]
        graph = nx.relabel_nodes(captured.graph, {5: 2**70})

        def make():
            return Network(
                graph, captured.program_factory,
                policy=captured.policy, delta=captured.delta,
                inputs=UniformInputs(graph.nodes, payload),
            )

        _assert_declined(make)

    @pytest.mark.parametrize("name", ["gnp24", "petersen", "disconnected"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_parts_and_input_palette_parity(self, name, policy):
        graph = GRAPHS[name]
        parts = {v: v % 3 for v in graph.nodes}
        make = _recipe(
            lambda: _wide_linial(
                graph,
                policy=POLICIES[policy],
                parts=parts,
                conflict_degree=6,
            )
        )
        assert len(_first_input(make())["schedule"]) >= 1
        _assert_fixed_schedule_parity(make, ("color", "part"))

    def test_empty_schedule(self):
        # Palette already at the fixed point: zero rounds, the input
        # colors come straight back.
        graph = GRAPHS["gnp24"]
        color_in = {v: v % 5 for v in graph.nodes}
        make = _recipe(
            lambda: linial_d2_coloring(
                graph, color_in=color_in, palette_in=5
            )
        )
        assert _first_input(make())["schedule"] == []
        _assert_fixed_schedule_parity(make, ("color",))
        assert make().run(backend="vectorized").outputs == color_in

    def test_multi_chunk_relay_ignores_insertion_order(self):
        # Two-item relay chunks of variable-width colors: which items
        # share a chunk, and so max_message_bits, follows inbox order,
        # which is ascending sender order however the graph was built.
        policy = BandwidthPolicy.track(beta=1, min_bits=100)
        color_in = {v: (1 << (v % 23)) + v for v in range(24)}

        def recipe(graph):
            return _recipe(
                lambda: linial_d2_coloring(
                    graph, policy=policy, color_in=color_in,
                    palette_in=1 << 23,
                )
            )

        base = nx.gnp_random_graph(24, 0.25, seed=11)
        shuffled = recipe(_shuffled(base, 0))
        _assert_fixed_schedule_parity(shuffled, ("color",))
        _assert_same_run(shuffled, recipe(base))

    def test_declines_custom_stop_when(self):
        _assert_declined(
            _recipe(lambda: _wide_linial(GRAPHS["petersen"])),
            stop_when=lambda net, rnd: rnd >= 1,
            raise_on_timeout=False,
        )

    def test_declines_max_rounds_short_of_the_schedule(self):
        make = _recipe(lambda: _wide_linial(GRAPHS["petersen"]))
        rounds = make().run(backend="vectorized").rounds
        assert rounds > 1
        # The halting resume needs round index ``rounds`` to run.
        for max_rounds in (1, rounds):
            _assert_declined(
                make, max_rounds=max_rounds, raise_on_timeout=False
            )

    def test_declines_self_loops(self):
        graph = nx.cycle_graph(6)
        graph.add_edge(2, 2)
        _assert_declined(_recipe(lambda: linial_d2_coloring(graph)))

    def test_declines_colors_outside_int64(self):
        graph = GRAPHS["petersen"]
        color_in = {v: 2**70 + v for v in graph.nodes}
        _assert_declined(
            _recipe(
                lambda: linial_d2_coloring(
                    graph, color_in=color_in, palette_in=2**71
                )
            )
        )

    def test_declines_relay_truncation(self):
        # A declared Δ below the true max degree sizes the relay too
        # short: the generators drop the tail of the star center's
        # lists, which the kernel must not paper over.  (The conflict
        # degree is set apart from Δ, so the full d2-neighborhood
        # still leaves every node a free pair.)
        _assert_declined(
            _recipe(
                lambda: _wide_linial(
                    GRAPHS["star"],
                    delta=1,
                    conflict_degree=36,
                    policy=_UNBOUNDED_40_BITS,
                )
            )
        )

    def test_declines_strict_budget_and_raises_identically(self):
        _assert_declined(
            _recipe(
                lambda: _wide_linial(
                    GRAPHS["gnp24"],
                    policy=BandwidthPolicy.strict(beta=1, min_bits=16),
                )
            ),
            raises=BandwidthExceededError,
        )

    def test_input_outside_the_polynomial_family_raises_identically(self):
        # One color above the declared palette, past q^(d+1): no
        # degree-d polynomial stands for it, and the generator raises.
        graph = GRAPHS["gnp24"]
        make = _recipe(lambda: _wide_linial(graph))
        d, q, _m = _first_input(make())["schedule"][0]
        color_in = {v: 1000 * v + 7 for v in graph.nodes}
        color_in[0] = q ** (d + 1) + 5
        _assert_declined(
            _recipe(
                lambda: linial_d2_coloring(
                    graph, color_in=color_in, palette_in=10**6
                )
            ),
            raises=ValueError,
        )

    def test_no_free_pair_raises_identically(self):
        graph = GRAPHS["petersen"]
        color_in = {v: v * 99991 for v in graph.nodes}
        _assert_declined(
            _recipe(
                lambda: linial_d2_coloring(
                    graph, color_in=color_in, palette_in=10**6,
                    conflict_degree=1,
                )
            ),
            raises=AssertionError,
        )

    def test_blocked_evaluation_table_matches(self, monkeypatch):
        # n·q above the block budget: the per-block evaluation tables
        # must pick the same pairs as the whole-graph one.
        make = _recipe(lambda: _wide_linial(GRAPHS["gnp24"]))
        whole = make().run(backend="vectorized")
        monkeypatch.setattr(vectorized, "_BLOCK_ELEMS", 64)
        blocked = make().run(backend="vectorized")
        assert blocked.outputs == whole.outputs
        assert _metrics_tuple(blocked.metrics) == _metrics_tuple(
            whole.metrics
        )


def _reduction_inputs(graph):
    """A valid d2-coloring (all colors distinct) with a palette of 3n,
    to reduce down to Δ²+1."""
    delta = max((d for _, d in graph.degree), default=0)
    target = delta * delta + 1
    color_in = {
        v: 3 * i + i % 3 for i, v in enumerate(sorted(graph.nodes))
    }
    return color_in, max(3 * len(color_in), target), target


class TestColorReductionKernel:
    """The plan-driven kernel behind Theorem B.2's color reduction."""

    STATE = ("color", "d2_colors", "recolored_in_phase")

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_parity(self, name, policy):
        graph = GRAPHS[name]
        color_in, palette_in, target = _reduction_inputs(graph)
        _assert_fixed_schedule_parity(
            _recipe(
                lambda: color_reduction_d2(
                    graph,
                    color_in=color_in,
                    palette_in=palette_in,
                    target=target,
                    policy=POLICIES[policy],
                )
            ),
            self.STATE,
        )

    def test_ties_block_both_nodes_forever(self):
        # An invalid input: two d2-neighbors share the top color, so
        # neither is ever a strict local maximum, nor is anything
        # below them in a chain.
        graph = nx.path_graph(6)
        color_in = {0: 9, 1: 3, 2: 9, 3: 8, 4: 7, 5: 6}
        _assert_fixed_schedule_parity(
            _recipe(
                lambda: color_reduction_d2(
                    graph, color_in=color_in, palette_in=10, target=5
                )
            ),
            self.STATE,
        )

    def test_multi_chunk_gather_ignores_insertion_order(self):
        policy = BandwidthPolicy.track(beta=1, min_bits=120)

        def recipe(graph):
            return _recipe(
                lambda: color_reduction_d2(
                    graph,
                    color_in={v: (1 << (v % 9)) + v for v in graph},
                    palette_in=1 << 9,
                    target=24,
                    policy=policy,
                )
            )

        base = nx.gnp_random_graph(24, 0.25, seed=11)
        shuffled = recipe(_shuffled(base, 2))
        _assert_fixed_schedule_parity(shuffled, self.STATE)
        _assert_same_run(shuffled, recipe(base))

    def test_declines_custom_stop_when(self):
        graph = GRAPHS["petersen"]
        color_in, palette_in, target = _reduction_inputs(graph)
        _assert_declined(
            _recipe(
                lambda: color_reduction_d2(
                    graph, color_in, palette_in, target=target
                )
            ),
            stop_when=lambda net, rnd: False,
            raise_on_timeout=False,
        )

    def test_declines_max_rounds_short_of_the_schedule(self):
        graph = GRAPHS["petersen"]
        color_in, palette_in, target = _reduction_inputs(graph)
        _assert_declined(
            _recipe(
                lambda: color_reduction_d2(
                    graph, color_in, palette_in, target=target
                )
            ),
            max_rounds=5,
            raise_on_timeout=False,
        )

    def test_declines_self_loops(self):
        graph = nx.cycle_graph(6)
        graph.add_edge(3, 3)
        _assert_declined(
            _recipe(
                lambda: color_reduction_d2(
                    graph, {v: v for v in graph}, 6, target=5
                )
            )
        )

    def test_declines_colors_outside_int64(self):
        graph = nx.path_graph(4)
        _assert_declined(
            _recipe(
                lambda: color_reduction_d2(
                    graph, {v: 2**70 + v for v in graph}, 10, target=5
                )
            )
        )

    def test_declines_gather_truncation(self):
        graph = GRAPHS["star"]
        _assert_declined(
            _recipe(
                lambda: color_reduction_d2(
                    graph,
                    {v: v + 7 for v in graph},
                    14,
                    target=7,
                    delta=1,
                    policy=_UNBOUNDED_40_BITS,
                )
            )
        )

    def test_declines_strict_budget_and_raises_identically(self):
        graph = GRAPHS["gnp24"]
        color_in, palette_in, target = _reduction_inputs(graph)
        _assert_declined(
            _recipe(
                lambda: color_reduction_d2(
                    graph, color_in, palette_in, target=target,
                    policy=BandwidthPolicy.strict(beta=1, min_bits=16),
                )
            ),
            raises=BandwidthExceededError,
        )

    def test_no_free_color_raises_identically(self):
        # A target at or below a recoloring node's d2-degree leaves
        # ``_smallest_free`` nothing to return.
        graph = GRAPHS["petersen"]
        _assert_declined(
            _recipe(
                lambda: color_reduction_d2(
                    graph, {v: v for v in graph}, 10, target=3
                )
            ),
            raises=AssertionError,
        )


class TestStep0Fallback:
    def test_improved_step0_runs_without_generator_programs(self):
        # Tier-1 guard of the det-fallback path: Δ² = 16 is below the
        # Step-0 threshold on rr4-2048, so improved-d2color runs the
        # whole deterministic chain — on kernels only.
        from repro import registry
        from repro.verify.checker import check_d2_coloring
        from repro.workloads import instance_cache

        instance = instance_cache().get("rr4-2048", 0)
        capture = _Capturing("vectorized")
        result, causes = _fallback_causes(
            lambda: registry.get_algorithm("improved-d2color").run_on(
                instance, seed=0, backend=capture
            )
        )
        assert result.params["deterministic_fallback"]
        assert causes == []
        assert len(capture.networks) == 3
        assert not any(net.materialized for net in capture.networks)
        palette = instance.delta ** 2 + 1
        report = check_d2_coloring(
            instance.graphlike(), result.coloring, palette_size=palette
        )
        assert report.valid, report.explain()


class TestNoNxOnKernelPath:
    """Tier-1 guard of "no nx.Graph on the huge-tier path": kernel
    runs on CSR-born instances read the arrays only."""

    @pytest.mark.parametrize("workload", ["rr4_24", "powerlaw24"])
    @pytest.mark.parametrize(
        "spec", ["trial", "improved-d2color", "deterministic-d2"]
    )
    def test_view_never_materializes(self, workload, spec):
        from repro import registry
        from repro.workloads import InstanceCache

        instance = InstanceCache().get(workload, 0)
        assert instance._csr_born
        result = registry.get_algorithm(spec).run_on(
            instance, seed=0, backend="vectorized"
        )
        assert result.complete
        assert not instance.graphlike().materialized
        assert instance._graph is None


class TestRelayTrialCell:
    """A vectorized ``trial``/``trial-slack`` sweep cell decides its
    try phases and its check at the relays, so it never derives G²,
    and hands the kernel's color array to ``CellResult.coloring``
    without a ``{node: color}`` dict."""

    @pytest.fixture
    def cache(self, monkeypatch):
        import repro.workloads

        cache = InstanceCache()
        monkeypatch.setattr(repro.workloads, "instance_cache", lambda: cache)
        return cache

    @pytest.mark.parametrize("workload", ["rr4_24", "gnp-huge-16384"])
    @pytest.mark.parametrize("spec", ["trial", "trial-slack"])
    def test_cell_and_check_never_derive_square(self, cache, workload, spec):
        from repro.exec.sweep import SweepCell, run_cell
        from repro.verify.checker import check_d2_coloring

        res = run_cell(
            SweepCell.from_workload(spec, workload, 0), inner="vectorized"
        )
        assert res.ok, res.error
        instance = cache.get(workload, 0)
        assert instance._csr_born
        report = check_d2_coloring(
            instance.graphlike(), res.coloring, res.palette_size,
            adjacency=instance.csr(),
        )
        assert report.valid and report.colors_used == res.colors_used
        assert not instance.csr().has_square
        assert cache.stats.square_builds == 0

    def test_colors_reach_the_cell_as_columns(self, cache, monkeypatch):
        from repro.exec.sweep import SweepCell, run_cell
        from repro.results import ArrayColoring

        cell = SweepCell.from_workload("trial", "gnp-huge-16384", 0)
        expected = run_cell(cell, inner="reference")

        def no_dict(*_args):
            raise AssertionError("built a per-node color table")

        for name in ("__getitem__", "__iter__", "_values"):
            monkeypatch.setattr(ArrayColoring, name, no_dict)
        res = run_cell(cell, inner="vectorized")
        monkeypatch.undo()
        assert res.ok, res.error
        assert res.coloring.colors.dtype == np.int64
        assert res.coloring == expected.coloring
        assert res.colors_used == expected.colors_used


class TestRandomizedD2Kernel:
    """The kernel for d2-Color / Improved-d2-Color: trials, similarity,
    every Reduce-Phase, LearnPalette and finish as array work;
    ``improved`` declines a run that reaches LearnPalette on the
    handler path or with forward batches narrower than Δ."""

    @pytest.mark.parametrize(
        "color, last",
        [(improved_d2_color, "finish"), (basic_d2_color, "final-reduce")],
        ids=["improved", "basic"],
    )
    def test_runs_without_building_programs(self, color, last):
        # The phase table comes from the kernel's end state, so
        # neither variant builds a node program; the phase log and the
        # phase are one shared value, not an n-entry table.
        capture = _Capturing("vectorized")
        with use_backend(capture):
            result = color(hoffman_singleton(), seed=1, max_rounds=2_000)
        [net] = capture.networks
        assert not net.materialized
        assert result.phases[-1].name == last
        for attr in ("phase_log", "phase"):
            assert not isinstance(net.node_table(attr), dict)

    @pytest.mark.parametrize(
        "color",
        [improved_d2_color, basic_d2_color],
        ids=["improved", "basic"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_driver_parity(self, color, seed):
        graph = GRAPHS["gnp24"]

        def run(backend):
            with use_backend(backend):
                return color(
                    graph,
                    seed=seed,
                    allow_deterministic_fallback=False,
                )

        ref, vec = run("reference"), run("vectorized")
        assert vec.coloring == ref.coloring
        assert vec.rounds == ref.rounds
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(
            ref.metrics
        )
        assert [(p.name, p.rounds) for p in vec.phases] == [
            (p.name, p.rounds) for p in ref.phases
        ]

    @pytest.mark.parametrize(
        "color",
        [improved_d2_color, basic_d2_color],
        ids=["improved", "basic"],
    )
    @pytest.mark.parametrize("max_rounds", [0, 1, 2, 3, 7, 20, 61])
    def test_round_cutoff_parity(self, color, max_rounds):
        # Cutoffs land before, inside, and after the trials window
        # (the array-executed section); coloring, metrics, and the
        # phase table must match reference at every boundary.
        graph = GRAPHS["petersen"]

        def run(backend):
            with use_backend(backend):
                return color(
                    graph,
                    seed=5,
                    max_rounds=max_rounds,
                    allow_deterministic_fallback=False,
                )

        ref, vec = run("reference"), run("vectorized")
        assert vec.coloring == ref.coloring
        assert vec.rounds == ref.rounds
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(
            ref.metrics
        )
        assert [(p.name, p.rounds) for p in vec.phases] == [
            (p.name, p.rounds) for p in ref.phases
        ]


_LADDER_CELLS = ladder_cells()
_LADDER_DRIVERS = {"improved": improved_d2_color, "basic": basic_d2_color}


def _ladder_recipe(variant, cell, policy=None, relabel=None):
    """``(make_network, run kwargs)`` of a :func:`ladder_cells` run
    (on the graph relabeled by ``relabel`` when given)."""
    graph, seed, kwargs = _LADDER_CELLS[cell]
    if relabel is not None:
        graph = nx.relabel_nodes(graph, relabel)
    make = _recipe(
        lambda: _LADDER_DRIVERS[variant](
            graph, seed=seed, policy=policy, max_rounds=0, **kwargs
        )
    )
    max_rounds = LADDER_BASIC_MAX_ROUNDS if variant == "basic" else 500_000
    return make, {
        "max_rounds": max_rounds,
        "stop_when": all_colored,
        "raise_on_timeout": False,
    }


def _randomized_state(network):
    """Every node's observable program state, RNG counter included."""
    state = {}
    for node, program in network.programs.items():
        sim = program.similarity
        state[node] = (
            program.color,
            program.nbr_colors,
            program.phase_log,
            program.phase,
            vars(program.reduce_stats),
            None
            if sim is None
            else (sim.own_set, sim.nbr_sets, sim.dropped_items),
            program.free_colors,
            getattr(program, "learn_drops", None),
            getattr(program, "finish_phases", None),
            program.ctx.rng.counter,
        )
    return state


def _assert_randomized_parity(make_network, **run_kwargs):
    """vectorized ≡ reference on outputs, metrics and every program's
    state, with the kernel running (no decline, no fallback)."""
    ref_net, vec_net = make_network(), make_network()
    ref = ref_net.run(backend="reference", **run_kwargs)
    vec, events = _events(
        lambda: vec_net.run(backend="vectorized", **run_kwargs)
    )
    assert events == []
    assert vec.outputs == ref.outputs
    assert (vec.halted, vec.stopped_early) == (ref.halted, ref.stopped_early)
    assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
    assert _randomized_state(vec_net) == _randomized_state(ref_net)
    return ref_net


class TestReduceLadderKernel:
    """Similarity and the Reduce ladder on arrays, on runs whose ladder
    has live nodes (``conftest.ladder_cells``)."""

    @pytest.mark.parametrize("cell", sorted(_LADDER_CELLS))
    @pytest.mark.parametrize("variant", sorted(_LADDER_DRIVERS))
    def test_parity(self, variant, cell):
        make, run_kwargs = _ladder_recipe(variant, cell)
        _assert_randomized_parity(make, **run_kwargs)

    @pytest.mark.parametrize("variant", sorted(_LADDER_DRIVERS))
    def test_shuffled_graph_runs_as_its_sorted_twin(self, variant):
        # Inbox order (ticket ties, relay picks, proposal order) is
        # ascending sender order, so the insertion order of the
        # graph's nodes changes nothing on either engine.
        graph, seed, kwargs = _LADDER_CELLS["hs-busy-s0"]
        color = _LADDER_DRIVERS[variant]
        shuffled = _shuffled(graph, 3)
        for backend in ("reference", "vectorized"):
            runs = []
            for g in (graph, shuffled):
                with use_backend(backend):
                    res = color(g, seed=seed, **kwargs)
                runs.append((
                    dict(res.coloring),
                    res.rounds,
                    [(p.name, p.rounds) for p in res.phases],
                    _metrics_tuple(res.metrics),
                ))
            assert runs[0] == runs[1], backend
        # Every node-keyed mapping a run returns iterates ascending.
        make = _recipe(
            lambda: color(shuffled, seed=seed, max_rounds=0, **kwargs)
        )
        _, run_kwargs = _ladder_recipe(variant, "hs-busy-s0")
        labels = sorted(graph)
        vec_net = make()
        vec = vec_net.run(backend="vectorized", **run_kwargs)
        assert not vec_net.materialized
        assert list(vec.programs) == labels
        assert list(vec_net.node_colors()) == labels
        ref = make().run(backend="reference", **run_kwargs)
        assert list(ref.programs) == labels

    @pytest.mark.parametrize("variant", sorted(_LADDER_DRIVERS))
    def test_parity_shuffled_loop_order(self, variant):
        # A shuffled insertion order changes nothing about the run, so
        # the engines agree on it as on the sorted graph.
        graph, seed, kwargs = _LADDER_CELLS["rr7-short-s0"]
        make = _recipe(
            lambda: _LADDER_DRIVERS[variant](
                _shuffled(graph, 3), seed=seed, max_rounds=0, **kwargs
            )
        )
        _, run_kwargs = _ladder_recipe(variant, "rr7-short-s0")
        _assert_randomized_parity(make, **run_kwargs)

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("cell", ["hs-busy-s0", "rr7-short-s0"])
    def test_parity_with_narrow_tickets(self, cell, shuffle, monkeypatch):
        # 3-bit lottery tickets make XOR ties common, so the tie rules
        # decide: the first minimum in inbox order wins, and a direct
        # H-neighbor beats an equal relayed XOR.
        monkeypatch.setattr(sampling, "ticket_bits", lambda n: 3)
        graph, seed, kwargs = _LADDER_CELLS[cell]
        if shuffle:
            graph = _shuffled(graph, 5)
        make = _recipe(
            lambda: improved_d2_color(
                graph, seed=seed, max_rounds=0, **kwargs
            )
        )
        _, run_kwargs = _ladder_recipe("improved", cell)
        _assert_randomized_parity(make, **run_kwargs)

    @pytest.mark.parametrize(
        "policy, cell, relabel",
        [
            pytest.param("strict", "pg7-short-s2", None, id="strict"),
            pytest.param("unbounded", "pg7-short-s2", None, id="unbounded"),
            # Labels 14..63, reversed: not the dense indices, but as wide
            # as n = 50's, so every payload still fits the 192-bit
            # budget.  Routing payloads carry labels and are metered as
            # such.
            pytest.param(
                "track", "hs-s0", lambda v: 63 - v,
                id="track-relabeled",
            ),
        ],
    )
    def test_policy_parity(self, policy, cell, relabel):
        make, run_kwargs = _ladder_recipe(
            "improved", cell, POLICIES[policy], relabel
        )
        _assert_randomized_parity(make, **run_kwargs)

    #: A ladder phase of ``hs-short-s0`` where queries are accepted and
    #: proposals relayed and tried.
    PHASE = 11

    @pytest.mark.parametrize("variant", sorted(_LADDER_DRIVERS))
    def test_cutoff_at_every_offset_of_a_phase(self, variant):
        make, run_kwargs = _ladder_recipe(variant, "hs-short-s0")
        ladder_start = 13  # trials (9) + similarity (4), either order
        first = ladder_start + REDUCE_PHASE_ROUNDS * self.PHASE
        proposals = []
        for offset in range(REDUCE_PHASE_ROUNDS + 1):
            ref_net = _assert_randomized_parity(
                make, **dict(run_kwargs, max_rounds=first + offset)
            )
            proposals.append(
                sum(
                    p.reduce_stats.proposals_received
                    for p in ref_net.programs.values()
                )
            )
        assert proposals[0] < proposals[-1]  # the routing ran

    @pytest.mark.parametrize(
        "variant, cell, start, rounds",
        [
            ("improved", "hs-s0", 69, 4),
            ("basic", "hs-sampled-s0", 0, 9),
            ("improved", "hs-sampled-short-s3", 9, 9),
        ],
    )
    def test_cutoff_inside_similarity(self, variant, cell, start, rounds):
        make, run_kwargs = _ladder_recipe(variant, cell)
        for cut in range(start, start + rounds + 2):
            _assert_randomized_parity(
                make, **dict(run_kwargs, max_rounds=cut)
            )

    @pytest.mark.parametrize("sampled", [False, True])
    def test_similarity_overlaps_counted_in_blocks(self, sampled, monkeypatch):
        # Tiny blocks: one row of G² per block, several blocks per run.
        csr = csr_for_graph(_LADDER_CELLS["rr7-short-s0"][0])
        sample = np.arange(csr.n) % 3 != 0 if sampled else None
        rows = [
            csr.g2_indices[csr.g2_indptr[i]:csr.g2_indptr[i + 1]].tolist()
            for i in range(csr.n)
        ]
        sets = [
            {c for c in row if sample is None or sample[c]} for row in rows
        ]
        expected = [
            len(sets[a] & sets[b]) for a in range(csr.n) for b in rows[a]
        ]
        monkeypatch.setattr(vectorized, "_BLOCK_ELEMS", 64)
        assert vectorized._common_counts(csr, sample).tolist() == expected

    @staticmethod
    def _assert_declined(make, cause):
        _, run_kwargs = _ladder_recipe("improved", "hs-s0")
        ref_net, vec_net = make(), make()
        ref = ref_net.run(backend="reference", **run_kwargs)
        vec, events = _events(
            lambda: vec_net.run(backend="vectorized", **run_kwargs)
        )
        assert ("kernel.decline", {
            "kernel": "_randomized_d2_kernel", "cause": cause
        }) in events
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
        assert _randomized_state(vec_net) == _randomized_state(ref_net)

    def test_declines_wide_labels_under_a_budget(self):
        # Labels far above n make every routing payload wider than
        # the O(log n) budget the sizes were planned for.
        graph, seed, _kwargs = _LADDER_CELLS["hs-s0"]
        wide = nx.relabel_nodes(graph, {v: v << 40 for v in graph})
        self._assert_declined(
            _recipe(lambda: improved_d2_color(wide, seed=seed, max_rounds=0)),
            "budget",
        )

    def test_declines_similarity_drops(self):
        # One item per pipelined list: the generators drop the rest of
        # every neighbor list and similarity set.
        net = _ladder_recipe("improved", "hs-s0")[0]()
        make = _with_input(
            net,
            sim_config=dataclasses.replace(
                _first_input(net)["sim_config"], forward_rounds=1,
                own_rounds=1, per_message=1,
            ),
        )
        self._assert_declined(make, "similarity-drops")


class TestLearnFinishKernel:
    """LearnPalette by flooding and FinishColoring on arrays: cut-offs
    inside them, the runs the kernel declines when LearnPalette would
    not be array work, and the uniform-config check."""

    @pytest.mark.parametrize("cell", ["hs-s0", "pg7-s0"])
    def test_cutoff_at_every_round_of_learn_and_two_finish_phases(
        self, cell
    ):
        make, run_kwargs = _ladder_recipe("improved", cell)
        ref_net = _assert_randomized_parity(make, **run_kwargs)
        log = dict(next(iter(ref_net.programs.values())).phase_log)
        learn = log["trials"] + log["similarity"] + log["reduce-ladder"]
        end = learn + log["learn-palette"] + 2 * FINISH_PHASE_ROUNDS
        for cut in range(learn, end + 1):
            _assert_randomized_parity(
                make, **dict(run_kwargs, max_rounds=cut)
            )

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_parity_multi_round_flood(self, shuffle):
        # Two colors per relay message: Δ = 7 lists take up to three
        # rounds (the fourth is empty), and which colors share a chunk
        # follows inbox order (ascending senders).
        graph, seed, kwargs = _LADDER_CELLS["hs-s0"]
        if shuffle:
            graph = _shuffled(graph, 7)
        net = _recipe(
            lambda: improved_d2_color(
                graph, seed=seed, max_rounds=0, **kwargs
            )
        )()
        cfg = _first_input(net)["learn_config"]
        make = _with_input(
            net,
            learn_config=dataclasses.replace(
                cfg, per_message=2, flood_rounds=4
            ),
        )
        _, run_kwargs = _ladder_recipe("improved", "hs-s0")
        ref_net = _assert_randomized_parity(make, **run_kwargs)
        log = dict(next(iter(ref_net.programs.values())).phase_log)
        learn = log["trials"] + log["similarity"] + log["reduce-ladder"]
        for cut in range(learn, learn + 6):
            _assert_randomized_parity(
                make, **dict(run_kwargs, max_rounds=cut)
            )

    @pytest.mark.parametrize("delta", [1, 2])
    def test_parity_with_an_undersized_palette(self, delta):
        # A palette below the d2-degree empties remaining sets, so live
        # nodes fall back to the palette minus their 1-hop colors — and
        # with Δ = 1 that pool empties too (a coin with no pick).
        make = _recipe(
            lambda: improved_d2_color(
                GRAPHS["petersen"], seed=0, delta=delta, max_rounds=0,
                allow_deterministic_fallback=False,
            )
        )
        _assert_randomized_parity(
            make, max_rounds=600, stop_when=all_colored,
            raise_on_timeout=False,
        )

    def test_parity_without_a_stop_monitor(self):
        # Nobody is live after the first finish phases, yet every phase
        # still sends its round of empty forwards until max_rounds.
        make, _ = _ladder_recipe("improved", "hs-s0")
        _assert_randomized_parity(
            make, max_rounds=3_001, raise_on_timeout=False
        )

    @pytest.mark.parametrize("case", ["handlers", "narrow-batch"])
    def test_declines_learn_tail(self, case):
        # The ladder ends with live nodes, and LearnPalette would take
        # the handler path or queue forwards past a narrow batch: the
        # kernel declines, and the generator loop replays the whole
        # run exactly as reference runs it.
        graph, seed, kwargs = _LADDER_CELLS["hs-s0"]
        if case == "handlers":
            make = _recipe(
                lambda: improved_d2_color(
                    graph, seed=seed, max_rounds=0,
                    force_learn_handlers=True, **kwargs
                )
            )
        else:
            make = _with_input(
                _ladder_recipe("improved", "hs-s0")[0](),
                forward_per_round=1,
            )
        _, run_kwargs = _ladder_recipe("improved", "hs-s0")
        ref_net, vec_net = make(), make()
        ref = ref_net.run(backend="reference", **run_kwargs)
        vec, events = _events(
            lambda: vec_net.run(backend="vectorized", **run_kwargs)
        )
        assert events == [
            ("kernel.decline", {
                "kernel": "_randomized_d2_kernel", "cause": "learn-tail",
            }),
            ("exec.fallback", {"cause": "kernel-declined"}),
        ]
        assert vec.outputs == ref.outputs
        assert (vec.halted, vec.stopped_early) == (
            ref.halted, ref.stopped_early
        )
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
        assert _randomized_state(vec_net) == _randomized_state(ref_net)
        log = dict(next(iter(ref_net.programs.values())).phase_log)
        assert "learn-palette" in log

    def test_handler_path_run_that_stops_in_trials_stays_on_the_kernel(
        self,
    ):
        # relay40x8 takes LearnPalette's handler path (Δ = 40), but the
        # trials color every node: the decline point is never reached.
        graph = InstanceCache().get("relay40x8", 0).graphlike()
        make = _recipe(lambda: improved_d2_color(graph, seed=0, max_rounds=0))
        assert not _first_input(make())["learn_config"].small_delta
        ref_net = _assert_randomized_parity(
            make, max_rounds=500_000, stop_when=all_colored,
            raise_on_timeout=False,
        )
        program = next(iter(ref_net.programs.values()))
        assert (program.phase_log, program.phase) == ([], "trials")

    def test_declines_non_uniform_learn_config(self):
        net = _ladder_recipe("improved", "hs-s0")[0]()
        data = _first_input(net)
        other = dict(
            data,
            learn_config=dataclasses.replace(
                data["learn_config"], flood_rounds=2
            ),
        )
        first = next(iter(net.graph))

        def make():
            return Network(
                net.graph, net.program_factory, seed=net._seed,
                policy=net.policy, delta=net.delta,
                inputs={
                    v: other if v == first else data for v in net.graph
                },
            )

        TestReduceLadderKernel._assert_declined(make, "inputs")


def _materialized_case(program_cls):
    """``(make_network, state attrs, run kwargs)`` of a small TRACK run
    of ``program_cls``, the kernel-covered program class."""
    gnp = GRAPHS["gnp24"]
    stop = {"max_rounds": 5_000, "stop_when": all_colored,
            "raise_on_timeout": False}
    color_in, palette_in, target = _reduction_inputs(gnp)
    cases = {
        TrialProgram: (
            lambda: _trial_network(gnp, 3, policy=BandwidthPolicy.track()),
            ("color", "phases_tried", "nbr_colors"),
            stop,
        ),
        LubyDistanceKProgram: (
            lambda: _luby_network(gnp, 3, policy=BandwidthPolicy.track()),
            ("state", "phases"),
            dict(stop, stop_when=_all_decided),
        ),
        LocallyIterativeProgram: (
            lambda: _li_network(gnp, 1, policy=BandwidthPolicy.track())[1],
            ("color", "blocked_phases", "nbr_colors", "succeeded_phase"),
            stop,
        ),
        PartLocallyIterativeD2: (
            lambda: _part_li_network(
                gnp, 3, policy=BandwidthPolicy.track()
            )[1],
            ("color", "blocked_phases", "nbr_colors", "offset"),
            stop,
        ),
        LinialProgram: (
            _recipe(
                lambda: _wide_linial(gnp, parts={v: v % 2 for v in gnp})
            ),
            ("color",),
            {},
        ),
        ColorReductionProgram: (
            _recipe(
                lambda: color_reduction_d2(
                    gnp, color_in, palette_in, target=target
                )
            ),
            TestColorReductionKernel.STATE,
            {},
        ),
        RandomizedD2Program: (
            _recipe(
                lambda: improved_d2_color(
                    gnp, allow_deterministic_fallback=False
                )
            ),
            ("color", "nbr_colors", "phase_log", "phase"),
            stop,
        ),
    }
    return cases[program_cls]


class TestFallbacks:
    """Runs the kernels must decline still execute correctly (on the
    generator loop) when ``backend="vectorized"`` is requested."""

    @pytest.mark.parametrize(
        "program_cls",
        sorted(vectorized.KERNELS, key=lambda cls: cls.__name__),
        ids=lambda cls: cls.__name__,
    )
    def test_materialized_network_falls_back(self, program_cls):
        # Kernels read the NetworkPlan only: a network whose Python
        # nodes already exist runs on the generator loop, unchanged.
        make, state, run_kwargs = _materialized_case(program_cls)
        ref_net, vec_net = make(), make()
        vec_net.materialize()
        assert type(vec_net.programs[0]) is program_cls
        ref = ref_net.run(backend="reference", **run_kwargs)
        vec, causes = _fallback_causes(
            lambda: vec_net.run(backend="vectorized", **run_kwargs)
        )
        assert causes == ["materialized"]
        assert vec.outputs == ref.outputs
        assert (vec.halted, vec.stopped_early) == (
            ref.halted, ref.stopped_early
        )
        assert _metrics_tuple(vec.metrics) == _metrics_tuple(ref.metrics)
        for node in ref_net.programs:
            rp, vp = ref_net.programs[node], vec_net.programs[node]
            for attr in state:
                assert getattr(vp, attr) == getattr(rp, attr), (node, attr)

    def test_custom_stop_when_falls_back(self):
        _assert_trial_parity(
            lambda: _trial_network(
                GRAPHS["petersen"], 1, policy=BandwidthPolicy.track()
            ),
            max_rounds=30,
            stop_when=lambda net, rnd: False,
            raise_on_timeout=False,
        )

    def test_avoid_known_falls_back(self):
        _assert_trial_parity(
            lambda: _trial_network(
                GRAPHS["gnp24"],
                2,
                policy=BandwidthPolicy.track(),
                avoid_known=True,
            ),
            max_rounds=5_000,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    def test_selfloop_graph_falls_back(self):
        graph = nx.cycle_graph(5)
        graph.add_edge(2, 2)

        def make():
            inputs = {v: {"palette": 9} for v in graph.nodes}
            return Network(
                graph,
                TrialProgram,
                seed=1,
                policy=BandwidthPolicy.track(),
                inputs=inputs,
            )

        _assert_trial_parity(
            make,
            max_rounds=12,
            stop_when=all_colored,
            raise_on_timeout=False,
        )

    def test_strict_tiny_budget_error_parity(self):
        graph = nx.path_graph(3)
        errors = {}
        for backend in ("reference", "vectorized"):
            with pytest.raises(BandwidthExceededError) as info:
                _trial_network(
                    graph,
                    0,
                    policy=BandwidthPolicy.strict(beta=1, min_bits=5),
                ).run(
                    backend=backend,
                    max_rounds=100,
                    stop_when=all_colored,
                    raise_on_timeout=False,
                )
            errors[backend] = str(info.value)
        assert errors["reference"] == errors["vectorized"]

    def test_record_rounds_delegates(self):
        net = _trial_network(
            GRAPHS["petersen"], 3, policy=BandwidthPolicy.track()
        )
        result = net.run(
            backend="vectorized",
            max_rounds=5_000,
            stop_when=all_colored,
            raise_on_timeout=False,
            record_rounds=True,
        )
        assert len(result.metrics.per_round) == result.metrics.rounds


def _with_payload(make_network, **changes):
    """A factory of copies of ``make_network()`` whose shared input
    payload (a :class:`UniformInputs`) has ``changes`` applied."""
    net = make_network()
    inputs = net._inputs
    changed = UniformInputs(
        inputs, dict(inputs.payload, **changes), inputs.columns, inputs.index
    )
    return lambda: Network(
        net.graph, net.program_factory, seed=net._seed, policy=net.policy,
        delta=net.delta, inputs=changed,
    )


def _decline_case(kernel):
    """``(make_network, run kwargs, cause)`` of a run ``kernel`` must
    decline."""
    gnp = GRAPHS["gnp24"]
    looped = nx.cycle_graph(6)
    looped.add_edge(2, 2)
    track = BandwidthPolicy.track()
    stop = {"max_rounds": 5_000, "stop_when": all_colored,
            "raise_on_timeout": False}
    custom = dict(stop, stop_when=lambda net, rnd: False)

    def reduction():
        color_in, palette_in, target = _reduction_inputs(gnp)
        make = _recipe(
            lambda: color_reduction_d2(
                gnp, color_in, palette_in, target=target
            )
        )
        return _with_payload(make, target=float(target))

    cases = {
        "_trial_kernel": lambda: (
            lambda: _trial_network(gnp, 2, policy=track, palette=True),
            dict(stop, max_rounds=300), "inputs",
        ),
        "_luby_kernel": lambda: (
            lambda: Network(
                gnp, LubyDistanceKProgram, seed=3, policy=track,
                inputs={v: {"k": 1 + v % 2} for v in gnp},
            ),
            dict(stop, max_rounds=500, stop_when=_all_decided), "inputs",
        ),
        "_locally_iterative_kernel": lambda: (
            lambda: _li_network(gnp, 1, policy=track)[1], custom,
            "stop-monitor",
        ),
        "_part_locally_iterative_kernel": lambda: (
            lambda: _part_li_network(looped, 3, policy=track)[1], stop,
            "self-loops",
        ),
        "_linial_kernel": lambda: (
            _recipe(lambda: _wide_linial(GRAPHS["petersen"])),
            {"stop_when": lambda net, rnd: rnd >= 1,
             "raise_on_timeout": False},
            "stop-monitor",
        ),
        "_color_reduction_kernel": lambda: (reduction(), {}, "inputs"),
        "_randomized_d2_kernel": lambda: (
            _recipe(
                lambda: improved_d2_color(
                    looped, allow_deterministic_fallback=False,
                    max_rounds=0,
                )
            ),
            stop, "self-loops",
        ),
    }
    return cases[kernel]()


_PROGRAM_OF = {fn.__name__: cls for cls, fn in vectorized.KERNELS.items()}


class TestKernelContract:
    """Every kernel declines one way and ends one way."""

    @pytest.mark.parametrize("kernel", sorted(_PROGRAM_OF))
    def test_decline_names_kernel_and_cause(self, kernel):
        make, run_kwargs, cause = _decline_case(kernel)
        state = _materialized_case(_PROGRAM_OF[kernel])[1]

        def outcome(backend):
            net = make()
            try:
                res = net.run(backend=backend, **run_kwargs)
            except Exception as exc:  # noqa: BLE001 - compared below
                return type(exc), str(exc)
            return (
                dict(res.outputs),
                _metrics_tuple(res.metrics),
                res.halted,
                res.stopped_early,
                {
                    v: tuple(getattr(p, attr) for attr in state)
                    for v, p in net.programs.items()
                },
            )

        vec, events = _events(lambda: outcome("vectorized"))
        assert events == [
            ("kernel.decline", {"kernel": kernel, "cause": cause}),
            ("exec.fallback", {"cause": "kernel-declined"}),
        ]
        assert vec == outcome("reference")

    @pytest.mark.parametrize(
        "program_cls",
        [
            LinialProgram, ColorReductionProgram,
            LocallyIterativeProgram, PartLocallyIterativeD2,
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_halted_outputs_are_the_color_table(self, program_cls):
        from repro.results import ArrayColoring

        make = _materialized_case(program_cls)[0]
        ref = make().run(backend="reference")
        net = make()
        vec = net.run(backend="vectorized")
        assert vec.halted and ref.halted
        assert isinstance(vec.outputs, ArrayColoring)
        assert not net.materialized
        assert np.shares_memory(vec.outputs.colors, net.node_colors().colors)
        assert vec.outputs == ref.outputs


class TestArrays:
    def test_csr_matches_networkx_neighborhoods(self):
        graph = nx.gnp_random_graph(30, 0.15, seed=2)
        csr = build_csr(graph)
        for i, v in enumerate(csr.order):
            row = set(
                csr.order[j]
                for j in csr.g_indices[
                    csr.g_indptr[i]:csr.g_indptr[i + 1]
                ]
            )
            assert row == set(graph.neighbors(v))
            ball = set(
                nx.single_source_shortest_path_length(
                    graph, v, cutoff=2
                )
            ) - {v}
            row2 = set(
                csr.order[j]
                for j in csr.g2_indices[
                    csr.g2_indptr[i]:csr.g2_indptr[i + 1]
                ]
            )
            assert row2 == ball

    def test_csr_drops_selfloops_but_flags_them(self):
        graph = nx.path_graph(4)
        graph.add_edge(1, 1)
        csr = build_csr(graph)
        assert csr.has_selfloops
        assert csr.degrees.tolist() == [1, 2, 2, 1]
        for i in range(csr.n):
            row2 = csr.g2_indices[
                csr.g2_indptr[i]:csr.g2_indptr[i + 1]
            ]
            assert i not in row2.tolist()

    def test_row_any_and_row_max_handle_empty_rows(self):
        indptr = np.array([0, 2, 2, 5, 5], dtype=np.int64)
        flags = np.array([0, 0, 1, 0, 0], dtype=bool)
        assert row_any(flags, indptr).tolist() == [
            False, False, True, False,
        ]
        values = np.array([4, 1, 9, 2, 7], dtype=np.int64)
        assert row_max(values, indptr, -1).tolist() == [4, -1, 9, -1]

    def test_int_bits_array_exact_across_int64(self):
        values = [
            0, 1, -1, 2, 7, 8, 255, 256, -257,
            2**31 - 1, 2**31, 2**52, 2**53 - 1, 2**53, 2**53 + 1,
            2**61, 2**62 - 1, -(2**62 - 1), 2**62,
            2**63 - 1, -(2**63 - 1), -(2**63),
        ]
        # Every power of two and its neighbours: float64 rounding
        # carries 2^k - 1 up to 2^k once k > 53.
        for k in range(1, 63):
            for v in (2**k - 1, 2**k, 2**k + 1):
                values += [v, -v]
        got = int_bits_array(np.array(values, dtype=np.int64))
        assert got.tolist() == [int_bits(v) for v in values]
        for small in ([], [5], values[:3]):
            got = int_bits_array(np.array(small, dtype=np.int64))
            assert got.tolist() == [int_bits(v) for v in small]

    def test_graph_registry_is_per_object(self):
        graph = nx.petersen_graph()
        assert csr_for_graph(graph) is csr_for_graph(graph)
        assert csr_for_graph(graph) is not csr_for_graph(
            nx.petersen_graph()
        )


class TestInstanceCSRArtifact:
    def test_csr_memoized_and_counted(self):
        cache = InstanceCache()
        instance = cache.intern(
            "csr-probe", 0, tuple(range(6)),
            tuple((i, i + 1) for i in range(5)),
        )
        assert cache.stats.csr_builds == 0
        first = instance.csr()
        assert instance.csr() is first
        assert cache.stats.csr_builds == 1

    def test_plan_driven_run_leaves_cache_stats_unchanged(self):
        # Regression: a NetworkPlan-driven kernel run must hit the
        # instance cache exactly like a materialized Network run —
        # in particular it must not trigger extra CSR or square
        # builds once the instance artifacts are warm.
        cache = InstanceCache()
        instance = cache.intern(
            "plan-stats-probe", 0, tuple(range(12)),
            tuple((i, (i + 1) % 12) for i in range(12)),
        )
        graph = instance.graph()
        instance.csr()
        instance.square_csr()
        base = cache.stats.snapshot()

        def run(backend):
            net = _trial_network(graph, 4)
            net.run(
                backend=backend,
                max_rounds=5_000,
                stop_when=all_colored,
                raise_on_timeout=False,
            )
            return net

        vec_net = run("vectorized")
        after_vec = cache.stats.snapshot()
        assert not vec_net.materialized  # the plan-driven path ran
        run("reference")
        after_fast = cache.stats.snapshot()

        vec_delta = {
            key: after_vec[key] - base[key] for key in base
        }
        fast_delta = {
            key: after_fast[key] - after_vec[key] for key in base
        }
        assert vec_delta == fast_delta
        assert vec_delta["csr_builds"] == 0
        assert vec_delta["square_builds"] == 0

    def test_pickle_ships_csr_and_seeds_graph_registry(self):
        cache = InstanceCache()
        instance = cache.intern(
            "csr-ship", 1, tuple(range(6)),
            tuple((i, i + 1) for i in range(5)),
        )
        instance.csr()
        clone = pickle.loads(pickle.dumps(instance))
        receiver = InstanceCache()
        receiver.install([clone])
        assert clone._csr is not None
        # graph() must seed the per-graph registry with the shipped
        # artifact, so vectorized runs on the clone never rebuild.
        assert csr_for_graph(clone.graph()) is clone._csr
        assert receiver.stats.csr_builds == 0


@pytest.mark.slow
class TestHugeTier:
    def test_vectorized_matches_records_off_on_huge_gnp(self):
        from repro import registry
        from repro.workloads import instance_cache

        graph = instance_cache().get("gnp-huge-16384", 0).graph()
        spec = registry.get_algorithm("trial")
        fast = spec.run(graph, seed=0, backend="reference")
        vec = spec.run(graph, seed=0, backend="vectorized")
        assert vec.coloring == fast.coloring
        assert vec.rounds == fast.rounds
