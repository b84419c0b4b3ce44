"""Kernel inputs as columns.

``NetworkPlan.read_inputs`` is the one reader every vectorized kernel
takes its inputs through: the values all nodes share plus int64
columns of the per-node int keys.  These tests pin it against the
per-node semantics the kernels' own loops had (it may decline more,
never less), and check that the deterministic chain, which hands its
colorings from stage to stage as column-carrying ``UniformInputs``,
stays bit-identical across engines.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.network import (
    Network,
    NetworkPlan,
    UniformInputs,
    column_inputs,
)
from repro.det.det_d2color import deterministic_d2_color
from repro.det.eps_d2coloring import eps_d2_color
from repro.det.g_coloring import deg_plus_one_coloring_g
from repro.exec import get_backend, use_backend
from repro.exec.base import ExecutionBackend
from repro.graphs.generators import random_regular
from repro.obs import NullRecorder, use_recorder
from repro.results import ArrayColoring
from repro.workloads.cache import InstanceCache

_KEYS = ("c", "d")


def _plan(inputs, n=5):
    graph = nx.path_graph(n)
    return Network(graph, object, inputs=inputs).plan()


def _oracle(order, inputs, columns):
    """The per-node semantics: every non-column key shared (same type,
    equal), every column value an exact int in [0, 2⁶³) or the
    default of a node lacking it."""
    rows = [inputs.get(node, {}) for node in order]
    shared = None
    for data in rows:
        rest = {k: v for k, v in data.items() if k not in columns}
        if shared is None:
            shared = rest
        elif rest.keys() != shared.keys() or any(
            type(v) is not type(shared[k]) or v != shared[k]
            for k, v in rest.items()
        ):
            return None
    cols = {}
    for key, default in columns.items():
        out = []
        for i, data in enumerate(rows):
            if key not in data:
                if default is None:
                    return None
                out.append(
                    default if isinstance(default, int) else default[i]
                )
                continue
            value = data[key]
            if type(value) is not int or not 0 <= value < 2**63:
                return None
            out.append(value)
        cols[key] = out
    return shared, cols


def _as_lists(read):
    if read is None:
        return None
    shared, cols = read
    return shared, {k: np.asarray(v).tolist() for k, v in cols.items()}


_values = st.one_of(
    st.integers(0, 3),
    st.integers(-3, -1),
    st.sampled_from(
        [True, False, 1.0, np.int64(2), 2**63 - 1, 2**63, 2**70, None]
    ),
)


@st.composite
def _inputs(draw):
    """Per-node input dicts over 1-6 nodes: shared keys drawn from a
    few values (so they often agree), column keys from ints, bad
    values and absences."""
    n = draw(st.integers(1, 6))
    uniform = draw(st.booleans())
    rows = []
    for _ in range(n if not uniform else 1):
        data = {}
        for key in ("s", "t"):
            if draw(st.integers(0, 4)):
                data[key] = draw(st.sampled_from([0, 1, (1, 2), "x"]))
        for key in _KEYS:
            if draw(st.integers(0, 3)):
                data[key] = draw(_values)
        rows.append(data)
    if uniform:
        rows = rows * n
    columns = {}
    for key in _KEYS:
        if draw(st.booleans()):
            columns[key] = draw(
                st.sampled_from([None, 0, 7, np.arange(n) + 10])
            )
    return n, dict(enumerate(rows)), columns


class TestReader:
    @settings(max_examples=300, deadline=None)
    @given(_inputs())
    def test_matches_the_per_node_semantics(self, case):
        n, inputs, columns = case
        plan = _plan(inputs, n)
        expected = _oracle(plan.order, inputs, columns)
        assert _as_lists(plan.read_inputs(**columns)) == expected
        # One shared payload reads the same as n equal dicts.
        if all(inputs[v] == inputs[0] for v in inputs):
            shared = UniformInputs(range(n), inputs[0])
            assert _as_lists(
                _plan(shared, n).read_inputs(**columns)
            ) == _oracle(range(n), dict.fromkeys(range(n), inputs[0]),
                         columns)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=6),
        st.booleans(),
    )
    def test_column_inputs_read_like_their_dicts(self, colors, extra):
        graph = nx.path_graph(len(colors))
        column = dict(enumerate(colors))
        inputs = column_inputs(
            graph, {"q": 3}, color_in=column,
            part=column if extra else None,
        )
        as_dicts = {v: inputs.get(v) for v in graph.nodes}
        assert all(type(d["color_in"]) is int for d in as_dicts.values())
        keys = {"color_in": None, "part": 0}
        got = Network(graph, object, inputs=inputs).plan().read_inputs(
            **keys
        )
        assert _as_lists(got) == _oracle(range(len(colors)), as_dicts, keys)

    @pytest.mark.parametrize(
        "bad", [True, 1.5, np.int64(3), 2**63, -1, None, "3"],
        ids=repr,
    )
    def test_declines_a_bad_column_value(self, bad):
        payload = {"q": 5, "color_in": bad}
        assert _plan(UniformInputs(range(5), payload)).read_inputs(
            color_in=None
        ) is None
        rows = {v: {"q": 5, "color_in": v} for v in range(5)}
        rows[3]["color_in"] = bad
        assert _plan(rows).read_inputs(color_in=None) is None

    def test_declines_differing_shared_values(self):
        rows = {v: {"q": 5, "color_in": v} for v in range(5)}
        assert _plan(rows).read_inputs(color_in=None) is not None
        rows[2]["q"] = 5.0  # equal, but another type
        assert _plan(rows).read_inputs(color_in=None) is None
        rows[2]["q"] = np.arange(2)  # not comparable
        assert _plan(rows).read_inputs(color_in=None) is None

    def test_declines_an_unread_column(self):
        # A column the kernel reads as shared is per-node state it
        # would ignore.
        graph = nx.path_graph(5)
        inputs = column_inputs(graph, {"q": 5}, part={v: v for v in graph})
        plan = Network(graph, object, inputs=inputs).plan()
        assert plan.read_inputs() is None
        shared, cols = plan.read_inputs(part=None)
        assert shared == {"q": 5}
        assert cols["part"].tolist() == [0, 1, 2, 3, 4]

    def test_an_aligned_coloring_is_taken_as_it_is(self):
        graph = random_regular(4, 24, seed=1)
        csr = graph.csr_adjacency
        colors = np.arange(csr.n, dtype=np.int64) % 7
        coloring = ArrayColoring(csr.order, colors, csr.index)
        inputs = column_inputs(graph, {}, color_in=coloring)
        assert np.shares_memory(inputs.columns["color_in"], colors)
        plan = Network(graph, object, inputs=inputs).plan()
        _shared, cols = plan.read_inputs(color_in=None)
        assert np.shares_memory(cols["color_in"], colors)
        assert inputs.get(3) == {"color_in": 3}

    def test_missing_nodes_raise_at_the_handoff(self):
        graph = nx.path_graph(4)
        with pytest.raises(KeyError):
            column_inputs(graph, {}, color_in={0: 1, 1: 2})


class _Capturing(ExecutionBackend):
    """Delegates to ``inner`` and keeps every network it runs."""

    name = "capturing"

    def __init__(self, inner):
        self.inner = get_backend(inner)
        self.networks = []

    def execute(self, network, **kwargs):
        self.networks.append(network)
        return self.inner.execute(network, **kwargs)


_STATE = (
    "color", "blocked_phases", "succeeded_phase", "d2_colors",
    "recolored_in_phase", "nbr_colors", "offset", "local", "part",
)


def _program_state(network):
    return {
        node: {
            attr: getattr(program, attr)
            for attr in _STATE
            if hasattr(program, attr)
        }
        for node, program in network.programs.items()
    }


def _traced_run(driver, backend):
    """``driver()`` on ``backend``: its result, every network it ran,
    and the ``exec.fallback`` causes."""
    capture = _Capturing(backend)
    causes = []

    class Rec(NullRecorder):
        def event(self, name, attrs=None):
            if name == "exec.fallback":
                causes.append(attrs["cause"])

    with use_recorder(Rec()), use_backend(capture):
        result = driver()
    return result, capture.networks, causes


def _params(result):
    return {
        key: dict(value) if isinstance(value, ArrayColoring) else value
        for key, value in result.params.items()
    }


_DRIVERS = {
    "deterministic-d2": deterministic_d2_color,
    "eps-d2-coloring": lambda graph: eps_d2_color(graph, eps=0.5),
    "g-coloring": deg_plus_one_coloring_g,
    "parts-g": lambda graph: deg_plus_one_coloring_g(
        graph, parts={v: v % 3 for v in graph.nodes}
    ),
}
_CHAIN_GRAPHS = {
    "petersen": nx.petersen_graph,
    "rr4_40": lambda: random_regular(4, 40, seed=3),
    "gnp30": lambda: nx.gnp_random_graph(30, 0.15, seed=2),
    "shuffled": lambda: nx.relabel_nodes(
        nx.cycle_graph(12), {v: (7 * v) % 12 for v in range(12)}
    ),
}


class TestChainParity:
    """reference ≡ vectorized on the drivers that chain stages:
    colorings, rounds, metrics, params (``q``, ``blocked_phases``)
    and every stage's materialized program state."""

    @pytest.mark.parametrize("graph_name", sorted(_CHAIN_GRAPHS))
    @pytest.mark.parametrize("driver", sorted(_DRIVERS))
    def test_engines_agree(self, driver, graph_name):
        graph = _CHAIN_GRAPHS[graph_name]()
        run = _DRIVERS[driver]
        ref, ref_nets, _ = _traced_run(lambda: run(graph), "reference")
        vec, vec_nets, causes = _traced_run(lambda: run(graph), "vectorized")
        assert dict(vec.coloring) == dict(ref.coloring)
        assert vec.rounds == ref.rounds
        assert repr(vec.metrics) == repr(ref.metrics)
        assert vec.phase_rounds() == ref.phase_rounds()
        assert [repr(p.metrics) for p in vec.phases] == [
            repr(p.metrics) for p in ref.phases
        ]
        assert _params(vec) == _params(ref)
        assert len(vec_nets) == len(ref_nets)
        for ref_net, vec_net in zip(ref_nets, vec_nets):
            assert _program_state(vec_net) == _program_state(ref_net)
        if driver == "deterministic-d2":
            assert causes == []  # every stage ran as a kernel

    def test_stages_hand_columns_on(self):
        # Linial and color reduction return the kernel's color array;
        # each next stage takes it as a column, with no dict between.
        graph = random_regular(4, 64, seed=1)
        with use_backend("vectorized"):
            result = deterministic_d2_color(graph)
        assert isinstance(result.coloring, ArrayColoring)


class TestDeterministicCell:
    """A vectorized ``deterministic-d2`` sweep cell on the huge tier
    reads every stage's inputs as columns: no node's input dict is
    ever built."""

    def test_no_input_dict_is_built(self, monkeypatch):
        import repro.workloads
        from repro.exec.sweep import SweepCell, run_cell
        from repro.verify.checker import check_d2_coloring

        cache = InstanceCache()
        monkeypatch.setattr(repro.workloads, "instance_cache", lambda: cache)
        cell = SweepCell.from_workload("deterministic-d2", "rr4-huge-16384", 0)

        def no_dict(*_args, **_kwargs):
            raise AssertionError("built a per-node input dict")

        # Every stage ships a UniformInputs whose kernel reads it as it
        # is; reading it node by node, or replaying a declined stage on
        # the generator loop, would go through ``get``.
        shipped = []
        read_inputs = NetworkPlan.read_inputs

        def spy(plan, **columns):
            shipped.append(type(plan._inputs))
            return read_inputs(plan, **columns)

        monkeypatch.setattr(NetworkPlan, "read_inputs", spy)
        monkeypatch.setattr(UniformInputs, "get", no_dict)
        monkeypatch.setattr(UniformInputs, "__getitem__", no_dict)
        res = run_cell(cell, inner="vectorized")
        monkeypatch.undo()
        assert res.ok, res.error
        assert shipped == [UniformInputs] * 3
        instance = cache.get("rr4-huge-16384", 0)
        report = check_d2_coloring(
            instance.graphlike(), res.coloring, res.palette_size,
            adjacency=instance.csr(),
        )
        assert report.valid
        # The chain's rounds: Linial 2, locally-iterative 24 and color
        # reduction 102 on this instance.
        assert res.rounds == 128
