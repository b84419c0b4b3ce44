"""Unit tests of the execution-backend machinery (repro.exec)."""

import networkx as nx
import pytest

from repro import registry
from repro.congest.errors import (
    BandwidthExceededError,
    ProtocolViolationError,
)
from repro.congest.message import Broadcast
from repro.congest.network import Network, run_protocol
from repro.congest.node import FunctionProgram
from repro.congest.policy import BandwidthPolicy
from repro.exec import (
    REFERENCE,
    VECTORIZED,
    SweepBackend,
    SweepCell,
    available_backends,
    current_backend,
    get_backend,
    grid_cells,
    run_cell,
    use_backend,
)

from conftest import RecordingBackend

#: The one loop with per-round records on (``reference``) and off
#: (``fastpath``, its metering hot path), and the array engine.
ROUND_BACKENDS = [
    pytest.param(RecordingBackend(), id="reference"),
    pytest.param("reference", id="fastpath"),
    "vectorized",
]


def proto_factory(fn):
    return FunctionProgram.factory(fn)


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


class TestSelection:
    def test_default_backends_registered(self):
        assert available_backends() == ("reference", "vectorized")

    def test_get_backend_by_name_and_instance(self):
        assert get_backend("reference") is REFERENCE
        assert get_backend(VECTORIZED) is VECTORIZED

    def test_retired_fastpath_name_unknown(self):
        # Retired engine name: no alias resolves it.
        with pytest.raises(KeyError, match="fastpath"):
            get_backend("fastpath")

    def test_retired_sweep_name_unknown(self):
        # The grid executor is no engine: its old name resolves to
        # nothing, and the conformance runner rejects it up front.
        from repro.conformance import run_conformance

        with pytest.raises(KeyError, match="sweep"):
            get_backend("sweep")
        with pytest.raises(KeyError, match="sweep"):
            run_conformance(backend="sweep")

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(KeyError, match="reference"):
            get_backend("warp-drive")

    def test_default_is_reference(self):
        assert current_backend() is REFERENCE

    def test_use_backend_nests_and_restores(self):
        assert current_backend() is REFERENCE
        with use_backend("vectorized"):
            assert current_backend() is VECTORIZED
            with use_backend("reference"):
                assert current_backend() is REFERENCE
            assert current_backend() is VECTORIZED
        assert current_backend() is REFERENCE

    def test_ambient_backend_drives_network_run(self):
        def proto(ctx):
            yield Broadcast(("m", ctx.node))
            return ctx.node

        graph = nx.cycle_graph(5)
        recording = RecordingBackend()
        with use_backend(recording):
            ambient = run_protocol(
                graph, proto_factory(proto), policy=BandwidthPolicy.unbounded()
            )
        assert len(recording.runs) == 1
        # UNBOUNDED runs count messages but do not size them.
        assert ambient.metrics.total_bits == 0
        assert ambient.metrics.total_messages == 5

    def test_spec_run_backend_param(self):
        spec = registry.get_algorithm("trial")
        graph = nx.cycle_graph(6)
        ref = spec.run(graph, seed=2, backend="reference")
        fast = spec.run(graph, seed=2, backend=VECTORIZED)
        assert ref.coloring == fast.coloring


class TestFastpathParity:
    """Behavioural parity on hand-written protocols (edge cases the
    registry algorithms do not exercise directly), with the loop's
    per-round records on and off and on the array engine."""

    @pytest.mark.parametrize("backend", ROUND_BACKENDS)
    def test_broadcast_counts_once(self, backend):
        def proto(ctx):
            yield Broadcast(("b", ctx.node))
            return None

        result = run_protocol(
            nx.star_graph(4), proto_factory(proto), backend=backend
        )
        # A broadcast is one metered message, fanned out to all.
        assert result.metrics.total_messages == 5

    @pytest.mark.parametrize("backend", ROUND_BACKENDS)
    def test_strict_policy_raises(self, backend):
        def proto(ctx):
            yield {v: tuple(range(500)) for v in ctx.neighbors}
            return None

        with pytest.raises(BandwidthExceededError):
            run_protocol(
                nx.path_graph(2),
                proto_factory(proto),
                policy=BandwidthPolicy.strict(),
                backend=backend,
            )

    @pytest.mark.parametrize("backend", ROUND_BACKENDS)
    def test_non_neighbor_send_rejected(self, backend):
        def proto(ctx):
            yield {ctx.node + 2: ("bad",)} if ctx.node == 0 else {}
            return None

        with pytest.raises(ProtocolViolationError):
            run_protocol(
                nx.path_graph(4), proto_factory(proto), backend=backend
            )

    @pytest.mark.parametrize("backend", ROUND_BACKENDS)
    def test_non_dict_outbox_rejected(self, backend):
        def proto(ctx):
            yield ["not", "a", "dict"]

        with pytest.raises(ProtocolViolationError):
            run_protocol(
                nx.path_graph(2), proto_factory(proto), backend=backend
            )

    def test_track_metrics_identical(self):
        def proto(ctx):
            yield {v: tuple(range(300)) for v in ctx.neighbors}
            yield Broadcast(("tiny", ctx.node))
            return ctx.node

        graph = nx.cycle_graph(6)
        ref = run_protocol(
            graph, proto_factory(proto), backend=RecordingBackend()
        )
        fast = run_protocol(
            graph, proto_factory(proto), backend="reference"
        )
        assert ref.outputs == fast.outputs
        assert _metrics_tuple(ref.metrics) == _metrics_tuple(
            fast.metrics
        )
        assert ref.metrics.violations > 0  # oversize tracked on both

    def test_record_rounds_delegates_to_reference(self):
        def proto(ctx):
            yield {v: ("a",) for v in ctx.neighbors}
            yield {}
            return None

        net = Network(nx.path_graph(2), proto_factory(proto))
        result = net.run(record_rounds=True, backend="vectorized")
        assert len(result.metrics.per_round) == result.metrics.rounds
        first = result.metrics.per_round[0]
        assert (first.round_index, first.messages) == (0, 2)
        assert first.bits == result.metrics.total_bits
        assert first.max_message_bits == result.metrics.max_message_bits

    @pytest.mark.parametrize("backend", ROUND_BACKENDS)
    def test_rounds_accounting_parity(self, backend):
        # Zero-round and trailing-local-computation accounting.
        def zero(ctx):
            return ctx.node
            yield  # pragma: no cover

        assert (
            run_protocol(
                nx.path_graph(3), proto_factory(zero), backend=backend
            ).metrics.rounds
            == 0
        )

        def trailing(ctx):
            yield {v: ("m",) for v in ctx.neighbors}
            return "out"

        assert (
            run_protocol(
                nx.path_graph(3),
                proto_factory(trailing),
                backend=backend,
            ).metrics.rounds
            == 1
        )


class TestSweepBackend:
    def _cells(self, seeds=(0,)):
        specs = [
            registry.get_algorithm(name)
            for name in ("trial", "greedy-oracle")
        ]
        return grid_cells(specs=specs, seeds=seeds)

    def test_cells_filter_unsupported(self):
        cells = self._cells()
        assert cells, "grid should not be empty"
        assert all(isinstance(c, SweepCell) for c in cells)

    def test_cell_roundtrip_and_delta(self):
        graph = nx.petersen_graph()
        cell = SweepCell.from_graph("trial", "petersen", 3, graph)
        rebuilt = cell.graph()
        assert sorted(rebuilt.nodes) == sorted(graph.nodes)
        assert {tuple(sorted(e)) for e in rebuilt.edges} == {
            tuple(sorted(e)) for e in graph.edges
        }
        assert cell.delta() == 3

    def test_run_cell_error_capture(self):
        cell = SweepCell(
            algorithm="no-such-algorithm",
            scenario="x",
            seed=0,
            nodes=(0, 1),
            edges=((0, 1),),
        )
        result = run_cell(cell)
        assert not result.ok
        assert "KeyError" in result.error

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_grid_deterministic_across_executors(self, executor):
        cells = self._cells(seeds=(0, 1))
        baseline = SweepBackend(executor="serial").run_grid(cells)
        swept = SweepBackend(
            executor=executor, max_workers=4
        ).run_grid(cells)
        assert swept.fingerprint() == baseline.fingerprint()
        assert swept.ok, [c.error for c in swept.failures]

    def test_aggregate_metrics_merges_rounds(self):
        swept = SweepBackend(executor="serial").run_grid(self._cells())
        agg = swept.aggregate_metrics()
        assert agg.rounds == sum(c.rounds for c in swept.cells)
        assert agg.total_messages == sum(
            c.metrics.total_messages for c in swept.cells
        )

    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError):
            SweepBackend(executor="rocket")
