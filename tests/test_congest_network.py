"""Tests of the synchronous executor: delivery, halting, metering."""

import networkx as nx
import pytest

from repro.congest.errors import (
    BandwidthExceededError,
    NonterminationError,
    ProtocolViolationError,
)
from repro.congest.network import Network, log2_ceil, run_protocol
from repro.congest.node import FunctionProgram, NodeProgram
from repro.congest.policy import BandwidthPolicy

from conftest import RecordingBackend

#: The one round loop with per-round records on and off (its metering
#: hot path, ``fastpath``).
LOOP_MODES = [
    pytest.param(RecordingBackend(), id="reference"),
    pytest.param("reference", id="fastpath"),
]


def proto_factory(fn):
    return FunctionProgram.factory(fn)


class TestDelivery:
    def test_one_round_neighbor_exchange(self):
        def proto(ctx):
            inbox = yield {
                v: ("id", ctx.node) for v in ctx.neighbors
            }
            return sorted(payload[1] for payload in inbox.values())

        result = run_protocol(nx.path_graph(4), proto_factory(proto))
        assert result.outputs == {
            0: [1],
            1: [0, 2],
            2: [1, 3],
            3: [2],
        }

    def test_broadcast_reaches_all_neighbors(self):
        def proto(ctx):
            from repro.congest.message import Broadcast

            inbox = yield Broadcast(("hi", ctx.node))
            return len(inbox)

        result = run_protocol(
            nx.star_graph(5), proto_factory(proto)
        )
        assert result.outputs[0] == 5
        assert all(result.outputs[v] == 1 for v in range(1, 6))

    def test_messages_delivered_next_round_not_same(self):
        def proto(ctx):
            first = yield {v: ("a",) for v in ctx.neighbors}
            second = yield {}
            return (len(first), len(second))

        result = run_protocol(nx.path_graph(2), proto_factory(proto))
        # round-1 traffic arrives with the first resume; nothing later
        assert result.outputs[0] == (1, 0)

    def test_empty_outbox_allowed(self):
        def proto(ctx):
            yield {}
            return "done"

        result = run_protocol(nx.path_graph(3), proto_factory(proto))
        assert set(result.outputs.values()) == {"done"}

    def test_sending_to_non_neighbor_rejected(self):
        def proto(ctx):
            yield {ctx.node + 2: ("bad",)} if ctx.node == 0 else {}
            return None

        with pytest.raises(ProtocolViolationError):
            run_protocol(nx.path_graph(4), proto_factory(proto))

    def test_non_dict_outbox_rejected(self):
        def proto(ctx):
            yield ["not", "a", "dict"]

        with pytest.raises(ProtocolViolationError):
            run_protocol(nx.path_graph(2), proto_factory(proto))


class TestRoundsAccounting:
    def test_zero_round_protocol(self):
        def proto(ctx):
            return ctx.node
            yield  # pragma: no cover

        result = run_protocol(nx.path_graph(3), proto_factory(proto))
        assert result.metrics.rounds == 0

    def test_trailing_local_computation_not_charged(self):
        def proto(ctx):
            yield {v: ("m",) for v in ctx.neighbors}
            return "out"

        result = run_protocol(nx.path_graph(3), proto_factory(proto))
        assert result.metrics.rounds == 1

    def test_silent_round_with_running_nodes_counts(self):
        def proto(ctx):
            yield {}
            yield {}
            return None

        result = run_protocol(nx.path_graph(2), proto_factory(proto))
        assert result.metrics.rounds == 2

    def test_staggered_halting(self):
        def proto(ctx):
            rounds = ctx.node + 1
            for _ in range(rounds):
                yield {v: ("x",) for v in ctx.neighbors}
            return rounds

        result = run_protocol(nx.path_graph(3), proto_factory(proto))
        assert result.outputs == {0: 1, 1: 2, 2: 3}
        assert result.metrics.rounds == 3


class TestTermination:
    def test_max_rounds_raises_by_default(self):
        def proto(ctx):
            while True:
                yield {}

        with pytest.raises(NonterminationError):
            run_protocol(
                nx.path_graph(2),
                proto_factory(proto),
                max_rounds=5,
            )

    def test_max_rounds_soft_stop(self):
        def proto(ctx):
            while True:
                yield {}

        net = Network(nx.path_graph(2), proto_factory(proto))
        result = net.run(max_rounds=5, raise_on_timeout=False)
        assert not result.halted
        assert result.metrics.rounds == 5

    def test_stop_when_monitor(self):
        def proto(ctx):
            count = 0
            while True:
                yield {}
                count += 1
                ctx.data["count"] = count

        def monitor(network, round_index):
            return round_index >= 3

        net = Network(nx.path_graph(2), proto_factory(proto))
        result = net.run(stop_when=monitor, raise_on_timeout=False)
        assert result.stopped_early


class TestStopWhenFinalRound:
    """Regression: a monitor firing on the exact final admissible
    round is a successful early stop, not non-termination.

    The monitor is consulted *before* the ``max_rounds`` guard.  A
    protocol whose stop condition is reached after precisely
    ``max_rounds`` communication rounds used to be reported as timed
    out (``NonterminationError`` / ``halted=False, stopped_early=
    False``) even though the monitor would have confirmed success.
    """

    ROUNDS = 3

    @staticmethod
    def _proto(ctx):
        # Exchange for exactly ROUNDS rounds — marking completion as
        # the last message goes out, exactly like an all-colored
        # monitor observes — then idle forever: only the monitor can
        # end the run.
        for i in range(TestStopWhenFinalRound.ROUNDS):
            if i == TestStopWhenFinalRound.ROUNDS - 1:
                ctx.data["done"] = True
            yield {v: ("m", i) for v in ctx.neighbors}
        while True:
            yield {}

    @staticmethod
    def _monitor(network, round_index):
        return all(
            ctx.data.get("done") for ctx in network.contexts.values()
        )

    @pytest.mark.parametrize("backend", LOOP_MODES)
    def test_monitor_on_final_round_is_stopped_early(self, backend):
        net = Network(nx.path_graph(3), proto_factory(self._proto))
        result = net.run(
            max_rounds=self.ROUNDS,
            stop_when=self._monitor,
            backend=backend,
        )
        assert result.stopped_early
        assert not result.halted
        assert result.metrics.rounds == self.ROUNDS

    @pytest.mark.parametrize("backend", LOOP_MODES)
    def test_monitor_on_final_round_does_not_raise(self, backend):
        # Even with raise_on_timeout (the default), reaching the stop
        # condition on the final round must not raise.
        net = Network(nx.path_graph(3), proto_factory(self._proto))
        result = net.run(
            max_rounds=self.ROUNDS,
            stop_when=self._monitor,
            raise_on_timeout=True,
            backend=backend,
        )
        assert result.stopped_early

    @pytest.mark.parametrize("backend", LOOP_MODES)
    def test_true_timeout_still_raises(self, backend):
        # One round short: the monitor never fires, so the timeout
        # must still be a timeout.
        net = Network(nx.path_graph(3), proto_factory(self._proto))
        with pytest.raises(NonterminationError):
            net.run(
                max_rounds=self.ROUNDS - 1,
                stop_when=self._monitor,
                backend=backend,
            )

    @pytest.mark.parametrize("backend", LOOP_MODES)
    def test_true_timeout_soft_stop_not_stopped_early(self, backend):
        net = Network(nx.path_graph(3), proto_factory(self._proto))
        result = net.run(
            max_rounds=self.ROUNDS - 1,
            stop_when=self._monitor,
            raise_on_timeout=False,
            backend=backend,
        )
        assert not result.stopped_early
        assert not result.halted


class TestMetering:
    def test_message_and_bit_totals(self):
        def proto(ctx):
            yield {v: ("m", 3) for v in ctx.neighbors}
            return None

        result = run_protocol(nx.path_graph(3), proto_factory(proto))
        assert result.metrics.total_messages == 4  # 2 edges, 2 dirs
        assert result.metrics.total_bits > 0
        assert result.metrics.max_message_bits > 0

    def test_strict_policy_raises_on_oversize(self):
        def proto(ctx):
            big = tuple(range(1000))
            yield {v: big for v in ctx.neighbors}
            return None

        with pytest.raises(BandwidthExceededError):
            run_protocol(
                nx.path_graph(2),
                proto_factory(proto),
                policy=BandwidthPolicy.strict(),
            )

    def test_track_policy_counts_violations(self):
        def proto(ctx):
            big = tuple(range(1000))
            yield {v: big for v in ctx.neighbors}
            return None

        result = run_protocol(
            nx.path_graph(2),
            proto_factory(proto),
            policy=BandwidthPolicy.track(),
        )
        assert result.metrics.violations == 2
        assert not result.metrics.compliant

    def test_unbounded_policy_never_flags(self):
        def proto(ctx):
            big = tuple(range(1000))
            yield {v: big for v in ctx.neighbors}
            return None

        result = run_protocol(
            nx.path_graph(2),
            proto_factory(proto),
            policy=BandwidthPolicy.unbounded(),
        )
        assert result.metrics.violations == 0

    def test_per_round_recording(self):
        def proto(ctx):
            yield {v: ("a",) for v in ctx.neighbors}
            yield {}
            return None

        net = Network(nx.path_graph(2), proto_factory(proto))
        result = net.run(record_rounds=True)
        assert len(result.metrics.per_round) == result.metrics.rounds
        assert result.metrics.per_round[0].messages == 2


class TestConstruction:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            Network(nx.Graph(), proto_factory(lambda ctx: iter(())))

    def test_non_int_labels_rejected(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        with pytest.raises(TypeError):
            Network(graph, proto_factory(lambda ctx: iter(())))

    def test_first_bad_label_is_named(self):
        graph = nx.path_graph(3)
        graph.add_edge(2, 2.5)
        graph.add_edge(2.5, "c")
        with pytest.raises(
            TypeError, match=r"identifiers\); got 2\.5$"
        ):
            Network(graph, proto_factory(lambda ctx: iter(())))

    def test_bool_labels_accepted(self):
        graph = nx.Graph([(False, True)])
        assert Network(graph, proto_factory(lambda ctx: iter(()))).n == 2

    def test_inputs_reach_nodes(self):
        def proto(ctx):
            return ctx.data["x"]
            yield  # pragma: no cover

        result = run_protocol(
            nx.path_graph(2),
            proto_factory(proto),
            inputs={0: {"x": 10}, 1: {"x": 20}},
        )
        assert result.outputs == {0: 10, 1: 20}

    def test_delta_defaults_to_max_degree(self):
        def proto(ctx):
            return ctx.delta
            yield  # pragma: no cover

        result = run_protocol(
            nx.star_graph(4), proto_factory(proto)
        )
        assert set(result.outputs.values()) == {4}

    def test_neighbors_sorted(self):
        def proto(ctx):
            return ctx.neighbors
            yield  # pragma: no cover

        result = run_protocol(nx.cycle_graph(4), proto_factory(proto))
        for neighbors in result.outputs.values():
            assert list(neighbors) == sorted(neighbors)


class TestDeterminism:
    def test_same_seed_same_transcript(self):
        def proto(ctx):
            values = []
            for _ in range(3):
                inbox = yield {
                    v: ("r", ctx.rng.randrange(1000))
                    for v in ctx.neighbors
                }
                values.append(
                    sorted(p[1] for p in inbox.values())
                )
            return values

        first = run_protocol(
            nx.cycle_graph(5), proto_factory(proto), seed=42
        )
        second = run_protocol(
            nx.cycle_graph(5), proto_factory(proto), seed=42
        )
        assert first.outputs == second.outputs

    def test_different_seeds_differ(self):
        def proto(ctx):
            return ctx.rng.randrange(10**9)
            yield  # pragma: no cover

        a = run_protocol(
            nx.path_graph(4), proto_factory(proto), seed=1
        )
        b = run_protocol(
            nx.path_graph(4), proto_factory(proto), seed=2
        )
        assert a.outputs != b.outputs


class TestHelpers:
    def test_log2_ceil(self):
        assert log2_ceil(1) == 1
        assert log2_ceil(2) == 1
        assert log2_ceil(3) == 2
        assert log2_ceil(1024) == 10
        assert log2_ceil(1025) == 11

    def test_idle_helper(self):
        class Prog(NodeProgram):
            def run(self):
                yield from self.idle(3)
                return "ok"

        result = run_protocol(nx.path_graph(2), Prog)
        assert set(result.outputs.values()) == {"ok"}
        assert result.metrics.rounds == 3
