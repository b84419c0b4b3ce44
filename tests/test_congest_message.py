"""Unit tests for message payload sizing, multiplexing, bandwidth
policy edge cases, and Broadcast metering."""

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.congest.errors import BandwidthExceededError
from repro.congest.message import (
    Broadcast,
    bit_size,
    int_bits,
    merged,
    total_bits,
)
from repro.congest.network import Network
from repro.congest.node import FunctionProgram
from repro.congest.policy import BandwidthMode, BandwidthPolicy


class TestIntBits:
    def test_zero_costs_one_bit(self):
        assert int_bits(0) == 1

    def test_one_costs_one_bit(self):
        assert int_bits(1) == 1

    def test_powers_of_two(self):
        assert int_bits(2) == 2
        assert int_bits(255) == 8
        assert int_bits(256) == 9

    def test_negative_adds_sign_bit(self):
        assert int_bits(-1) == int_bits(1) + 1

    @given(st.integers(min_value=0, max_value=2**64))
    def test_monotone_in_magnitude(self, value):
        assert int_bits(value + 1) >= int_bits(value)


class TestBitSize:
    def test_none_is_one_bit(self):
        assert bit_size(None) == 1

    def test_bool_is_one_bit(self):
        assert bit_size(True) == 1
        assert bit_size(False) == 1

    def test_int_matches_int_bits(self):
        assert bit_size(1000) == int_bits(1000)

    def test_string_charged_per_char(self):
        assert bit_size("ab") == 12

    def test_empty_string_nonzero(self):
        assert bit_size("") >= 1

    def test_tuple_sums_elements_plus_overhead(self):
        flat = bit_size((1, 2, 3))
        assert flat > bit_size(1) + bit_size(2) + bit_size(3)

    def test_nested_tuples(self):
        assert bit_size(((1, 2), 3)) > bit_size((1, 2))

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError):
            bit_size(3.14)

    def test_rejects_dict_payload(self):
        with pytest.raises(TypeError):
            bit_size({"a": 1})

    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**32), max_size=20
        )
    )
    def test_longer_tuples_cost_more(self, values):
        shorter = bit_size(tuple(values))
        longer = bit_size(tuple(values) + (0,))
        assert longer > shorter

    def test_log_scale_for_ids(self):
        # An ID in [0, n) costs O(log n) bits: the CONGEST premise.
        assert bit_size(2**20 - 1) == 20


def _run_star(fn, policy, n_leaves=3, record_rounds=False):
    """Run ``fn`` at every node of a star graph under ``policy``."""
    graph = nx.star_graph(n_leaves)
    network = Network(
        graph, FunctionProgram.factory(fn), policy=policy
    )
    return network.run(max_rounds=10, record_rounds=record_rounds)


def _hub_broadcasts_once(payload):
    """Protocol: the hub broadcasts ``payload`` once; leaves listen."""

    def fn(ctx):
        if ctx.node == 0:
            yield Broadcast(payload)
        else:
            yield {}

    return fn


class TestBandwidthPolicyEdgeCases:
    def test_zero_bandwidth_budget(self):
        policy = BandwidthPolicy(BandwidthMode.TRACK, beta=0, min_bits=0)
        assert policy.budget_bits(1) == 0
        assert policy.budget_bits(10**6) == 0

    def test_zero_bandwidth_tracks_every_message(self):
        policy = BandwidthPolicy(BandwidthMode.TRACK, beta=0, min_bits=0)
        run = _run_star(_hub_broadcasts_once((1, 2)), policy)
        assert run.metrics.violations == run.metrics.total_messages == 1
        assert not run.metrics.compliant
        assert run.metrics.worst_violation_bits == bit_size((1, 2))

    def test_zero_bandwidth_strict_raises(self):
        policy = BandwidthPolicy(BandwidthMode.STRICT, beta=0, min_bits=0)
        with pytest.raises(BandwidthExceededError):
            _run_star(_hub_broadcasts_once((1, 2)), policy)

    def test_unbounded_never_flags(self):
        policy = BandwidthPolicy.unbounded()
        huge = tuple(range(512))
        run = _run_star(_hub_broadcasts_once(huge), policy)
        assert run.metrics.compliant
        # No budget, so nothing is sized: messages count, bits stay 0.
        assert run.metrics.total_messages == 1
        assert run.metrics.total_bits == run.metrics.max_message_bits == 0

    def test_exact_limit_payload_is_compliant(self):
        # A payload of exactly budget bits must not count as a
        # violation; one bit more must.
        policy = BandwidthPolicy(BandwidthMode.TRACK, beta=1, min_bits=20)
        assert policy.budget_bits(4) == 20
        at_limit = 2**19  # bit_size == 20
        over = 2**20  # bit_size == 21
        assert bit_size(at_limit) == 20
        assert bit_size(over) == 21
        run = _run_star(_hub_broadcasts_once(at_limit), policy)
        assert run.metrics.compliant
        run = _run_star(_hub_broadcasts_once(over), policy)
        assert run.metrics.violations == 1
        assert run.metrics.worst_violation_bits == 21

    def test_budget_floor_on_tiny_networks(self):
        policy = BandwidthPolicy()
        # min_bits dominates until log2 n catches up.
        assert policy.budget_bits(1) == 96
        assert policy.budget_bits(2) == 96
        assert policy.budget_bits(2**10) == 32 * 10

    def test_budget_monotone_in_n(self):
        policy = BandwidthPolicy()
        budgets = [policy.budget_bits(n) for n in (1, 2, 16, 1024, 10**6)]
        assert budgets == sorted(budgets)


class TestBroadcastMetering:
    """A Broadcast is one transmission: metered once, delivered to all."""

    def test_broadcast_metered_once(self):
        payload = ("x", 7)
        run = _run_star(
            _hub_broadcasts_once(payload),
            BandwidthPolicy(),
            n_leaves=4,
        )
        # One metered message despite five deliveries...
        assert run.metrics.total_messages == 1
        assert run.metrics.total_bits == bit_size(payload)

    def test_broadcast_delivers_to_every_neighbor(self):
        payload = ("x", 7)
        run = _run_star(
            _hub_broadcasts_once(payload),
            BandwidthPolicy(),
            n_leaves=4,
            record_rounds=True,
        )
        # ...while the per-round delivery count sees all five edges.
        assert run.metrics.per_round[0].messages == 4

    def test_unicast_fanout_is_metered_per_edge(self):
        # The same traffic as a dict outbox pays once per edge: the
        # CONGEST distinction Broadcast metering must preserve.
        def fn(ctx):
            if ctx.node == 0:
                yield {v: ("x", 7) for v in ctx.neighbors}
            else:
                yield {}

        run = _run_star(fn, BandwidthPolicy(), n_leaves=4)
        assert run.metrics.total_messages == 4
        assert run.metrics.total_bits == 4 * bit_size(("x", 7))

    def test_broadcast_over_budget_counts_one_violation(self):
        policy = BandwidthPolicy(BandwidthMode.TRACK, beta=0, min_bits=4)
        run = _run_star(
            _hub_broadcasts_once((1, 2, 3)), policy, n_leaves=5
        )
        assert run.metrics.violations == 1


class TestBroadcastAndMerge:
    def test_broadcast_wraps_payload(self):
        b = Broadcast(("x", 1))
        assert b.payload == ("x", 1)

    def test_merged_packs_tuple(self):
        assert merged(("a", 1), ("b", 2)) == (("a", 1), ("b", 2))

    def test_total_bits_sums(self):
        payloads = [(1, 2), (3,)]
        assert total_bits(payloads) == sum(
            bit_size(p) for p in payloads
        )
