"""Tests for RNG derivation, bandwidth policy, and result types."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.trial import TrialProgram
from repro.congest.metrics import RunMetrics
from repro.congest.network import Network
from repro.congest.node import FunctionProgram
from repro.congest.policy import BandwidthMode, BandwidthPolicy
from repro.congest.rng import (
    CounterRandom,
    derive_int,
    derive_rng,
    mix64,
    mix64_array,
    node_keys,
    random_array,
    randrange_array,
)
from repro.core.trying import all_colored
from repro.results import ColoringResult

# Label values of every shape the simulator actually derives streams
# from: ints, strings, and tuples thereof.
_labels = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=12),
    st.tuples(st.integers(min_value=-100, max_value=100), st.text(max_size=4)),
)


class TestRng:
    def test_deterministic(self):
        assert derive_int(1, "a") == derive_int(1, "a")

    def test_label_sensitivity(self):
        assert derive_int(1, "a") != derive_int(1, "b")

    def test_seed_sensitivity(self):
        assert derive_int(1, "a") != derive_int(2, "a")

    def test_rng_streams_independent(self):
        r1 = derive_rng(0, "node", 1)
        r2 = derive_rng(0, "node", 2)
        assert [r1.random() for _ in range(5)] != [
            r2.random() for _ in range(5)
        ]

    def test_rng_reproducible(self):
        a = derive_rng(7, "x").random()
        b = derive_rng(7, "x").random()
        assert a == b


def _below(words, n):
    """The stdlib's getrandbits rejection rule, written out."""
    k = n.bit_length()
    r = words(k)
    while r >= n:
        r = words(k)
    return r


def _words(key, counter=0):
    """The stream ``(key, counter)`` as a ``k -> top k bits`` callable."""
    state = [counter]

    def words(k):
        word = mix64(key, state[0])
        state[0] += 1
        return word >> (64 - k)

    return words


_keys = st.integers(min_value=0, max_value=2**64 - 1)
_counters = st.integers(min_value=0, max_value=2**62)
_bounds = st.one_of(
    st.just(1),
    st.integers(min_value=0, max_value=62).map(lambda j: 2**j),
    st.integers(min_value=1, max_value=2**62),
)


class TestCounterStreams:
    """The scalar and vector forms of the per-node counter hash must
    agree bit for bit — kernels draw through one, generator programs
    through the other."""

    @given(pairs=st.lists(st.tuples(_keys, _counters), max_size=16))
    @settings(max_examples=150)
    def test_mix64_array_matches_scalar(self, pairs):
        keys = np.array([k for k, _ in pairs], dtype=np.uint64)
        counters = np.array([c for _, c in pairs], dtype=np.uint64)
        assert mix64_array(keys, counters).tolist() == [
            mix64(k, c) for k, c in pairs
        ]

    @given(
        nodes=st.lists(
            st.tuples(_keys, _counters, _bounds, _bounds),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200)
    def test_randrange_array_matches_scalar(self, nodes):
        keys = np.array([k for k, _, _, _ in nodes], dtype=np.uint64)
        counters = np.array([c for _, c, _, _ in nodes], dtype=np.uint64)
        rngs = [CounterRandom(k, c) for k, c, _, _ in nodes]
        idx = np.arange(len(nodes))
        for which in (2, 3):  # two draws per node, bounds may differ
            bounds = np.array([node[which] for node in nodes])
            vector = randrange_array(keys, counters, idx, bounds)
            scalar = [
                rng.randrange(node[which])
                for rng, node in zip(rngs, nodes)
            ]
            assert vector.tolist() == scalar
            assert counters.tolist() == [rng.counter for rng in rngs]

    def test_randrange_array_lottery_tickets(self):
        # The XOR lottery's draw: a 2²⁴ bound is a 25-bit draw with ½
        # rejection, 50 nodes, 8 draws in a row on the same streams.
        keys = node_keys(3, range(50))
        counters = np.arange(50, dtype=np.uint64) * 7
        rngs = [CounterRandom(int(k), int(c)) for k, c in zip(keys, counters)]
        idx = np.arange(50)
        for _ in range(8):
            vector = randrange_array(keys, counters, idx, 1 << 24)
            assert vector.tolist() == [rng.randrange(1 << 24) for rng in rngs]
            assert counters.tolist() == [rng.counter for rng in rngs]

    @given(nodes=st.lists(st.tuples(_keys, _counters), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_random_array_matches_scalar(self, nodes):
        keys = np.array([k for k, _ in nodes], dtype=np.uint64)
        counters = np.array([c for _, c in nodes], dtype=np.uint64)
        rngs = [CounterRandom(k, c) for k, c in nodes]
        idx = np.arange(len(nodes))[::-1]
        vector = random_array(keys, counters, idx)
        assert vector.tolist() == [rngs[i].random() for i in idx]
        assert counters.tolist() == [rng.counter for rng in rngs]

    def test_randrange_array_matches_scalar_on_large_batches(self):
        # Above _PASS_WORDS // 2 = 2048 pending nodes a pass hashes one
        # word per node; the ~1,900 rejected then take the multi-word
        # passes.  A scattered idx, non-zero starting counters, a scalar
        # bound, then per-node bounds mixing powers of two (½ rejection)
        # with 2⁶²−1.
        n = 12000
        keys = node_keys(11, range(n))
        start = (np.arange(n, dtype=np.uint64) * 13) % 101
        rng = np.random.default_rng(4)
        idx = rng.permutation(np.arange(1, n, 2))[:4500].astype(np.int64)
        shapes = np.array(
            [1, 2, 3, 64, 145, 1 << 24, (1 << 40) + 1, (1 << 62) - 1],
            dtype=np.int64,
        )
        per_node = shapes[rng.integers(0, shapes.size, idx.size)]
        counters = start.copy()
        rngs = {
            int(i): CounterRandom(int(keys[i]), int(start[i])) for i in idx
        }
        for bounds in (145, per_node):
            vector = randrange_array(keys, counters, idx, bounds)
            scalar = [
                rngs[int(i)].randrange(int(b))
                for i, b in zip(idx, np.broadcast_to(bounds, idx.shape))
            ]
            assert vector.tolist() == scalar
            expect = start.copy()
            for i, r in rngs.items():
                expect[i] = r.counter
            assert counters.tolist() == expect.tolist()

    def test_randrange_array_draws_only_the_given_nodes(self):
        keys = node_keys(5, range(6))
        counters = np.zeros(6, dtype=np.uint64)
        idx = np.array([4, 1])
        draws = randrange_array(keys, counters, idx, 2**40 + 1)
        assert counters[[0, 2, 3, 5]].tolist() == [0, 0, 0, 0]
        assert draws.tolist() == [
            CounterRandom(int(keys[i])).randrange(2**40 + 1) for i in idx
        ]

    @given(
        seed=_labels,
        labels=st.lists(
            st.integers(min_value=-(2**70), max_value=2**70), max_size=16
        ),
    )
    @settings(max_examples=100)
    def test_node_keys_match_scalar(self, seed, labels):
        root = derive_int(seed, "node")
        assert node_keys(seed, labels).tolist() == [
            mix64(root, label) for label in labels
        ]
        assert node_keys(seed, range(len(labels))).tolist() == [
            mix64(root, label) for label in range(len(labels))
        ]

    def test_getrandbits_concatenates_words(self):
        words = [mix64(9, i) for i in range(3)]
        rng = CounterRandom(9)
        assert rng.getrandbits(64) == words[0]
        assert rng.getrandbits(130) == (
            (words[1] << 64 | words[2]) << 64 | mix64(9, 3)
        ) >> 62
        assert rng.counter == 4
        assert rng.getrandbits(0) == 0 and rng.counter == 4
        with pytest.raises(ValueError):
            rng.getrandbits(-1)

    def test_random_is_top_53_bits(self):
        rng = CounterRandom(11, 5)
        assert rng.random() == (mix64(11, 5) >> 11) / 2**53
        assert rng.counter == 6


class TestStdlibContract:
    """``randrange``/``choice``/``sample``/``shuffle`` are the stdlib's,
    on top of :meth:`CounterRandom.getrandbits`.  Their results are
    pinned against an explicit reimplementation of the getrandbits
    rejection rule, so a CPython change to ``_randbelow`` (or to how
    these methods consume it) fails here rather than silently forking
    the generator engine from the array kernels."""

    @given(key=_keys, counter=_counters, bound=_bounds)
    @settings(max_examples=100)
    def test_randrange(self, key, counter, bound):
        words = _words(key, counter)
        rng = CounterRandom(key, counter)
        assert [rng.randrange(bound) for _ in range(3)] == [
            _below(words, bound) for _ in range(3)
        ]

    @given(key=_keys, seq=st.lists(st.integers(), min_size=1, max_size=40))
    @settings(max_examples=100)
    def test_choice(self, key, seq):
        words = _words(key)
        rng = CounterRandom(key)
        assert [rng.choice(seq) for _ in range(3)] == [
            seq[_below(words, len(seq))] for _ in range(3)
        ]

    @given(key=_keys, n=st.integers(1, 200), data=st.data())
    @settings(max_examples=100)
    def test_sample(self, key, n, data):
        k = data.draw(st.integers(0, n))
        words = _words(key)
        expected = []
        setsize = 21 if k <= 5 else 21 + 4 ** math.ceil(math.log(3 * k, 4))
        if n <= setsize:  # pool selection
            pool = list(range(n))
            for i in range(k):
                j = _below(words, n - i)
                expected.append(pool[j])
                pool[j] = pool[n - i - 1]
        else:  # set-based rejection of repeats
            while len(expected) < k:
                j = _below(words, n)
                if j not in expected:
                    expected.append(j)
        assert CounterRandom(key).sample(range(n), k) == expected

    @given(key=_keys, n=st.integers(0, 30))
    @settings(max_examples=50)
    def test_shuffle(self, key, n):
        words = _words(key)
        expected = list(range(n))
        for i in reversed(range(1, n)):
            j = _below(words, i + 1)
            expected[i], expected[j] = expected[j], expected[i]
        shuffled = list(range(n))
        CounterRandom(key).shuffle(shuffled)
        assert shuffled == expected


class TestStreamStatistics:
    """A guard against a broken mix: uniform buckets, no serial
    correlation within a node, no correlation between neighbors'
    labels.  Deterministic (fixed seed), with generous thresholds."""

    NODES = 10_000
    DRAWS = 8

    def _draws(self, bound):
        keys = node_keys(2024, range(self.NODES))
        counters = np.zeros(self.NODES, dtype=np.uint64)
        idx = np.arange(self.NODES)
        return np.stack(
            [
                randrange_array(keys, counters, idx, bound)
                for _ in range(self.DRAWS)
            ],
            axis=1,
        )

    def test_chi_square_buckets(self):
        from scipy.stats import chisquare

        bound = 37  # not a power of two: exercises rejection
        counts = np.bincount(self._draws(bound).ravel(), minlength=bound)
        assert chisquare(counts).pvalue > 1e-3

    def test_no_lag_one_correlation_within_a_node(self):
        draws = self._draws(2**40 - 1).astype(np.float64)
        r = np.corrcoef(draws[:, :-1].ravel(), draws[:, 1:].ravel())[0, 1]
        assert abs(r) < 0.02  # ~5 sigma at 70k pairs

    def test_no_correlation_between_adjacent_labels(self):
        first = self._draws(2**40 - 1)[:, 0].astype(np.float64)
        r = np.corrcoef(first[:-1], first[1:])[0, 1]
        assert abs(r) < 0.05  # ~5 sigma at 10k pairs


class TestPlanStreams:
    def test_generator_draws_continue_after_kernel(self):
        graph = nx.cycle_graph(12)
        inputs = {v: {"palette": 5} for v in graph}
        network = Network(graph, TrialProgram, seed=3, inputs=inputs)
        network.run(stop_when=all_colored, backend="vectorized")
        assert not network.materialized  # the kernel ran the trials
        plan = network.plan()
        counters = plan.counters.copy()
        assert counters.min() >= 1
        programs = network.programs
        order = list(plan.order)
        for i, node in enumerate(order):
            rng = programs[node].ctx.rng
            assert (rng.key, rng.counter) == (
                int(plan.node_keys[i]),
                int(counters[i]),
            )
        expected = randrange_array(
            plan.node_keys, counters, np.arange(len(order)), 1000
        )
        assert [
            programs[node].ctx.rng.randrange(1000) for node in order
        ] == expected.tolist()


class TestPolicy:
    def test_budget_scales_with_log_n(self):
        policy = BandwidthPolicy(beta=8, min_bits=0)
        assert policy.budget_bits(1024) == 80
        assert policy.budget_bits(2048) == 88

    def test_min_bits_floor(self):
        policy = BandwidthPolicy(beta=1, min_bits=100)
        assert policy.budget_bits(4) == 100

    def test_tiny_n(self):
        policy = BandwidthPolicy(beta=8, min_bits=0)
        assert policy.budget_bits(1) == 8

    def test_factories(self):
        assert BandwidthPolicy.strict().mode is BandwidthMode.STRICT
        assert BandwidthPolicy.track().mode is BandwidthMode.TRACK
        assert (
            BandwidthPolicy.unbounded().mode
            is BandwidthMode.UNBOUNDED
        )


class TestRunMetrics:
    def test_loop_tracks_max(self):
        # One node sends a 10-, then a 50-, then a 20-bit payload:
        # the run max spans rounds and the round records keep each.
        def proto(ctx):
            if ctx.node == 0:
                for value in (2**9, 2**49, 2**19):
                    yield {1: value}
            else:
                for _ in range(3):
                    yield {}
            return None

        graph = nx.path_graph(2)
        network = Network(graph, FunctionProgram.factory(proto))
        metrics = network.run(record_rounds=True).metrics
        assert metrics.max_message_bits == 50
        assert metrics.total_messages == 3
        assert metrics.total_bits == 80
        assert [r.max_message_bits for r in metrics.per_round] == [
            10,
            50,
            20,
        ]

    def test_merge_adds_rounds(self):
        a = RunMetrics(rounds=3, total_messages=5, budget_bits=64)
        b = RunMetrics(rounds=2, total_messages=7, budget_bits=64)
        merged = a.merge(b)
        assert merged.rounds == 5
        assert merged.total_messages == 12

    def test_compliance(self):
        assert RunMetrics().compliant
        metrics = RunMetrics(violations=1, worst_violation_bits=200)
        assert not metrics.compliant
        assert metrics.worst_violation_bits == 200

    def test_summary_contains_rounds(self):
        assert "rounds=0" in RunMetrics().summary()


class TestColoringResult:
    def _result(self):
        return ColoringResult(
            algorithm="x",
            coloring={0: 1, 1: 2, 2: 1},
            palette_size=5,
            rounds=0,
        )

    def test_colors_used(self):
        assert self._result().colors_used == 2

    def test_complete(self):
        result = self._result()
        assert result.complete
        result.coloring[3] = None
        assert not result.complete

    def test_add_phase_accumulates(self):
        result = self._result()
        result.add_phase("a", 10)
        result.add_phase("b", 5)
        assert result.rounds == 15
        assert result.phase_rounds() == {"a": 10, "b": 5}

    def test_add_phase_merges_metrics(self):
        result = self._result()
        result.add_phase("a", 10, RunMetrics(rounds=10, total_bits=7))
        assert result.metrics.total_bits == 7

    def test_summary_mentions_algorithm(self):
        assert "x:" in self._result().summary()
