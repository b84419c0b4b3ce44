"""Deterministic randomness.

Every randomized algorithm in this repository takes a single root seed.
Non-node streams (the splitting derandomizer, graph generators) hash
``(seed, labels...)`` into a :class:`random.Random` (:func:`derive_rng`).

Per-node randomness is one counter hash that every engine shares.
Node *v* owns ``(key, counter)`` with
``key = mix64(derive_int(seed, "node"), label_v)``; word *i* of its
stream is ``mix64(key, i)`` (SplitMix64 seeded with ``key``).  Generator
programs draw through :class:`CounterRandom`, array kernels through
:func:`randrange_array` and :func:`random_array`; the two are pinned
equal by property tests, so
a draw does not depend on which engine makes it, and generator draws
simply continue at the counter the kernel draws left.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_UNIT = 1.0 / (1 << 53)


def derive_int(seed: Any, *labels: Any) -> int:
    """Derive a 64-bit integer from ``seed`` and ``labels`` by hashing."""
    material = repr((seed,) + labels).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: Any, *labels: Any) -> random.Random:
    """Derive an independent RNG stream from ``seed`` and ``labels``."""
    return random.Random(derive_int(seed, *labels))


def mix64(key: int, i: int) -> int:
    """Word ``i`` of the stream keyed ``key``: the SplitMix64 finalizer
    of ``key + (i + 1)·γ`` (mod 2⁶⁴)."""
    z = (key + (i + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _C1) & _MASK
    z = ((z ^ (z >> 27)) * _C2) & _MASK
    return z ^ (z >> 31)


_U1, _U30, _U27, _U31 = (np.uint64(c) for c in (1, 30, 27, 31))
_UGOLDEN, _UC1, _UC2 = (np.uint64(c) for c in (_GOLDEN, _C1, _C2))


def mix64_array(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """:func:`mix64` elementwise over uint64 arrays (wrapping)."""
    z = counters + _U1
    z *= _UGOLDEN
    z = keys + z  # the broadcast shape: every step below is in place
    z ^= z >> _U30
    z *= _UC1
    z ^= z >> _U27
    z *= _UC2
    z ^= z >> _U31
    return z


def node_keys(seed: Any, labels) -> np.ndarray:
    """uint64 stream keys of the nodes ``labels``:
    ``mix64(derive_int(seed, "node"), label mod 2⁶⁴)``."""
    if isinstance(labels, range):
        labels = np.arange(labels.start, labels.stop, labels.step)
    try:
        words = np.asarray(labels, dtype=np.int64).astype(np.uint64)
    except OverflowError:  # labels beyond int64: reduce them in Python
        words = np.array([label & _MASK for label in labels], np.uint64)
    root = np.full(words.shape, derive_int(seed, "node"), np.uint64)
    return mix64_array(root, words)


class CounterRandom(random.Random):
    """A node's stream as a :class:`random.Random`.  Only
    :meth:`getrandbits` and :meth:`random` are overridden: the stdlib's
    ``randrange``/``choice``/``sample``/``shuffle`` draw through
    ``getrandbits`` (the base class's Mersenne Twister is never used).
    """

    __slots__ = ("key", "counter")

    def __init__(self, key: int, counter: int = 0):
        self.key = key
        self.counter = counter
        self.gauss_next = None

    def getrandbits(self, k: int) -> int:
        """The top ``k`` bits of the next word; ``k > 64`` takes the
        top ``k`` bits of the next ⌈k/64⌉ words, concatenated."""
        if 0 < k <= 64:
            i = self.counter
            self.counter = i + 1
            return mix64(self.key, i) >> (64 - k)
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        words = -(-k // 64)
        x = 0
        for _ in range(words):
            x = (x << 64) | self.getrandbits(64)
        return x >> (64 * words - k)

    def random(self) -> float:
        """The top 53 bits of the next word, scaled into [0, 1)."""
        i = self.counter
        self.counter = i + 1
        return (mix64(self.key, i) >> 11) * _UNIT


#: Words hashed per pending node per rejection pass when fewer than
#: this many nodes are pending (at most 8): small draws then finish in
#: about one pass, large ones hash no word they do not consume.
_PASS_WORDS = 4096


def _bit_lengths(bounds: np.ndarray) -> np.ndarray:
    """``bound.bit_length()`` elementwise for int64 ``bounds >= 1``."""
    high = bounds >> np.int64(32)
    low = bounds & np.int64(0xFFFFFFFF)
    return np.where(
        high > 0,
        np.frexp(high.astype(np.float64))[1] + 32,
        np.frexp(low.astype(np.float64))[1],
    ).astype(np.uint64)


def randrange_array(
    keys: np.ndarray, counters: np.ndarray, idx: np.ndarray, bounds
) -> np.ndarray:
    """``randrange(bounds[j])`` on the stream of node ``idx[j]`` for
    every ``j``, as int64; ``counters[idx]`` advances in place.

    Equal to ``CounterRandom(keys[i], counters[i]).randrange(bound)``
    per node, i.e. the stdlib's ``_randbelow_with_getrandbits``: draw
    ``bound.bit_length()`` bits, and redraw — each on its next counter
    — while the draw is ``>= bound``.  Keys and counters are gathered
    once; a pass hashes the next ``k`` words of every pending node
    (``k = 1``, on flat arrays, for large batches), keeps the first
    accepted one, and carries only the rejected nodes to the next
    pass, so a node's counter advances by exactly the words the
    scalar loop would consume; ``counters[idx]`` is written once at
    the end.  ``idx`` must not repeat a node; bounds must lie in
    ``[1, 2⁶³)``.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if np.ndim(bounds) == 0:
        bound = int(bounds)
        bounds = np.int64(bound)
        shifts = np.uint64(64 - bound.bit_length())
    else:
        bounds = np.broadcast_to(
            np.asarray(bounds, dtype=np.int64), idx.shape
        )
        shifts = np.uint64(64) - _bit_lengths(bounds)
    per_node = np.ndim(bounds) > 0
    out = np.empty(idx.shape, dtype=np.int64)
    final = counters[idx]
    # The pending nodes: positions into idx, keys, next counters.  A
    # pass writes every pending node's draw and counter; a rejected
    # node's entries are overwritten by a later pass.
    pos = np.arange(idx.size)
    pkeys, pctr = keys[idx], final.copy()
    while pos.size:
        k = max(1, min(8, _PASS_WORDS // pos.size))
        if k == 1:
            draws = (mix64_array(pkeys, pctr) >> shifts).astype(np.int64)
            pctr += _U1
            out[pos] = draws
            miss = np.flatnonzero(draws >= bounds)
        else:
            bound_t, shift_t = (
                (bounds[:, None], shifts[:, None])
                if per_node
                else (bounds, shifts)
            )
            draws = (
                mix64_array(
                    pkeys[:, None],
                    pctr[:, None] + np.arange(k, dtype=np.uint64),
                )
                >> shift_t
            ).astype(np.int64)
            ok = draws < bound_t
            first = ok.argmax(axis=1)
            rows = np.arange(pos.size)
            hit = ok[rows, first]
            pctr += np.where(hit, first + 1, k).astype(np.uint64)
            out[pos] = draws[rows, first]
            miss = np.flatnonzero(~hit)
        final[pos] = pctr
        pos, pkeys, pctr = pos[miss], pkeys[miss], pctr[miss]
        if per_node:
            bounds, shifts = bounds[miss], shifts[miss]
    counters[idx] = final
    return out


def random_array(
    keys: np.ndarray, counters: np.ndarray, idx: np.ndarray
) -> np.ndarray:
    """``random()`` on the stream of every node in ``idx`` (float64,
    equal to :meth:`CounterRandom.random`); ``counters[idx]`` advances
    by one.  ``idx`` must not repeat a node."""
    idx = np.asarray(idx, dtype=np.int64)
    words = mix64_array(keys[idx], counters[idx])
    counters[idx] += np.uint64(1)
    return (words >> np.uint64(11)).astype(np.float64) * _UNIT
