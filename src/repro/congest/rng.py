"""Deterministic per-node randomness.

Every randomized algorithm in this repository takes a single root seed.
Each node (and each named random stream within a node) derives an
independent :class:`random.Random` by hashing ``(seed, labels...)``.
Same root seed => byte-identical run transcript, which the test suite
asserts.

:func:`derive_ints` is the bulk form: deriving one stream per node for
an n-node network is a hot path (``Network`` construction and every
vectorized kernel pay it), and hashing n independent ``repr`` strings
through one shared prefix digest is several times faster than n calls
of :func:`derive_int`.  The two are bit-identical by construction —
``repr((seed, label, item))`` is exactly
``"(" + repr(seed) + ", " + repr(label) + ", " + repr(item) + ")"``
for a 3-tuple — and the equivalence is pinned by a hypothesis property
test.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Iterable, List, Union


def derive_int(seed: Any, *labels: Any) -> int:
    """Derive a 64-bit integer from ``seed`` and ``labels`` by hashing."""
    material = repr((seed,) + labels).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big")


def derive_rng(seed: Any, *labels: Any) -> random.Random:
    """Derive an independent RNG stream from ``seed`` and ``labels``."""
    return random.Random(derive_int(seed, *labels))


def derive_ints(
    seed: Any, label: Any, items: Union[int, Iterable[Any]]
) -> List[int]:
    """Bulk :func:`derive_int`: one 64-bit value per item.

    ``items`` is either a count n (equivalent to ``range(n)``) or an
    iterable of per-item labels.  Bit-identical to
    ``[derive_int(seed, label, item) for item in items]``.
    """
    if isinstance(items, int):
        items = range(items)
    prefix = hashlib.sha256(
        f"({seed!r}, {label!r}, ".encode("utf-8")
    )
    out: List[int] = []
    append = out.append
    copy = prefix.copy
    from_bytes = int.from_bytes
    for item in items:
        h = copy()
        h.update(f"{item!r})".encode("utf-8"))
        append(from_bytes(h.digest()[:8], "big"))
    return out
