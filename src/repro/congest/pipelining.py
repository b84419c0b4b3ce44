"""Pipelining helpers.

Several steps of the paper "pipeline" a list of items (IDs, colors)
over an edge: one O(log n)-bit message per round until the list is
through.  Theorem B.1 additionally relies on *packing*: when items are
small (e.g. colors from an O(log log n)-size space), many fit into a
single message.  These helpers compute bit-budget-aware chunkings so
protocols stay CONGEST-compliant by construction.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

#: Bits reserved in each chunk for the protocol tag and sequencing.
_CHUNK_HEADER_BITS = 24


def items_per_message(item_bits: int, budget_bits: int) -> int:
    """How many ``item_bits``-sized items fit into one message.

    Always at least 1: a single item per message is the vanilla
    pipelining the paper uses when items are Θ(log n) bits.
    """
    if item_bits <= 0:
        raise ValueError("item_bits must be positive")
    usable = budget_bits - _CHUNK_HEADER_BITS
    # +2 matches the per-element framing overhead of message.bit_size.
    return max(1, usable // (item_bits + 2))


def plan_chunks(
    items: Sequence[Any], item_bits: int, budget_bits: int
) -> List[Tuple[Any, ...]]:
    """Split ``items`` into message-sized tuples.

    The caller sends one chunk per round; ``len(result)`` is the number
    of rounds the transfer occupies on that edge.
    """
    per_message = items_per_message(item_bits, budget_bits)
    return [
        tuple(items[i : i + per_message])
        for i in range(0, len(items), per_message)
    ]


def rounds_needed(
    num_items: int, item_bits: int, budget_bits: int
) -> int:
    """Rounds to pipeline ``num_items`` items over one edge."""
    if num_items == 0:
        return 0
    per_message = items_per_message(item_bits, budget_bits)
    return -(-num_items // per_message)
