"""Random H-neighbor selection — the XOR lottery (Lemma 2.3).

A node u cannot sample a uniformly random H-neighbor directly: it does
not even know the full list (non-adjacent H-neighbors are only known
to the middle nodes of their 2-paths), and sampling "via a random
2-path" would bias toward neighbors with many 2-paths (Sec. 2.1).

The paper's lottery: every node broadcasts a fresh 4·log n-bit random
string; the middle node x of each 2-path XORs the strings of each
H-adjacent pair (u, w) of its neighbors and forwards w's ticket to u
when the XOR passes a zero-prefix filter (width 2·logΔ - c11·loglog n,
keeping the expected number of forwarded tickets at O(log n)); u picks
the w whose XORed string is smallest.  Since the strings are i.i.d.
uniform, the argmin is a uniformly random H-neighbor (duplicate routes
yield identical XORs, so multiplicity does not bias the draw).

Here each middle forwards only its own argmin per requester (the
global argmin of per-middle argmins — same distribution, one message
per edge per round).  Experiment E8 checks uniformity.

The vectorized backend's ``_randomized_d2_kernel`` replays this round
as arrays — one ticket draw (``randrange(2^ticket_bits(n))``), one
XOR plus threshold filter over the H-adjacent pairs each middle
compiles once, one segment argmin — with these tie rules: the first
minimum in ascending sender order (inbox order) wins, a direct
H-neighbor beats an equal relayed XOR, and ``w == self`` forwards are
skipped.  An edit to the draw, the filter or the tie rules here must
update that kernel.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.similarity import SimilarityState

_TAG_TICKET = "k"
_TAG_BEST = "b"


def filter_width(delta: int, n: int, c11: float) -> int:
    """The paper's zero-prefix width 2·log2 Δ - c11·log2 log2 n,
    clamped to >= 0 (0 disables filtering)."""
    import math

    if delta <= 1 or n <= 4:
        return 0
    width = 2.0 * math.log2(delta) - c11 * math.log2(
        math.log2(n)
    )
    return max(0, int(width))


def ticket_bits(n: int) -> int:
    """Width of a lottery ticket: the paper's 4·log n random bits."""
    return 4 * max(1, (n - 1).bit_length())


class LotteryMixin:
    """Sub-protocol: one lottery iteration = 2 rounds, returning a
    uniformly random H-neighbor ``(w, relay)`` or None.

    ``relay`` is the middle node through which w's ticket arrived
    (== w itself for adjacent H-neighbors): the route used later to
    reach w.  All nodes participate every iteration (they cannot know
    who is sampling), so one call advances the whole network.
    """

    ctx = None  # provided by NodeProgram

    def lottery_round(
        self,
        similarity: SimilarityState,
        filter_bits: int = 0,
        string_bits: Optional[int] = None,
    ):
        ctx = self.ctx
        if string_bits is None:
            string_bits = ticket_bits(ctx.n)
        space = 1 << string_bits
        my_ticket = ctx.rng.randrange(space)

        # Round 1: broadcast tickets.
        inbox = yield self.broadcast((_TAG_TICKET, my_ticket))
        tickets = {
            sender: payload[1]
            for sender, payload in inbox.items()
            if payload[0] == _TAG_TICKET
        }

        # Middle duty: for every neighbor u, find the best H-partner
        # w among the other neighbors, subject to the prefix filter.
        threshold = (
            space >> filter_bits if filter_bits > 0 else space
        )
        outbox = {}
        for u, ticket_u in tickets.items():
            best: Optional[Tuple[int, int]] = None
            for w, ticket_w in tickets.items():
                if w == u or not similarity.is_h(u, w):
                    continue
                xored = ticket_u ^ ticket_w
                if xored >= threshold:
                    continue
                if best is None or xored < best[0]:
                    best = (xored, w)
            if best is not None:
                outbox[u] = (_TAG_BEST, best[1], best[0])
        inbox = yield outbox

        # Requester duty: global argmin over forwarded candidates and
        # direct H-neighbors.
        best_value = None
        best_w = None
        best_relay = None
        for w, ticket_w in tickets.items():
            if not similarity.is_h(ctx.node, w):
                continue
            xored = my_ticket ^ ticket_w
            if xored >= threshold:
                continue
            if best_value is None or xored < best_value:
                best_value, best_w, best_relay = xored, w, w
        for relay, payload in inbox.items():
            if payload and payload[0] == _TAG_BEST:
                w, xored = payload[1], payload[2]
                if w == ctx.node:
                    continue
                if best_value is None or xored < best_value:
                    best_value, best_w, best_relay = xored, w, relay
        if best_w is None:
            return None
        return (best_w, best_relay)
