"""Reduce and Reduce-Phase (Sec. 2.2, Lemmas 2.8–2.12, Thm 2.13).

``Reduce(φ, τ)`` drives live nodes whose leeway is in [τ, φ) to get
colored "with a little help from their friends": colored similar nodes
check random colors on the live node's behalf, and similar-but-not-
d2-adjacent nodes donate their own colors.

One ``Reduce-Phase`` is a fixed 17-round schedule in which every node
simultaneously plays every role (the paper's 23-round schedule has the
same structure; our sub-protocols for the 2-path and d2-membership
checks are slightly tighter).  Roles and rounds:

==  =============================================================
 1  lottery: broadcast tickets                       (Lemma 2.3)
 2  lottery: middles forward best H-partner; each node u banks
    its fresh uniformly random H-neighbor (w, relay) — the next
    element of R_u
 3  V  active live nodes broadcast a query request     (step 1)
 4  M  middles flip a coin per 2-path (prob 1/(6000φ)) and
    forward ≤ 1 query per edge                (step 1 + drops)
 5  U  recipients select one query, broadcast the 2-path
    count probe for its origin v                       (step 2)
 6  Y  neighbors answer "is v my neighbor?"
 7  U  if the 2-path is unique: broadcast a random color check
    ĉ ≠ own color, and forward the query toward w = R_u.next
    via its relay                              (steps 3 and 4)
 8  Z  neighbors answer the color check against U's
    H-neighborhood; X relays ≤ 1 forwarded query per edge
 9  W  second helpers select one query, broadcast the
    d2-membership probe for v                          (step 5)
10  Y  neighbors answer
11  W  non-d2-neighbors of v return their own color via X
12  X  relays the color back to U
13  U  sends its proposals (clean ĉ and/or W's color) to M
14  M  relays proposals to V (packed, capped)
15  V  tries one uniformly random proposal — the shared 3-round
16     try primitive; everyone else serves verdicts    (step 6)
17
==  =============================================================

The vectorized backend's ``_randomized_d2_kernel``
(:mod:`repro.exec.vectorized`) replays this schedule on arrays and
per node, drawing the same counter-hash words in the same order:
activation ``random()`` while live, the lottery ticket, the round-4
coins (neighbor order × requester order, both ascending by label as
inboxes are; Ĥ-filtered) and ``choice``, then every
``choice``/``randrange``/``sample`` below in source order.  An edit
to the draws, messages or their order here must update that kernel
(``tests/test_exec_vectorized.py`` and
``tests/data/ladder_golden.json`` catch a mismatch).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.constants import Constants
from repro.core.sampling import LotteryMixin
from repro.core.trying import TryPhaseMixin, iter_messages, multiplex

_TAG_QREQ = "q"
_TAG_QUERY = "Q"
_TAG_PATH_PROBE = "p"
_TAG_PATH_REPLY = "P"
_TAG_CHECK = "c"
_TAG_CHECK_REPLY = "C"
_TAG_FORWARD = "f"
_TAG_FORWARD2 = "F"
_TAG_MEMBER_PROBE = "m"
_TAG_MEMBER_REPLY = "M"
_TAG_COLOR_BACK = "w"
_TAG_COLOR_BACK2 = "W"
_TAG_PROPOSE = "o"
_TAG_PROPOSALS = "O"

#: Proposals relayed to one live node in one message (size cap).
_PROPOSAL_CAP = 6

#: Rounds in one Reduce-Phase (17 = 2 lottery + 12 routing + 3 try).
REDUCE_PHASE_ROUNDS = 17


def _add(outbox: dict, receiver: int, message: tuple) -> None:
    """Add a logical message to an outbox, multiplexing collisions."""
    existing = outbox.get(receiver)
    if existing is None:
        outbox[receiver] = message
    else:
        outbox[receiver] = multiplex(
            *list(iter_messages(existing)), message
        )


class ReduceStats:
    """Per-node counters used by the correctness experiments."""

    def __init__(self):
        self.queries_sent = 0
        self.queries_received = 0
        self.queries_accepted = 0
        self.proposals_received = 0
        self.proposals_made = 0
        self.colored_in_reduce = 0


class ReduceMixin(LotteryMixin, TryPhaseMixin):
    """Sub-protocols ``reduce`` and ``reduce_phase``.

    Requires ``self.similarity`` (a
    :class:`~repro.core.similarity.SimilarityState`), the
    :class:`~repro.core.trying.ColorTracker` state, ``self.constants``
    and ``self.palette``.  ``self.reduce_stats`` collects counters.
    """

    def reduce(self, phi: float, tau: float):
        """Reduce(φ, τ): ρ = c3·(φ/τ)²·log n phases (paper box)."""
        constants: Constants = self.constants
        rho = constants.reduce_phases(phi, tau, self.ctx.n)
        act_p = constants.activation_probability(phi, tau)
        query_p = constants.query_probability(phi)
        for _phase in range(rho):
            active = self.live and self.ctx.rng.random() < act_p
            yield from self.reduce_phase(active, query_p)
        return rho

    # ------------------------------------------------------------------

    def reduce_phase(self, active: bool, query_p: float):
        """One 17-round phase; returns True if this node adopted."""
        ctx = self.ctx
        rng = ctx.rng
        sim = self.similarity
        stats = self.reduce_stats

        # -- rounds 1-2: lottery (next element of R_u) ---------------
        next_ru = yield from self.lottery_round(
            sim, filter_bits=self.lottery_filter_bits
        )

        # -- round 3: V broadcasts query request ---------------------
        if active:
            stats.queries_sent += 1
            inbox = yield self.broadcast((_TAG_QREQ,))
        else:
            inbox = yield {}
        requesters = [
            sender
            for sender, payload in inbox.items()
            for message in iter_messages(payload)
            if message[0] == _TAG_QREQ
        ]

        # -- round 4: M forwards ≤ 1 query per edge ------------------
        outbox: dict = {}
        for u in ctx.neighbors:
            fired = [
                v
                for v in requesters
                if v != u
                and sim.is_hhat(v, u)
                and rng.random() < query_p
            ]
            if fired:
                _add(outbox, u, (_TAG_QUERY, rng.choice(fired)))
        inbox = yield outbox

        # -- round 5: U selects one query, probes the 2-path count ---
        arrivals: List[Tuple[int, int]] = []
        for sender, payload in inbox.items():
            for message in iter_messages(payload):
                if message[0] == _TAG_QUERY:
                    arrivals.append((message[1], sender))
        stats.queries_received += len(arrivals)
        selected: Optional[Tuple[int, int]] = (
            rng.choice(arrivals) if arrivals else None
        )
        if selected is not None:
            inbox = yield self.broadcast(
                (_TAG_PATH_PROBE, selected[0])
            )
        else:
            inbox = yield {}
        probes = [
            (sender, message[1])
            for sender, payload in inbox.items()
            for message in iter_messages(payload)
            if message[0] == _TAG_PATH_PROBE
        ]

        # -- round 6: Y answers the 2-path probes --------------------
        outbox = {}
        nbr_set = set(ctx.neighbors)
        for asker, v in probes:
            _add(
                outbox,
                asker,
                (_TAG_PATH_REPLY, 1 if v in nbr_set else 0),
            )
        inbox = yield outbox
        path_count = sum(
            message[1]
            for payload in inbox.values()
            for message in iter_messages(payload)
            if message[0] == _TAG_PATH_REPLY
        )
        query_ok = selected is not None and path_count == 1
        if query_ok:
            stats.queries_accepted += 1

        # -- round 7: U broadcasts color check + forwards query ------
        check_color: Optional[int] = None
        outbox = {}
        if query_ok:
            choices = [
                c for c in range(self.palette) if c != self.color
            ]
            check_color = rng.choice(choices)
            for nbr in ctx.neighbors:
                _add(outbox, nbr, (_TAG_CHECK, check_color))
            if next_ru is not None:
                w, relay = next_ru
                _add(
                    outbox,
                    relay,
                    (_TAG_FORWARD, selected[0], w),
                )
        inbox = yield outbox
        checks = []
        relay_requests: Dict[int, List[Tuple[int, int]]] = {}
        direct_seconds: List[Tuple[int, int, Optional[int]]] = []
        for sender, payload in inbox.items():
            for message in iter_messages(payload):
                if message[0] == _TAG_CHECK:
                    checks.append((sender, message[1]))
                elif message[0] == _TAG_FORWARD:
                    v, w = message[1], message[2]
                    if w == ctx.node:
                        # Adjacent H-neighbor: we are W, no relay hop.
                        direct_seconds.append((v, sender, None))
                    else:
                        relay_requests.setdefault(w, []).append(
                            (v, sender)
                        )

        # -- round 8: Z answers checks; X relays ≤1 forward per edge -
        outbox = {}
        for asker, color in checks:
            conflict = False
            if self.color == color and sim.is_h(asker, ctx.node):
                conflict = True
            if not conflict:
                for t, t_color in self.nbr_colors.items():
                    if t_color == color and sim.is_h(asker, t):
                        conflict = True
                        break
            _add(outbox, asker, (_TAG_CHECK_REPLY, conflict))
        for w, waiting in relay_requests.items():
            v, u_origin = waiting[rng.randrange(len(waiting))]
            _add(outbox, w, (_TAG_FORWARD2, v, u_origin))
        inbox = yield outbox
        check_conflict = any(
            message[1]
            for payload in inbox.values()
            for message in iter_messages(payload)
            if message[0] == _TAG_CHECK_REPLY
        )
        # relay = None marks the adjacent (no-relay) route.
        second_queries: List[Tuple[int, int, Optional[int]]] = list(
            direct_seconds
        )
        for sender, payload in inbox.items():
            for message in iter_messages(payload):
                if message[0] == _TAG_FORWARD2:
                    second_queries.append(
                        (message[1], message[2], sender)
                    )

        # -- round 9: W selects one, probes d2-membership of v -------
        w_selected: Optional[Tuple[int, int, int]] = (
            rng.choice(second_queries) if second_queries else None
        )
        if w_selected is not None:
            inbox = yield self.broadcast(
                (_TAG_MEMBER_PROBE, w_selected[0])
            )
        else:
            inbox = yield {}
        member_probes = [
            (sender, message[1])
            for sender, payload in inbox.items()
            for message in iter_messages(payload)
            if message[0] == _TAG_MEMBER_PROBE
        ]

        # -- round 10: Y answers ------------------------------------
        outbox = {}
        for asker, v in member_probes:
            _add(
                outbox,
                asker,
                (_TAG_MEMBER_REPLY, 1 if v in nbr_set else 0),
            )
        inbox = yield outbox
        any_common = any(
            message[1]
            for payload in inbox.values()
            for message in iter_messages(payload)
            if message[0] == _TAG_MEMBER_REPLY
        )

        # -- round 11: W returns its color if v is NOT a d2-neighbor -
        # Direct (adjacent) routes are delayed to round 12 so that U
        # receives all returned colors in the same round.
        outbox = {}
        pending_direct: Optional[Tuple[int, int, int]] = None
        if w_selected is not None and self.color is not None:
            v, u_origin, relay = w_selected
            is_d2 = (
                any_common or v in nbr_set or v == ctx.node
            )
            if not is_d2:
                if relay is None:
                    pending_direct = (u_origin, v, self.color)
                else:
                    _add(
                        outbox,
                        relay,
                        (_TAG_COLOR_BACK, v, u_origin, self.color),
                    )
        inbox = yield outbox
        color_backs = []
        for sender, payload in inbox.items():
            for message in iter_messages(payload):
                if message[0] == _TAG_COLOR_BACK:
                    color_backs.append(
                        (message[1], message[2], message[3])
                    )

        # -- round 12: X relays the color back to U ------------------
        outbox = {}
        for v, u_origin, color in color_backs:
            _add(outbox, u_origin, (_TAG_COLOR_BACK2, v, color))
        if pending_direct is not None:
            u_origin, v, color = pending_direct
            _add(outbox, u_origin, (_TAG_COLOR_BACK2, v, color))
        inbox = yield outbox
        returned_colors = [
            (message[1], message[2])
            for payload in inbox.values()
            for message in iter_messages(payload)
            if message[0] == _TAG_COLOR_BACK2
        ]

        # -- round 13: U sends proposals to M ------------------------
        outbox = {}
        if query_ok:
            v, via = selected
            proposals = []
            if check_color is not None and not check_conflict:
                proposals.append(check_color)
            for v_ret, color in returned_colors:
                if v_ret == v:
                    proposals.append(color)
            if proposals:
                stats.proposals_made += len(proposals)
                _add(
                    outbox,
                    via,
                    (_TAG_PROPOSE, v) + tuple(proposals),
                )
        inbox = yield outbox
        to_relay: Dict[int, List[int]] = {}
        for payload in inbox.values():
            for message in iter_messages(payload):
                if message[0] == _TAG_PROPOSE:
                    to_relay.setdefault(message[1], []).extend(
                        message[2:]
                    )

        # -- round 14: M relays proposals to V (packed, capped) ------
        outbox = {}
        for v, colors in to_relay.items():
            if v not in nbr_set:
                continue
            if len(colors) > _PROPOSAL_CAP:
                colors = rng.sample(colors, _PROPOSAL_CAP)
            _add(outbox, v, (_TAG_PROPOSALS,) + tuple(colors))
        inbox = yield outbox
        my_proposals = [
            color
            for payload in inbox.values()
            for message in iter_messages(payload)
            if message[0] == _TAG_PROPOSALS
            for color in message[1:]
        ]
        stats.proposals_received += len(my_proposals)

        # -- rounds 15-17: V tries a random proposal -----------------
        candidate = None
        if active and self.live and my_proposals:
            candidate = rng.choice(my_proposals)
        adopted = yield from self.try_phase(candidate)
        if adopted:
            stats.colored_in_reduce += 1
        return adopted
