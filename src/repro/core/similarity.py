"""Similarity graphs H = H_{2/3} and Ĥ = H_{5/6} (Sec. 2.3, Thm 2.2).

Two d2-neighbors are H_{1-1/k}-adjacent when they share "many" common
d2-neighbors.  Exact common-neighborhood sizes are unaffordable in
CONGEST for large Δ, so the paper estimates them from a random sample
S ⊆ V: every node enters S with probability p = c10·log n/Δ²; nodes
learn S_v = S ∩ N²(v); and u, v are declared H_{1-1/k}-adjacent when
|S_u ∩ S_v| ≥ (1 - 1/(2k))·p·Δ².  Theorem 2.2 (sampling accuracy) is
verified by experiment E7.

Where the knowledge lives afterwards (faithful to the paper):

- every node v holds its own set S_v,
- every node v holds S_u for each *immediate* neighbor u, so the
  middle node of any 2-path can decide H-adjacency of its endpoints —
  exactly what query routing in Reduce-Phase needs.

When Δ² = O(log n) the sample would be all of V; the protocol then
gathers exact d2-neighborhoods instead (the paper's small-Δ² case).

The vectorized backend's ``_randomized_d2_kernel`` computes the same
sets and pipelined traffic as arrays (one membership ``random()`` per
node in sampled mode); an edit to the draws or the message layout
here must update that kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.congest.pipelining import items_per_message
from repro.core.constants import Constants, K_H, K_HHAT

_TAG_IN_S = "s"
_TAG_LIST = "l"
_TAG_OWN = "d"


@dataclass(frozen=True)
class SimilarityConfig:
    """Globally derivable parameters of the construction."""

    exact: bool
    sample_p: float
    threshold_h: float
    threshold_hhat: float
    #: pipelined rounds for forwarding 1-hop lists / broadcasting the
    #: own set; identical at every node (derived from n, Δ only).
    forward_rounds: int
    own_rounds: int
    per_message: int

    @staticmethod
    def derive(
        n: int,
        delta: int,
        budget_bits: int,
        constants: Constants,
        force_exact: Optional[bool] = None,
    ) -> "SimilarityConfig":
        delta = max(delta, 1)
        delta_sq = delta * delta
        p = constants.similarity_sample_probability(n, delta)
        exact = p >= 0.5 if force_exact is None else force_exact
        id_bits = max(1, (n - 1).bit_length())
        per_message = items_per_message(id_bits, budget_bits)
        if exact:
            # forward: each node relays its (<= Δ)-sized neighbor
            # list; own: each node pipelines its (<= Δ²)-sized d2
            # list.  Both bounds are deterministic — no drops.
            forward_rounds = max(1, -(-delta // per_message))
            own_rounds = max(1, -(-delta_sq // per_message))
            threshold_h = (1.0 - 1.0 / K_H) * delta_sq
            threshold_hhat = (1.0 - 1.0 / K_HHAT) * delta_sq
            p = 1.0
        else:
            # W.h.p. bounds with slack: |S ∩ N(w)| ≲ 2pΔ + O(log n),
            # |S_v| ≲ 2pΔ² + O(log n); overflowing items are dropped
            # and counted (zero w.h.p.).
            log_n = math.log2(max(n, 2))
            bound_fwd = math.ceil(2.0 * p * delta + 2.0 * log_n + 8)
            bound_own = math.ceil(
                2.0 * p * delta_sq + 2.0 * log_n + 8
            )
            forward_rounds = max(1, -(-bound_fwd // per_message))
            own_rounds = max(1, -(-bound_own // per_message))
            threshold_h = (1.0 - 1.0 / (2 * K_H)) * p * delta_sq
            threshold_hhat = (1.0 - 1.0 / (2 * K_HHAT)) * p * delta_sq
        return SimilarityConfig(
            exact=exact,
            sample_p=p,
            threshold_h=threshold_h,
            threshold_hhat=threshold_hhat,
            forward_rounds=forward_rounds,
            own_rounds=own_rounds,
            per_message=per_message,
        )


class SimilarityState:
    """Per-node similarity knowledge after construction."""

    def __init__(
        self,
        node: int,
        own_set: FrozenSet[int],
        nbr_sets: Dict[int, FrozenSet[int]],
        config: SimilarityConfig,
        dropped_items: int = 0,
    ):
        self.node = node
        self.own_set = own_set
        self.nbr_sets = nbr_sets
        self.config = config
        #: items lost to the pipelining schedule bound (0 w.h.p.).
        self.dropped_items = dropped_items
        # Similarity queries repeat every phase; the underlying sets
        # are static after construction, so memoize.
        self._cache: Dict[tuple, bool] = {}

    def _set_of(self, node: int) -> Optional[FrozenSet[int]]:
        if node == self.node:
            return self.own_set
        return self.nbr_sets.get(node)

    def _similar(self, a: int, b: int, threshold: float) -> bool:
        if a > b:
            a, b = b, a
        key = (a, b, threshold)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        sa = self._set_of(a)
        sb = self._set_of(b)
        if sa is None or sb is None or a == b:
            result = False
        else:
            result = len(sa & sb) >= threshold
        self._cache[key] = result
        return result

    def is_h(self, a: int, b: int) -> bool:
        """H-adjacency of two nodes whose sets this node knows
        (itself and its immediate neighbors)."""
        return self._similar(a, b, self.config.threshold_h)

    def is_hhat(self, a: int, b: int) -> bool:
        """Ĥ-adjacency (higher similarity threshold)."""
        return self._similar(a, b, self.config.threshold_hhat)

    def h_immediate(self) -> FrozenSet[int]:
        """Immediate neighbors that are H-neighbors of this node."""
        return frozenset(
            u for u in self.nbr_sets if self.is_h(self.node, u)
        )


class SimilarityMixin:
    """Sub-protocol building :class:`SimilarityState` at every node.

    Drive with ``self.similarity = yield from
    self.build_similarity(cfg)``.  Round cost is 1 + forward_rounds +
    own_rounds in sampled mode, forward_rounds + own_rounds in exact
    mode — identical at every node by construction.
    """

    ctx = None  # provided by NodeProgram

    def _pipeline_exchange(
        self,
        items: Sequence[int],
        rounds: int,
        per_message: int,
        tag: str,
    ):
        """Send ``items`` to every neighbor over ``rounds`` rounds and
        collect what the neighbors pipeline back under the same tag.

        Returns ``(received: {neighbor: [items]}, dropped: int)``.
        """
        neighbors = self.ctx.neighbors
        received: Dict[int, List[int]] = {u: [] for u in neighbors}
        capacity = rounds * per_message
        dropped = max(0, len(items) - capacity)
        for chunk in range(rounds):
            lo = chunk * per_message
            part = tuple(items[lo : lo + per_message])
            outbox = (
                {u: (tag,) + part for u in neighbors} if part else {}
            )
            inbox = yield outbox
            for sender, payload in inbox.items():
                if payload and payload[0] == tag:
                    received[sender].extend(payload[1:])
        return received, dropped

    def build_similarity(self, config: SimilarityConfig):
        ctx = self.ctx
        neighbors = ctx.neighbors
        dropped = 0

        if config.exact:
            # Phase 1: everyone pipelines its 1-hop neighbor list;
            # from the union each node assembles N²(v).
            lists, d1 = yield from self._pipeline_exchange(
                list(neighbors),
                config.forward_rounds,
                config.per_message,
                _TAG_LIST,
            )
            dropped += d1
            own = set(neighbors)
            for forwarded in lists.values():
                own.update(forwarded)
            own.discard(ctx.node)
        else:
            # Round 1: announce sample membership.
            in_sample = ctx.rng.random() < config.sample_p
            inbox = yield self.broadcast((_TAG_IN_S, in_sample))
            sampled_neighbors = [
                sender
                for sender, payload in inbox.items()
                if payload[0] == _TAG_IN_S and payload[1]
            ]
            # Phase 1: relay S ∩ N(w); union gives S_v = S ∩ N²(v).
            lists, d1 = yield from self._pipeline_exchange(
                sampled_neighbors,
                config.forward_rounds,
                config.per_message,
                _TAG_LIST,
            )
            dropped += d1
            own = set(sampled_neighbors)
            for forwarded in lists.values():
                own.update(forwarded)
            own.discard(ctx.node)

        own_frozen = frozenset(own)

        # Phase 2: pipeline the own set to immediate neighbors.
        received, d2 = yield from self._pipeline_exchange(
            sorted(own_frozen),
            config.own_rounds,
            config.per_message,
            _TAG_OWN,
        )
        dropped += d2
        nbr_sets = {
            u: frozenset(items) for u, items in received.items()
        }
        return SimilarityState(
            ctx.node, own_frozen, nbr_sets, config, dropped
        )
