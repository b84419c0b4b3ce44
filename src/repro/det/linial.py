"""Linial's color reduction on G and on G² (Theorem B.1).

One Linial iteration maps a valid m-coloring to a valid q²-coloring
(for max conflict degree D) using the polynomial cover-free family of
:func:`repro.util.fq.linial_set`: color c ↦ the set
A(c) = {(x, p_c(x)) : x ∈ F_q} with p_c the c-th degree-≤d polynomial
over F_q.  Distinct degree-≤d polynomials agree on ≤ d points, so with
q > d·D the D conflicting sets cover < q points of A(c) and every node
finds a pair (x, p(x)) not covered by its conflict neighborhood; the
pair index x·q + p(x) is the new color in [q²].

On G², the conflict neighborhood is the d2-neighborhood: each node
learns the colors of its d2-neighbors by one broadcast round plus
bit-packed relay rounds (Theorem B.1's pipelining argument — with
colors of b bits, ⌈Δ·b / budget⌉ relay rounds suffice, which drops to
O(1) once colors are small).

``color_in`` and ``parts`` ship as columns beside the shared schedule
(:func:`~repro.congest.network.column_inputs`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.congest.network import Network, column_inputs
from repro.congest.node import NodeContext, NodeProgram
from repro.congest.pipelining import items_per_message
from repro.congest.policy import BandwidthPolicy
from repro.graphs.square import max_degree
from repro.results import ColoringResult
from repro.util.fq import linial_set
from repro.util.primes import next_prime_at_least

_TAG_COLOR = "C"
_TAG_RELAY = "R"


def choose_parameters(m: int, conflict_degree: int) -> Tuple[int, int]:
    """The (d, q) minimizing the next palette size q².

    Constraints: q prime, q > d·D (cover-freeness) and q^(d+1) >= m
    (enough degree-<=d polynomials for all input colors).  For each
    candidate degree d, the smallest admissible prime is
    nextprime(max(d·D + 1, ceil(m^{1/(d+1)}))).
    """
    degree_bound = max(1, conflict_degree)
    best: Optional[Tuple[int, int]] = None
    for d in range(1, 300):
        root = math.ceil(m ** (1.0 / (d + 1)))
        q = next_prime_at_least(max(d * degree_bound + 1, root, 2))
        while q ** (d + 1) < m:  # ceil rounding guard
            q = next_prime_at_least(q + 1)
        if best is None or q * q < best[1] * best[1]:
            best = (d, q)
        if root <= d * degree_bound + 1:
            # Larger d only raises the q > d·D floor from here on.
            break
    if best is None:
        raise ArithmeticError(
            f"no Linial parameters for m={m}, D={conflict_degree}"
        )
    return best


def linial_schedule(
    m0: int, conflict_degree: int
) -> List[Tuple[int, int, int]]:
    """The iteration schedule [(d, q, m_new), ...] down to the fixed
    point q_1² with q_1 = nextprime(D+1) — O(D²) colors total.

    Every node derives the same schedule from (n, Δ), so no
    coordination is needed (log* n iterations, Thm B.1).
    """
    schedule = []
    m = m0
    while True:
        d, q = choose_parameters(m, conflict_degree)
        m_new = q * q
        if m_new >= m:
            break
        schedule.append((d, q, m_new))
        m = m_new
    return schedule


def final_palette(m0: int, conflict_degree: int) -> int:
    """Palette size after running the full schedule (m0 if the input
    palette is already at or below the fixed point)."""
    schedule = linial_schedule(m0, conflict_degree)
    return schedule[-1][2] if schedule else m0


def _new_color(
    own_color: int, neighbor_colors: Set[int], d: int, q: int
) -> int:
    """Pick the smallest element of A(own) not covered by neighbors."""
    own_set = sorted(linial_set(own_color, d, q))
    covered: Set[int] = set()
    for c in neighbor_colors:
        if c != own_color:
            covered |= linial_set(c, d, q)
    for pair in own_set:
        if pair not in covered:
            return pair
    raise AssertionError(
        "cover-free property violated: no free pair "
        f"(d={d}, q={q}, |N|={len(neighbor_colors)})"
    )


class LinialProgram(NodeProgram):
    """Runs the full Linial schedule at one node.

    ``ctx.data``: ``schedule`` (shared), ``relay`` (True for the G²
    version), ``per_message`` list (packing factor per iteration),
    ``relay_rounds`` list, optional ``color_in`` (defaults to the ID)
    and optional ``part`` (conflicts are then confined to same-part
    nodes — the per-part Linial of the Theorem 1.3 pipeline).
    """

    def __init__(self, ctx: NodeContext):
        super().__init__(ctx)
        self.color: int = ctx.data.get("color_in", ctx.node)
        self.part: int = ctx.data.get("part", 0)
        self.schedule = ctx.data["schedule"]
        self.relay: bool = ctx.data["relay"]
        self.relay_rounds: Sequence[int] = ctx.data["relay_rounds"]
        self.per_message: Sequence[int] = ctx.data["per_message"]

    def run(self):
        neighbors = self.ctx.neighbors
        for index, (d, q, _m_new) in enumerate(self.schedule):
            # 1. broadcast current color (and part, for filtering)
            inbox = yield self.broadcast(
                (_TAG_COLOR, self.color, self.part)
            )
            direct: Dict[int, Tuple[int, int]] = {
                sender: (payload[1], payload[2])
                for sender, payload in inbox.items()
                if payload[0] == _TAG_COLOR
            }
            conflict_colors: Set[int] = {
                color
                for color, part in direct.values()
                if part == self.part
            }

            # 2. relay rounds (G² only): forward neighbor colors,
            # filtered to the receiver's part.
            if self.relay:
                per_message = self.per_message[index]
                plans = {}
                for receiver in neighbors:
                    recv_part = direct.get(receiver, (None, 0))[1]
                    plans[receiver] = [
                        color
                        for sender, (color, part) in direct.items()
                        if sender != receiver and part == recv_part
                    ]
                for chunk in range(self.relay_rounds[index]):
                    lo = chunk * per_message
                    hi = lo + per_message
                    outbox = {}
                    for receiver, colors in plans.items():
                        part = colors[lo:hi]
                        if part:
                            outbox[receiver] = (_TAG_RELAY,) + tuple(
                                part
                            )
                    inbox = yield outbox
                    for payload in inbox.values():
                        if payload[0] == _TAG_RELAY:
                            conflict_colors.update(payload[1:])

            # 3. recolor locally
            self.color = _new_color(self.color, conflict_colors, d, q)
        return self.color


def _run_linial(
    graph: nx.Graph,
    distance_two: bool,
    delta: Optional[int],
    policy: Optional[BandwidthPolicy],
    color_in: Optional[Dict[int, int]],
    palette_in: Optional[int],
    parts: Optional[Dict[int, int]] = None,
    conflict_degree: Optional[int] = None,
) -> ColoringResult:
    if delta is None:
        delta = max_degree(graph)
    policy = policy or BandwidthPolicy()
    n = graph.number_of_nodes()
    if conflict_degree is None:
        conflict_degree = delta * delta if distance_two else delta
    conflict_degree = max(conflict_degree, 1)
    m0 = palette_in if palette_in is not None else n
    schedule = linial_schedule(m0, conflict_degree)

    budget = policy.budget_bits(n)
    relay_rounds = []
    per_message = []
    current_m = m0
    for _d, _q, m_new in schedule:
        color_bits = max(1, (current_m - 1).bit_length())
        per_msg = items_per_message(color_bits, budget)
        per_message.append(per_msg)
        relay_rounds.append(max(1, -(-delta // per_msg)))
        current_m = m_new

    data = {
        "schedule": schedule,
        "relay": distance_two,
        "relay_rounds": relay_rounds,
        "per_message": per_message,
    }
    inputs = column_inputs(graph, data, color_in=color_in, part=parts)
    network = Network(
        graph, LinialProgram, policy=policy, delta=delta, inputs=inputs
    )
    run = network.run()
    if schedule:
        palette = schedule[-1][2]
    else:
        palette = m0
    return ColoringResult(
        algorithm=(
            "linial-d2" if distance_two else "linial-g"
        ),
        coloring=network.node_colors(),
        palette_size=palette,
        rounds=run.metrics.rounds,
        metrics=run.metrics,
        params={
            "iterations": len(schedule),
            "schedule": schedule,
            "conflict_degree": conflict_degree,
        },
    )


def linial_d2_coloring(
    graph: nx.Graph,
    delta: Optional[int] = None,
    policy: Optional[BandwidthPolicy] = None,
    color_in: Optional[Dict[int, int]] = None,
    palette_in: Optional[int] = None,
    parts: Optional[Dict[int, int]] = None,
    conflict_degree: Optional[int] = None,
) -> ColoringResult:
    """O(Δ⁴)-coloring of G² in O(Δ·log* n / packing) rounds
    (Theorem B.1).  Starts from IDs unless ``color_in`` is given.
    With ``parts``, conflicts are restricted to same-part d2-pairs
    and ``conflict_degree`` should bound the per-part d2-degree."""
    return _run_linial(
        graph,
        True,
        delta,
        policy,
        color_in,
        palette_in,
        parts,
        conflict_degree,
    )


def linial_g_coloring(
    graph: nx.Graph,
    delta: Optional[int] = None,
    policy: Optional[BandwidthPolicy] = None,
    color_in: Optional[Dict[int, int]] = None,
    palette_in: Optional[int] = None,
    parts: Optional[Dict[int, int]] = None,
    conflict_degree: Optional[int] = None,
) -> ColoringResult:
    """O(Δ²)-coloring of G in O(log* n) rounds (classic Linial)."""
    return _run_linial(
        graph,
        False,
        delta,
        policy,
        color_in,
        palette_in,
        parts,
        conflict_degree,
    )
