"""The vectorized array-engine execution backend.

Struct-of-arrays execution for the hottest registry pipelines: node
state lives in numpy int arrays (colors, candidates, palettes,
liveness, MIS state) and every round is a batch of array operations
over the CSR-form G/G² adjacency from :mod:`repro.exec.arrays` —
there is no per-node generator dispatch in the hot loop at all.

Semantics are *identical* to ``reference`` — same outputs, same
round counts, same per-node RNG consumption (kernels draw the very
same counter-hash words the generators would, see
:mod:`repro.congest.rng`), and bit-identical ``RunMetrics`` under
every policy (UNBOUNDED runs count messages but do not size them on
either engine).

Kernels run off the :class:`~repro.congest.network.NetworkPlan` —
the CSR adjacency plus per-node stream keys and counters — so a
kernel-covered run on an *unmaterialized* network never builds a
Python node object at all.  One contract covers every kernel:
:meth:`VectorizedBackend.execute` runs the shared prologue (the stop
monitor the kernel replays, the plan, self-loops), calls
``kernel(network, plan, max_rounds=..., stop_when=...)`` and builds
the ``RunResult``.  A kernel either raises :class:`_Declined` with
its cause — ``execute`` emits ``kernel.decline`` and hands the run to
the generator loop — or returns an :class:`_End`: its rounds, its
traffic, how it ended and its end state, one ``{program attribute:
int64 column | per-node callable | shared value}`` mapping that
``Network.node_colors()``/``node_table()`` serve and that is written
into the programs only if somebody later materializes them.  A halted
run's ``outputs`` is its color table.  One kernel can hand a run over
mid-way: ``improved-d2color`` on the LearnPalette handler path (or
with forward batches narrower than Δ) runs its array sections, then
materializes the programs with their end state and hands LearnPalette
and finish to the :class:`~repro.exec.reference.GeneratorLoop`,
returning that loop's ``RunResult``.

Coverage is per program class, not per call site:

- :class:`TrialProgram` — the whole run (never halts);
- :class:`LubyDistanceKProgram` — the whole run (never halts);
- :class:`LocallyIterativeProgram` / :class:`PartLocallyIterativeD2`
  — the whole bounded 3q-round schedule, halting included (these are
  the try-phase stages of ``deterministic-d2`` and
  ``eps-d2-coloring``);
- :class:`LinialProgram` — the whole fixed schedule of Theorem B.1
  on G or G², per-part conflicts included (the first stage of
  ``deterministic-d2`` and of the Linial-using ``eps-d2-coloring`` /
  ``g_coloring`` paths);
- :class:`ColorReductionProgram` — the whole fixed schedule of
  Theorem B.2 (the last stage of ``deterministic-d2``);
- :class:`RandomizedD2Program` — the random trials, the similarity
  graphs (Sec. 2.3), every Reduce-Phase (Sec. 2.2: the ladder rungs
  and ``basic``'s final-reduce loop, XOR lottery included),
  LearnPalette by flooding and FinishColoring (Sec. 2.6).  Both
  ``basic-d2color`` and ``improved-d2color`` run with zero generator
  programs; ``improved`` resumes the generators for LearnPalette and
  finish only on the handler path (large Δ) or with forward batches
  narrower than Δ.  Their Step-0 fallback is the ``deterministic-d2``
  chain, so on low-Δ graphs they run with zero generator programs
  too.

Kernels read their input from the plan only.  A network whose Python
nodes already exist may hold program state no plan input describes,
so it goes straight to the generator loop (fallback cause
``materialized``).  Every run a kernel cannot replay exactly (custom
``stop_when`` monitors, ``avoid_known`` candidate selection, self-loop
graphs, metered payloads that could exceed the budget, values that
could leave int64, lottery tickets wider than 62 bits, dropped
similarity items) is declined before anything is written and falls
back to ``reference`` automatically, so ``backend="vectorized"`` is
always safe to request.  The guarantees are enforced by
``tests/test_backend_equivalence.py`` and
``tests/test_exec_vectorized.py``.
"""

from __future__ import annotations

import bisect
import copy
import functools
import itertools
from collections import Counter
from typing import Callable, Dict, NamedTuple, Optional, Type

import numpy as np

from repro.baselines.luby import (
    _STATE_DOMINATED,
    _STATE_IN_MIS,
    _STATE_LIVE,
    _TAG_RANK,
    LubyDistanceKProgram,
    _all_decided,
)
from repro.baselines.trial import TrialProgram
from repro.congest.errors import NonterminationError
from repro.congest.message import bit_size, int_bits
from repro.congest.metrics import RunMetrics
from repro.congest.policy import BandwidthMode
from repro.congest.rng import CounterRandom
from repro.core.constants import Constants
from repro.core.d2color import RandomizedD2Program
from repro.core.finish import FINISH_PHASE_ROUNDS
from repro.core.finish import _TAG_FORWARD as _TAG_FINISH_FORWARD
from repro.core.learn_palette import (
    _TAG_FLOOD_COLOR,
    _TAG_FLOOD_RELAY,
    LearnPaletteConfig,
)
from repro.core.reduce import (
    _PROPOSAL_CAP,
    _TAG_CHECK,
    _TAG_CHECK_REPLY,
    _TAG_COLOR_BACK,
    _TAG_COLOR_BACK2,
    _TAG_FORWARD,
    _TAG_FORWARD2,
    _TAG_MEMBER_PROBE,
    _TAG_MEMBER_REPLY,
    _TAG_PATH_PROBE,
    _TAG_PATH_REPLY,
    _TAG_PROPOSALS,
    _TAG_PROPOSE,
    _TAG_QREQ,
    _TAG_QUERY,
    REDUCE_PHASE_ROUNDS,
    ReduceStats,
)
from repro.core import sampling
from repro.core.sampling import _TAG_BEST, _TAG_TICKET
from repro.core.similarity import (
    _TAG_IN_S,
    _TAG_LIST,
    SimilarityConfig,
    SimilarityState,
)
from repro.core.trying import TAG_ADOPT, TAG_TRY, TAG_VERDICT, all_colored
from repro.det.color_reduction import ColorReductionProgram
from repro.det.linial import LinialProgram
from repro.det.locally_iterative import LocallyIterativeProgram
from repro.det.part_d2coloring import PartLocallyIterativeD2
from repro.exec import arrays
from repro.exec.base import ExecutionBackend
from repro.exec.reference import GeneratorLoop
from repro.obs import trace as obs_trace
from repro.util.primes import is_prime

#: Values any node ever sends stay strictly inside int64 under this
#: bound, and every array comparison is exact.
_INT64_SAFE = 2**62

#: Program class -> kernel: ``kernel(network, plan, *, max_rounds,
#: stop_when)`` returns an :class:`_End` (or, handing the run to the
#: generator loop mid-way, that loop's ``RunResult``) or raises
#: :class:`_Declined`.
KERNELS: Dict[Type, Callable] = {}

#: Registry spec name -> the program class its hot network runs; the
#: spec-name half of :func:`kernel_coverage`.  Coverage through this
#: table may be partial per run: ``improved-d2color`` leaves
#: LearnPalette and finish to the generators on the handler path or
#: with forward batches narrower than Δ, and
#: ``deterministic-d2``/``eps-d2-coloring`` are listed
#: under their locally-iterative stage although their Linial stage has
#: a kernel too (so does ``deterministic-d2``'s color reduction, but
#: not ``eps-d2-coloring``'s per-part one).  The Step-0 fallback of the
#: randomized specs is the ``deterministic-d2`` chain: on low-Δ graphs
#: they run no :class:`RandomizedD2Program` and no generator at all.
SPEC_PROGRAMS: Dict[str, Type] = {}


def register_kernel(program_cls: Type, *, specs: tuple = (),
                    stops: tuple = ()):
    """Register the kernel of ``program_cls``; ``stops`` are the
    ``stop_when`` monitors it replays (any other one declines)."""

    def deco(fn):
        fn.stops = stops
        KERNELS[program_cls] = fn
        for spec_name in specs:
            SPEC_PROGRAMS[spec_name] = program_cls
        return fn

    return deco


def kernel_coverage() -> Dict[str, str]:
    """The coverage table, keyed both ways.

    ``{program class name: kernel name}`` for every registered kernel,
    plus ``{registry spec name: kernel name}`` for every spec whose
    hot network run is kernel-covered (see :data:`SPEC_PROGRAMS` for
    the partial-coverage caveats).  Specs absent from the table always
    execute on the generator loop.
    """
    table = {cls.__name__: fn.__name__ for cls, fn in KERNELS.items()}
    for spec_name, cls in SPEC_PROGRAMS.items():
        fn = KERNELS.get(cls)
        if fn is not None:
            table[spec_name] = fn.__name__
    return table


class VectorizedBackend(ExecutionBackend):
    """Array-kernel executor with automatic generator-loop fallback."""

    name = "vectorized"

    def execute(
        self,
        network,
        *,
        max_rounds: int = 1_000_000,
        stop_when: Optional[Callable] = None,
        raise_on_timeout: bool = True,
        record_rounds: bool = False,
    ):
        rec = obs_trace.recorder()
        factory = network.program_factory
        kernel = KERNELS.get(factory) if isinstance(factory, type) else None
        if record_rounds:
            cause = "record-rounds"
        elif network._started:
            cause = "already-started"
        elif network.materialized:
            # Built programs may hold state no plan input describes.
            cause = "materialized"
        elif kernel is None:
            cause = "no-kernel"
        else:
            trace_t0 = rec.clock() if rec is not None else 0.0
            try:
                result = _run_kernel(
                    kernel,
                    network,
                    max_rounds=max_rounds,
                    stop_when=stop_when,
                    raise_on_timeout=raise_on_timeout,
                )
            except _Declined as exc:
                if rec is not None:
                    rec.event(
                        "kernel.decline",
                        {"kernel": kernel.__name__, "cause": str(exc)},
                    )
                cause = "kernel-declined"
            else:
                if rec is not None:
                    rec.complete(
                        "exec.kernel",
                        trace_t0,
                        {
                            "kernel": kernel.__name__,
                            "rounds": result.metrics.rounds,
                            "messages": result.metrics.total_messages,
                            "bits": result.metrics.total_bits,
                        },
                    )
                return result
        if rec is not None:
            rec.event("exec.fallback", {"cause": cause})
        from repro.exec import get_backend

        return get_backend("reference").execute(
            network,
            max_rounds=max_rounds,
            stop_when=stop_when,
            raise_on_timeout=raise_on_timeout,
            record_rounds=record_rounds,
        )


class _Traffic:
    """Message/bit totals of a kernel run (bits are only sized under
    metered policies)."""

    __slots__ = ("metered", "messages", "bits", "max_bits")

    def __init__(self, network):
        self.metered = network.policy.mode is not BandwidthMode.UNBOUNDED
        self.messages = 0
        self.bits = 0
        self.max_bits = 0

    def add(self, messages, sizes=None, copies=None):
        """Count ``messages``; metered runs also pass each distinct
        payload's bit size (one int when they all share it) and how
        many messages carry it (one each when ``copies`` is None).
        ``max_bits`` only sees payloads actually sent."""
        messages = int(messages)
        self.messages += messages
        if not (self.metered and messages):
            return
        if isinstance(sizes, int):
            self.bits += messages * sizes
            biggest = sizes
        elif copies is None:
            self.bits += int(sizes.sum())
            biggest = sizes.max()
        else:
            self.bits += int((sizes * copies).sum())
            biggest = sizes[copies > 0].max()
        self.max_bits = max(self.max_bits, int(biggest))


class _Declined(Exception):
    """A kernel cannot replay this run exactly; the message is the
    cause.  Raised before the kernel writes anything."""


class _End(NamedTuple):
    """How a kernel run ended: its rounds and traffic, ``status``
    (``halted``, ``stopped`` by the monitor, or ``timeout``) and its
    end ``state``, ``{program attribute: int64 column in plan order
    (-1 = None) | per-node callable of the dense index | one value
    every node shares}``."""

    state: dict
    rounds: int
    traffic: _Traffic
    status: str


def _run_kernel(kernel, network, *, max_rounds, stop_when,
                raise_on_timeout):
    """``kernel``'s run of ``network``: the prologue every kernel
    shares, the kernel, and the ``RunResult`` (the network's
    started flag and timeout raise mirror reference's).  Raises
    :class:`_Declined`."""
    from repro.congest.network import RunResult

    if stop_when is not None and stop_when not in kernel.stops:
        raise _Declined("stop-monitor")
    plan = network.plan()
    if plan.csr.has_selfloops:
        raise _Declined("self-loops")
    end = kernel(network, plan, max_rounds=max_rounds, stop_when=stop_when)
    if isinstance(end, RunResult):
        result = end  # handed to the generator loop mid-run
    else:
        halted = end.status == "halted"
        network._end_state = end.state
        # Some resume executed: a round, or the halting one.
        network._started = end.rounds > 0 or halted
        traffic = end.traffic
        result = RunResult(
            outputs=network.node_colors() if halted else {},
            metrics=RunMetrics(
                rounds=end.rounds,
                total_messages=traffic.messages,
                total_bits=traffic.bits,
                max_message_bits=traffic.max_bits,
                budget_bits=network._budget,
                violations=0,
                worst_violation_bits=0,
            ),
            halted=halted,
            stopped_early=end.status == "stopped",
            programs=network.result_programs(),
        )
    if raise_on_timeout and not (result.halted or result.stopped_early):
        raise NonterminationError(max_rounds, set(network.graph.nodes))
    return result


# ----------------------------------------------------------------------
# the generalized try-phase engine
#
# One phase of core.trying as three array steps (round A try, round B
# verdicts, round C adopt), shared by every kernel built on the
# primitive.  The verdict logic collapses exactly: a live trier ``u``
# with candidate ``c`` adopts iff no G-neighbor *has* color ``c``
# (true colors — a server's own color is free information), no
# d2-neighbor has *announced* ``c`` during this run (only announced
# colors reach distance 2; precolored nodes never announce), and no
# other d2-neighbor tried ``c`` this same phase.  Colors and
# announcements only change at round C, so every verdict server's
# round-B knowledge equals the round-A array state.
#
# The conflict pass never reads G²: two nodes are within distance 2
# iff some closed neighbourhood N[x] holds both, so a clash shows up
# at a common neighbour x, the relay.  Every middle x touching a
# trier groups ``(x, value)`` keys over N[x] — the triers' candidates
# and the announced holders' colors, plus x's own color when x is
# precolored (a precolored node blocks its color at distance 1 only,
# i.e. inside its own N[x]) — and a trier whose key repeats in some
# group conflicts.  A phase costs the closed rows of the middles next
# to its triers: the live set of a trial run shrinks geometrically,
# and a Reduce-Phase try has a handful of triers.


class _TryState:
    """Mutable array state of a try-phase window.

    ``relay[i]`` is the value node ``i`` contributes to the conflict
    pass: its color once announced, else ``-1`` (a trier's candidate
    only while a pass runs)."""

    __slots__ = (
        "colors", "fixed", "relay", "adopt_iter", "cand",
        "triers", "relay_entries",
    )

    def __init__(self, n, colors=None):
        if colors is None:
            colors = np.full(n, -1, dtype=np.int64)
        self.colors = colors
        #: Whether some node is precolored (colored, never announced).
        self.fixed = bool((colors >= 0).any())
        self.relay = np.full(n, -1, dtype=np.int64)
        self.adopt_iter = np.full(n, -1, dtype=np.int64)
        self.cand = np.full(n, -1, dtype=np.int64)
        #: Work counters, summed over phases: triers, and the entries of
        #: the closed rows the conflict pass gathered.
        self.triers = 0
        self.relay_entries = 0


#: Closed-row entries per conflict-pass block (on average).  A block's
#: temporaries stay small and are reused by the next block;
#: whole-phase gathers of tens of MB, once freed, stay resident in the
#: allocator and raise the peak RSS of a 2²⁰-node trial run.
_ENTRIES_PER_PASS = 1 << 16

#: Graphs with at most this many closed-row entries (n + 2m) group
#: every middle in every phase: one pass over all of them costs less
#: than finding the triers' neighbourhoods first.
_ALL_MIDDLES_MAX = 1 << 12

#: Candidate values below this bound are ranked through a lookup
#: table; larger ones through a sorted search.
_RANK_TABLE_MAX = 1 << 20

#: Try-phase payload sizes: a ``(tag, candidate)`` try or adopt costs
#: its base plus ``int_bits(candidate)``; a verdict is fixed-size.
_TRY_BASE = bit_size((TAG_TRY, 0)) - 1
_ADOPT_BASE = bit_size((TAG_ADOPT, 0)) - 1
_VERDICT_BITS = bit_size((TAG_VERDICT, True))


def _try_phases_fit(network, worst_value) -> bool:
    """Whether the worst-case try/verdict/adopt payload stays in
    budget (else the run must replay on the generator loop so STRICT
    violations raise at the exact reference round)."""
    if network.policy.mode is BandwidthMode.UNBOUNDED:
        return True
    worst = int_bits(int(worst_value))
    return (
        max(_TRY_BASE + worst, _ADOPT_BASE + worst, _VERDICT_BITS)
        <= network._budget
    )


def _run_try_phases(csr, st, traffic, draw, *, start_round, **kwargs):
    """:func:`_try_rounds` inside a ``kernel.try_phases`` span."""
    rec = obs_trace.recorder()
    trace_t0 = rec.clock() if rec is not None else 0.0
    messages0, bits0 = traffic.messages, traffic.bits
    triers0, entries0 = st.triers, st.relay_entries
    r, rounds, status = _try_rounds(
        csr, st, traffic, draw, start_round=start_round, **kwargs
    )
    if rec is not None:
        rec.complete(
            "kernel.try_phases",
            trace_t0,
            {
                "start_round": start_round,
                "end_round": r,
                "rounds": rounds,
                "status": status,
                "messages": traffic.messages - messages0,
                "bits": traffic.bits - bits0,
                "triers": st.triers - triers0,
                "relay_entries": st.relay_entries - entries0,
            },
        )
    return r, rounds, status


def _try_rounds(
    csr,
    st: "_TryState",
    traffic: _Traffic,
    draw,
    *,
    start_round: int,
    end_round: Optional[int],
    max_rounds: int,
    check_stop: bool,
    idle_forever: bool = False,
):
    """Drive rounds ``[start_round, end_round)`` of 3-round try phases.

    ``draw(phase, live_idx)`` returns the int64 candidates of the live
    nodes (aligned with ``live_idx``; ``-1`` sits the phase out),
    consuming exactly the RNG draws the generators would.  Returns
    ``(r, rounds, status)`` with ``status`` in ``{"stopped",
    "timeout", "done"}`` — checked in the same order as the round
    loop (stop monitor, then ``max_rounds``, then the window bound).
    """
    colors = st.colors
    adopt_iter = st.adopt_iter
    cand = st.cand
    deg = csr.degrees
    metered = traffic.metered

    adopt_idx = np.empty(0, dtype=np.int64)
    pending_verdicts = 0
    rounds = 0
    r = start_round
    while True:
        if check_stop and not (colors < 0).any():
            break_status = "stopped"
            break
        if r >= max_rounds:
            break_status = "timeout"
            break
        if end_round is not None and r >= end_round:
            break_status = "done"
            break
        k = (r - start_round) % 3
        if k == 0:
            live_idx = np.flatnonzero(colors < 0)
            if live_idx.size == 0 and not check_stop and idle_forever:
                # Everyone colored, no stop monitor: every remaining
                # iteration is message-free local computation with the
                # network still running, so it still counts a round.
                rounds += max_rounds - r
                r = max_rounds
                break_status = "timeout"
                break
            cand.fill(-1)
            if live_idx.size:
                cand[live_idx] = draw(
                    (r - start_round) // 3, live_idx
                )
            try_idx = live_idx[cand[live_idx] >= 0]
            own = cand[try_idx]
            send_deg = deg[try_idx]
            pending_verdicts = int(send_deg.sum())
            traffic.add(
                pending_verdicts,
                _TRY_BASE + arrays.int_bits_array(own) if metered else None,
                send_deg,
            )
            # The phase's adoption outcome, decided on the state every
            # verdict server will hold in round B (colors and
            # announcements only change at k == 2, never before).
            adopt_idx = try_idx[~_relay_conflicts(csr, st, try_idx, own)]
            st.triers += int(try_idx.size)
        elif k == 1:
            traffic.add(pending_verdicts, _VERDICT_BITS)
        else:
            send_deg = deg[adopt_idx]
            traffic.add(
                send_deg.sum(),
                _ADOPT_BASE + arrays.int_bits_array(cand[adopt_idx])
                if metered
                else None,
                send_deg,
            )
            colors[adopt_idx] = st.relay[adopt_idx] = cand[adopt_idx]
            adopt_iter[adopt_idx] = r
        rounds += 1
        r += 1
    return r, rounds, break_status


def _closed_blocks(csr, try_idx):
    """The closed rows N[x] of the middles next to ``try_idx``, in
    blocks of about :data:`_ENTRIES_PER_PASS` entries: ``(middles,
    members, groups)``, where ``members`` starts with the middles
    themselves (the heads) followed by their rows, and ``groups``
    names each member's middle.  A group never spans two blocks.
    Every node is a middle when half the nodes try or the graph is
    small — the extra groups hold no trier and flag nothing."""
    n = csr.n
    g_indptr, g_indices, deg = csr.g_indptr, csr.g_indices, csr.degrees
    step = max(1, _ENTRIES_PER_PASS * n // (n + g_indices.size))
    if 2 * try_idx.size >= n or n + g_indices.size <= _ALL_MIDDLES_MAX:
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            block = np.arange(lo, hi)
            yield block, np.concatenate(
                (block, g_indices[g_indptr[lo]:g_indptr[hi]])
            ), np.concatenate((block, np.repeat(block, deg[lo:hi])))
        return
    touch = np.zeros(n, dtype=bool)
    touch[try_idx] = True
    touch[g_indices[_row_positions(g_indptr, try_idx)[0]]] = True
    mids = np.flatnonzero(touch)
    for lo in range(0, mids.size, step):
        block = mids[lo:lo + step]
        pos, seg = _row_positions(g_indptr, block)
        yield block, np.concatenate((block, g_indices[pos])), np.concatenate(
            (block, np.repeat(block, np.diff(seg)))
        )


def _relay_conflicts(csr, st, try_idx, own):
    """Which triers' candidates clash, decided at the relays.

    Every middle x next to a trier groups ``(x, slot)`` keys over its
    closed row N[x]; a trier whose key repeats in some group
    conflicts.  A value's slot is 1 + its rank among the candidates,
    and 0 for a value nobody tries (it can clash with no trier), so a
    key stays below ``n · (len(triers) + 1)``, inside int64.  Returns
    the flags aligned with ``try_idx``.
    """
    if not (try_idx.size and csr.g_indices.size):
        return np.zeros(try_idx.size, dtype=bool)  # no two nodes meet
    relay, cand = st.relay, st.cand
    top = int(own.max())
    if top < _RANK_TABLE_MAX:
        present = np.zeros(top + 2, dtype=bool)
        present[own] = True
        table = np.cumsum(present) * present
        width = int(table[top]) + 1

        def slot(v):  # -1 and values above ``top`` read table[top + 1]
            return table[np.minimum(v, top + 1)]
    else:
        vals = np.sort(own)
        vals = vals[np.concatenate(([True], vals[1:] != vals[:-1]))]
        width = vals.size + 1

        def slot(v):
            r = np.searchsorted(vals, v)
            return np.where(vals[np.minimum(r, vals.size - 1)] == v, r + 1, 0)

    clash = np.zeros(csr.n, dtype=bool)
    relay[try_idx] = own
    for block, members, groups in _closed_blocks(csr, try_idx):
        v = relay[members]
        if st.fixed:  # a precolored middle blocks its color in N[x]
            v[:block.size] = np.maximum(v[:block.size], st.colors[block])
        key = groups * width + slot(v)
        by_key = np.argsort(key, kind="stable")
        key = key[by_key]
        same = key[1:] == key[:-1]
        dup = np.zeros(key.size, dtype=bool)
        dup[1:] = same
        dup[:-1] |= same
        hit = members[by_key[dup]]
        clash[hit[cand[hit] >= 0]] = True
        st.relay_entries += int(members.size)
    relay[try_idx] = -1
    return clash[try_idx]


def _nbr_colors(csr, colors, adopt_iter, resumes):
    """Each node's 1-hop color table, per dense index: an adopt sent
    at iteration t was recorded by neighbors at iteration t + 1, which
    executed iff t + 1 <= ``resumes``."""
    order, g_indptr, g_indices = csr.order, csr.g_indptr, csr.g_indices
    recorded = (adopt_iter >= 0) & (adopt_iter + 1 <= resumes)

    def tables(i):
        row = g_indices[g_indptr[i]:g_indptr[i + 1]]
        return {
            order[j]: int(colors[j])
            for j in row[recorded[row]].tolist()
        }

    return tables


# ----------------------------------------------------------------------
# trial / trial-slack: the whole run is uniform random try phases


@register_kernel(
    TrialProgram, specs=("trial", "trial-slack"), stops=(all_colored,)
)
def _trial_kernel(network, plan, *, max_rounds, stop_when):
    """Vectorized :class:`TrialProgram` — runs off the
    :class:`NetworkPlan`; builds no Python node."""
    csr = plan.csr
    n = csr.n
    read = plan.read_inputs(palette=None, color=-1)
    if read is None:
        raise _Declined("inputs")  # incl. a missing palette
    shared, cols = read
    if shared.get("avoid_known", False):
        raise _Declined("avoid-known")
    palettes = cols["palette"]
    # A given color is >= 0 (-1 is the reader's "uncolored").
    colors = np.array(cols["color"])
    low, high = int(palettes.min()), int(palettes.max())
    if low <= 0:
        raise _Declined("inputs")
    if high >= _INT64_SAFE or int(colors.max()) >= _INT64_SAFE:
        raise _Declined("int64")
    if not _try_phases_fit(network, high - 1):
        raise _Declined("budget")  # could violate: replay on the loop
    phases_tried = np.zeros(n, dtype=np.int64)
    # One palette everywhere: the scalar bound skips randrange's
    # per-element bit lengths and draws the very same values.
    bound = low if low == high else None

    def draw(_phase, live_idx):
        phases_tried[live_idx] += 1
        return plan.randrange(
            live_idx, palettes[live_idx] if bound is None else bound
        )

    traffic = _Traffic(network)
    st = _TryState(n, colors)
    r, rounds, status = _run_try_phases(
        csr, st, traffic, draw,
        start_round=0, end_round=None, max_rounds=max_rounds,
        check_stop=stop_when is not None, idle_forever=True,
    )
    return _End(
        {
            "color": colors,
            "phases_tried": phases_tried,
            "nbr_colors": _nbr_colors(csr, colors, st.adopt_iter, r - 1),
        },
        rounds, traffic, status,
    )


# ----------------------------------------------------------------------
# locally-iterative d2-coloring (deterministic-d2 / eps-d2-coloring):
# q bounded phases trying (offset +) a + b·phase mod q, then halt


def _poly_phase_kernel(network, plan, *, max_rounds, stop_when, with_parts):
    """Shared kernel for :class:`LocallyIterativeProgram`
    (``with_parts=False``) and :class:`PartLocallyIterativeD2`
    (``with_parts=True``): draw-free try phases with candidates
    ``offset + (a + b·phase) mod q``, halting after q phases."""
    csr = plan.csr
    n = csr.n
    read = plan.read_inputs(
        color_in=None, **({"part": None} if with_parts else {})
    )
    if read is None:
        raise _Declined("inputs")  # the constructor raises on them
    shared, cols = read
    q = shared.get("q")  # shared: one phase schedule for every node
    color_in = cols["color_in"]
    if not isinstance(q, int) or q <= 0 or int(color_in.max()) >= q * q:
        raise _Declined("inputs")
    parts = cols["part"] if with_parts else np.zeros(n, dtype=np.int64)
    worst_candidate = (int(parts.max()) + 1) * q - 1
    if q * q >= _INT64_SAFE or worst_candidate >= _INT64_SAFE:
        raise _Declined("int64")
    if not _try_phases_fit(network, worst_candidate):
        raise _Declined("budget")
    a, b = np.divmod(color_in, q)
    offset = parts * q

    def draw(phase, live_idx):
        return (
            (a[live_idx] + b[live_idx] * phase) % q + offset[live_idx]
        )

    traffic = _Traffic(network)
    st = _TryState(n)
    colors, adopt_iter = st.colors, st.adopt_iter
    end_round = 3 * q
    r, rounds, status = _run_try_phases(
        csr, st, traffic, draw,
        start_round=0, end_round=end_round, max_rounds=max_rounds,
        check_stop=stop_when is not None,
    )

    halted = status == "done"
    # Generator resumes executed: rounds 0..r-1 for an aborted window,
    # plus the final halting resume (which consumes the last adopt
    # inbox and runs the phase-(q-1) bookkeeping) on a completed one.
    resumes = end_round if halted else r - 1

    # blocked_phases / succeeded_phase bookkeeping of phase t runs at
    # resume 3t+3; a node tries every phase while live, so with
    # adoption phase A (= adopt_iter // 3, else inf) the blocked count
    # is |{t : t < A, 3t+3 <= resumes, t < q}|.
    t_booked = (resumes - 3) // 3  # last phase with bookkeeping done
    adopted = adopt_iter >= 0
    adopt_phase = np.where(adopted, adopt_iter // 3, np.int64(q))
    blocked = np.maximum(
        0,
        np.minimum(
            np.minimum(adopt_phase - 1, t_booked), q - 1
        ) + 1,
    )
    state = {
        "color": colors,
        "blocked_phases": blocked,
        "nbr_colors": _nbr_colors(csr, colors, adopt_iter, resumes),
    }
    if not with_parts:
        success_known = adopted & (3 * adopt_phase + 3 <= resumes)
        state["succeeded_phase"] = np.where(success_known, adopt_phase, -1)
    return _End(state, rounds, traffic, "halted" if halted else status)


@register_kernel(
    LocallyIterativeProgram, specs=("deterministic-d2",),
    stops=(all_colored,),
)
def _locally_iterative_kernel(network, plan, **run):
    """Vectorized :class:`LocallyIterativeProgram` (Theorem B.4)."""
    return _poly_phase_kernel(network, plan, with_parts=False, **run)


@register_kernel(
    PartLocallyIterativeD2, specs=("eps-d2-coloring",),
    stops=(all_colored,),
)
def _part_locally_iterative_kernel(network, plan, **run):
    """Vectorized :class:`PartLocallyIterativeD2` (Lemma 3.5 stage 2:
    part-offset palettes, identical phase schedule)."""
    return _poly_phase_kernel(network, plan, with_parts=True, **run)


# ----------------------------------------------------------------------
# Linial (Theorem B.1) and color reduction (Theorem B.2): fixed-length
# schedules of broadcasts and bit-packed relays.  Every node runs every
# round and halts on the resume after the last one, so the round count
# is known up front and only the traffic and the recoloring need work.

#: Elements per ``(pairs, q)`` temporary of the Linial kernel.
_BLOCK_ELEMS = 1 << 20


def _relay_traffic(csr, traffic, weights, head, per_message, rounds,
                   groups, *, keep=None, sent=None):
    """Meter one bit-packed relay; False if a list outgrows it.

    For ``rounds`` rounds every node u sends each neighbor v the next
    ``per_message`` items of v's list — the items of u's *other*
    neighbors in v's group (all of them when ``groups`` is None), in
    u's inbox order, which is ascending sender order — as one
    ``(tag,) + chunk`` message of ``head`` plus item ``weights`` bits.
    With a ``keep`` mask (and no ``groups``) only kept neighbors have
    items: v's list is u's kept neighbors other than v.  A list longer
    than ``rounds · per_message`` is truncated by the generators,
    which the caller must decline.  Only the first ``sent`` rounds are
    metered (all when None: a cut-off ends the relay early).
    """
    indices = csr.g_indices
    nnz = indices.size
    if nnz == 0:
        return True
    src = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees)
    # Row entries sorted by (kept first, group, index); rows stay put
    # and CSR rows are already index-sorted.
    cols = indices
    if groups is not None or keep is not None:
        keys = [indices]
        if groups is not None:
            keys.append(groups[indices])
        if keep is not None:
            keys.append(~keep[indices])
        keys.append(src)
        cols = indices[np.lexsort(keys)]
    if keep is not None:
        # Each row's kept entries lead it; v's list is that block,
        # minus v itself when v is kept.
        kept = keep[cols]
        length = np.bincount(src[kept], minlength=csr.n)[src] - kept
    else:
        # Each row sorted by (group, order): entry e is receiver v of
        # sender src[e]; v's list is its group block minus v itself.
        start = np.ones(nnz, dtype=bool)
        start[1:] = src[1:] != src[:-1]
        if groups is not None:
            member = groups[cols]
            start[1:] |= member[1:] != member[:-1]
        block_start = np.flatnonzero(start)
        block_of = np.cumsum(start) - 1
        length = np.diff(np.append(block_start, nnz))[block_of] - 1
    longest = int(length.max())
    if longest > rounds * per_message:
        return False
    chunks = -(-length // per_message)
    if sent is not None:
        chunks = np.minimum(chunks, sent)
    messages = int(chunks.sum())
    if not traffic.metered or messages == 0:
        traffic.messages += messages
        return True
    w = weights[cols]
    csum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(w)))
    # ``pos``: v's place in its block (``nnz``, past every chunk, when
    # v is not kept and so not in the block).
    if keep is not None:
        base = csr.g_indptr[src]
        pos = np.where(kept, np.arange(nnz, dtype=np.int64) - base, nnz)
    else:
        base = block_start[block_of]
        pos = np.arange(nnz, dtype=np.int64) - base
    for k in range(int(chunks.max())):
        lo = k * per_message
        live = np.flatnonzero(length > lo)
        p = pos[live]
        b = base[live]
        hi = np.minimum(lo + per_message, length[live])
        # List item i sits at block position i (i < p) or i + 1.
        sizes = (
            head
            + csum[b + hi + (hi > p)]
            - csum[b + lo + (lo >= p)]
            - np.where((lo < p) & (hi > p), w[live], 0)
        )
        traffic.add(sizes.size, sizes)
    return True


def _row_positions(indptr, rows):
    """Flat CSR positions of ``rows``' entries, concatenated, and the
    segment indptr over them."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    seg = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(lens)))
    pos = np.arange(seg[-1], dtype=np.int64) - np.repeat(
        seg[:-1] - starts, lens
    )
    return pos, seg


def _row_mex(values, seg):
    """Per segment, the smallest non-negative int absent from it."""
    rows = seg.size - 1
    lens = np.diff(seg)
    bound = int(lens.max(initial=0)) + 1  # a row of L values has mex <= L
    owner = np.repeat(np.arange(rows, dtype=np.int64), lens)
    keep = (values >= 0) & (values < bound)
    keys = np.unique(owner[keep] * bound + values[keep])
    row, value = keys // bound, keys % bound
    rank = np.arange(keys.size) - np.searchsorted(row, row)
    # Sorted distinct values match their rank exactly on a prefix.
    return np.bincount(
        row, weights=value == rank, minlength=rows
    ).astype(np.int64)


def _horner(digits, rows, x, q):
    """``p_v(x) mod q`` for nodes ``rows``, broadcast against ``x``;
    ``digits`` holds the base-q coefficient rows (low to high)."""
    acc = digits[-1][rows]
    for k in range(digits.shape[0] - 2, -1, -1):
        acc = acc * x
        acc += digits[k][rows]
        acc %= q
    return np.broadcast_to(acc, np.broadcast_shapes(rows.shape, x.shape))


def _poly_table(digits, nodes, xs, q):
    """The ``(nodes, q)`` table of ``p_v(x)``, in the narrowest dtype
    holding ``[0, q)`` (lookups dominate the Linial step)."""
    return _horner(digits, nodes[:, None], xs, q).astype(
        np.min_scalar_type(q - 1)
    )


def _linial_step(colors, d, q, indptr, indices, same_part):
    """One Linial recoloring, or None if some node finds no free pair.

    Color c is the polynomial p_c whose coefficients are the d + 1
    base-q digits of c, evaluated by Horner at every x in F_q.  A
    conflicting color covers the x where its polynomial agrees with
    p_c, and the new color is ``x·q + p_c(x)`` at the first uncovered
    x: the smallest element of A(c) ``_new_color`` picks.  Rows go in
    blocks, so the ``(pairs, q)`` temporaries (and the evaluation
    table, when all n rows of it would not fit) stay near
    ``_BLOCK_ELEMS``.
    """
    n = colors.size
    digits = np.empty((d + 1, n), dtype=np.int64)
    rest = colors.copy()
    for k in range(d + 1):
        digits[k] = rest % q
        rest //= q
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    xs = np.arange(q, dtype=np.int64)
    table = None
    if n * q <= _BLOCK_ELEMS:
        table = _poly_table(digits, np.arange(n), xs, q)
    per_block = max(1, _BLOCK_ELEMS // q)
    out = np.empty(n, dtype=np.int64)
    r0 = 0
    while r0 < n:
        r1 = int(
            np.searchsorted(indptr, indptr[r0] + per_block, side="right")
        ) - 1
        r1 = min(n, r0 + per_block, max(r1, r0 + 1))
        lo, hi = indptr[r0], indptr[r1]
        i, j = owner[lo:hi], indices[lo:hi]
        keep = colors[i] != colors[j]
        if same_part is not None:
            keep &= same_part[lo:hi]
        i, j = i[keep], j[keep]
        if table is None:
            need, at = np.unique(
                np.concatenate((i, j)), return_inverse=True
            )
            values = _poly_table(digits, need, xs, q)
            pair, x = np.nonzero(values[at[:i.size]] == values[at[i.size:]])
        else:
            pair, x = np.nonzero(table[i] == table[j])
        covered = np.zeros((r1 - r0, q), dtype=bool)
        covered[i[pair] - r0, x] = True
        x = np.argmin(covered, axis=1)
        if covered[np.arange(r1 - r0), x].any():
            return None  # cover-freeness fails: the generator raises
        rows = np.arange(r0, r1)
        out[r0:r1] = x * q + _horner(digits, rows, x, q)
        r0 = r1
    return out


def _is_int64_safe(value) -> bool:
    return isinstance(value, int) and -_INT64_SAFE < value < _INT64_SAFE


def _label_column(order):
    """The node labels as an int64 column (the Linial input colors of
    nodes given none), or ``None`` when a label is negative or beyond
    the int64 arrays: such nodes need an explicit ``color_in``."""
    if not (0 <= order[0] and _is_int64_safe(order[-1])):
        return None
    if isinstance(order, range):
        return np.arange(order.start, order.stop, order.step)
    return np.fromiter(order, np.int64, len(order))


@register_kernel(LinialProgram)
def _linial_kernel(network, plan, *, max_rounds, stop_when):
    """Vectorized :class:`LinialProgram` (Theorem B.1), G and G²
    variants, per-part conflicts included.

    Each schedule step is one ``(C, color, part)`` broadcast, then (G²
    only) ``relay_rounds`` bit-packed relay rounds, then the local
    recoloring of :func:`_linial_step` over the same-part G (or G²)
    rows.  Declines when the relay would truncate a list, on a metered
    message over budget, on inputs the generators raise on, and on
    ``max_rounds`` short of the halting resume.
    """
    csr = plan.csr
    n = csr.n
    # A node's input color defaults to its label.
    read = plan.read_inputs(color_in=_label_column(csr.order), part=0)
    if read is None:
        raise _Declined("inputs")
    shared, cols = read
    colors, parts = cols["color_in"], cols["part"]
    schedule, relay, relay_rounds, per_message = (
        shared.get(key)
        for key in ("schedule", "relay", "relay_rounds", "per_message")
    )
    try:
        steps = [(d, q) for d, q, _m_new in schedule]
        if relay:
            packing = [
                (per_message[k], relay_rounds[k])
                for k in range(len(steps))
            ]
    except (TypeError, ValueError, IndexError):
        raise _Declined("inputs") from None  # the generator raises
    for d, q in steps:
        if not (
            isinstance(d, int)
            and isinstance(q, int)
            and d >= 0
            and 2 <= q < 2**31
            and is_prime(q)
        ):
            raise _Declined("inputs")
    if relay and not all(
        isinstance(p, int) and isinstance(r, int) and p >= 1
        for p, r in packing
    ):
        raise _Declined("inputs")
    schedule_rounds = len(steps) + (
        sum(max(0, r) for _p, r in packing) if relay else 0
    )
    if max_rounds <= schedule_rounds:
        raise _Declined("max-rounds")  # the halting resume times out

    traffic = _Traffic(network)
    if relay:
        indptr, indices = csr.g2_indptr, csr.g2_indices
    else:
        indptr, indices = csr.g_indptr, csr.g_indices
    split = bool((parts != parts[0]).any())
    same_part = None
    if split:
        owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        same_part = parts[indices] == parts[owner]
    part_bits = arrays.int_bits_array(parts) if traffic.metered else None

    for k, (d, q) in enumerate(steps):
        if int(colors.min()) < 0 or int(colors.max()) >= q ** (d + 1):
            raise _Declined("color-range")  # the generator raises
        color_bits = (
            arrays.int_bits_array(colors) if traffic.metered else None
        )
        traffic.add(
            n, 14 + color_bits + part_bits if traffic.metered else None
        )
        if relay:
            per_msg, rounds = packing[k]
            if not _relay_traffic(
                csr, traffic,
                2 + color_bits if traffic.metered else None,
                10, per_msg, max(0, rounds),
                parts if split else None,
            ):
                raise _Declined("relay-truncates")
        colors = _linial_step(colors, d, q, indptr, indices, same_part)
        if colors is None:
            raise _Declined("no-free-pair")  # the generator raises
    if traffic.metered and traffic.max_bits > network._budget:
        raise _Declined("budget")  # reference counts (or raises) them
    return _End({"color": colors}, schedule_rounds, traffic, "halted")


@register_kernel(ColorReductionProgram)
def _color_reduction_kernel(network, plan, *, max_rounds, stop_when):
    """Vectorized :class:`ColorReductionProgram` (Theorem B.2).

    After the ``(C, color)`` broadcast and the bit-packed gather, the
    nodes recoloring in a phase are the strict G²-local maxima above
    the target, so no two are d2-adjacent and a node recolors one
    phase after the last of its higher-colored d2-neighbors (never, if
    one of them never does or shares its color).  The kernel walks the
    color levels top down: each level's phases come from a
    ``row_max`` over its G² rows, and each recoloring node takes the
    smallest color in ``[target]`` missing from its row — its
    d2-neighbors above it have recolored by then and those below
    cannot have.  Each recoloring costs one ``X`` broadcast plus one
    ``F`` forward per G-neighbor.  All ``2·phases + 1 + gather_rounds``
    rounds run; there is no early stop.
    """
    csr = plan.csr
    n = csr.n
    order = csr.order
    if not (_is_int64_safe(order[0]) and _is_int64_safe(order[-1])):
        raise _Declined("labels")  # node labels ride in announcements
    read = plan.read_inputs(color_in=None)
    if read is None:
        raise _Declined("inputs")
    shared, cols = read
    colors = cols["color_in"]
    target, phases, gather_rounds, per_message = (
        shared.get(key)
        for key in ("target", "phases", "gather_rounds", "per_message")
    )
    if not (
        all(
            isinstance(v, int)
            for v in (target, phases, gather_rounds, per_message)
        )
        and per_message >= 1
        and _is_int64_safe(target)
    ):
        raise _Declined("inputs")
    phases = max(0, phases)
    schedule_rounds = 1 + max(0, gather_rounds) + 2 * phases
    if max_rounds <= schedule_rounds:
        raise _Declined("max-rounds")

    traffic = _Traffic(network)
    color_bits = arrays.int_bits_array(colors) if traffic.metered else None
    traffic.add(n, 12 + color_bits if traffic.metered else None)
    if not _relay_traffic(
        csr, traffic, 2 + color_bits if traffic.metered else None, 10,
        per_message, max(0, gather_rounds), None,
    ):
        raise _Declined("relay-truncates")

    g2_indptr, g2_indices = csr.g2_indptr, csr.g2_indices
    current = colors.copy()
    # Phase each node recolors in; ``phases`` = never; -1 = not above
    # the target or not reached yet (both read as "no constraint").
    phase_of = np.full(n, -1, dtype=np.int64)
    high = np.flatnonzero(colors >= target)
    high = high[np.argsort(-colors[high], kind="stable")]
    cuts = np.flatnonzero(np.diff(colors[high])) + 1
    for level in np.split(high, cuts) if high.size else ():
        pos, seg = _row_positions(g2_indptr, level)
        nbrs = g2_indices[pos]
        phase = arrays.row_max(phase_of[nbrs], seg, -1) + 1
        tie = arrays.row_any(colors[nbrs] == colors[level[0]], seg)
        phase[tie | (phase >= phases)] = phases
        phase_of[level] = phase
        win = np.flatnonzero(phase < phases)
        if win.size == 0:
            continue
        wpos, wseg = _row_positions(g2_indptr, level[win])
        fresh = _row_mex(current[g2_indices[wpos]], wseg)
        if (fresh >= target).any():
            raise _Declined("no-free-color")  # the generator raises
        current[level[win]] = fresh
    recolored = np.where(
        (colors >= target) & (phase_of < phases), phase_of, -1
    )
    won = np.flatnonzero(recolored >= 0)
    copies = 1 + csr.degrees[won]
    labels = np.asarray(order, dtype=np.int64)[won]
    traffic.add(
        int(copies.sum()),
        16
        + arrays.int_bits_array(labels)
        + color_bits[won]
        + arrays.int_bits_array(current[won])
        if traffic.metered
        else None,
        copies,
    )
    if traffic.metered and traffic.max_bits > network._budget:
        raise _Declined("budget")
    g_indptr, g_indices = csr.g_indptr, csr.g_indices

    def d2_multiset(i):
        # One count per adjacency plus one per 2-path, as announced.
        row = g_indices[g_indptr[i]:g_indptr[i + 1]]
        pos, _seg = _row_positions(g_indptr, row)
        two = g_indices[pos]
        seen = np.concatenate((row, two[two != i]))
        return Counter(current[seen].tolist())

    return _End(
        {
            "color": current,
            "recolored_in_phase": recolored,
            "d2_colors": d2_multiset,
        },
        schedule_rounds, traffic, "halted",
    )


# ----------------------------------------------------------------------
# randomized d2-color (improved + basic): the random trials, the
# similarity graphs, every Reduce-Phase, LearnPalette by flooding and
# finish run as arrays; ``improved`` hands LearnPalette and finish back
# to the generators only on the handler path or with narrow forward
# batches.

#: Reduce-Phase payload sizes that do not depend on the values carried.
_TICKET_BASE = bit_size((_TAG_TICKET, 0)) - 1
_BEST_BASE = bit_size((_TAG_BEST, 0, 0)) - 2
_QREQ_BITS = bit_size((_TAG_QREQ,))
_IN_S_BITS = bit_size((_TAG_IN_S, True))
_LIST_BASE = bit_size((_TAG_LIST,))  # + (2 + int_bits) per item

#: LearnPalette / finish payload sizes: a ``("fc", c)`` flood costs its
#: base plus ``int_bits(c)``; relays and forwards add ``2 + int_bits``
#: per color carried.
_FLOOD_BASE = bit_size((_TAG_FLOOD_COLOR, 0)) - 1
_RELAY_HEAD = bit_size((_TAG_FLOOD_RELAY,))
_FORWARD_HEAD = bit_size((_TAG_FINISH_FORWARD, False))

#: Which fields of each routing message carry a node (sent as its
#: label; the kernel carries dense indices).
_NODE_FIELDS = {
    _TAG_QUERY: (1,),
    _TAG_PATH_PROBE: (1,),
    _TAG_FORWARD: (1, 2),
    _TAG_FORWARD2: (1, 2),
    _TAG_MEMBER_PROBE: (1,),
    _TAG_COLOR_BACK: (1, 2),
    _TAG_COLOR_BACK2: (1,),
    _TAG_PROPOSE: (1,),
}

#: Row of each :class:`ReduceStats` counter in the kernel's table.
_STATS = (
    "queries_sent",
    "queries_received",
    "queries_accepted",
    "proposals_received",
    "proposals_made",
    "colored_in_reduce",
)
_SENT, _RECEIVED, _ACCEPTED, _PROPOSED_TO, _PROPOSED, _COLORED = range(6)


def _pipeline_traffic(items, indptr, pm, rounds, deg, item_bits):
    """Per round k, ``(messages, sizes, copies)`` of the chunk-k
    messages of :meth:`SimilarityMixin._pipeline_exchange`: node v
    sends items ``[k·pm, (k+1)·pm)`` of its list (``items[indptr[v]:
    indptr[v+1]]``) to each of its ``deg[v]`` neighbors.  ``sizes`` is
    None when ``item_bits`` is (unmetered)."""
    lens = np.diff(indptr)
    csum = None
    if item_bits is not None:
        csum = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(item_bits[items]))
        )
    out = []
    for k in range(rounds):
        lo = k * pm
        senders = np.flatnonzero((lens > lo) & (deg > 0))
        copies = deg[senders]
        sizes = None
        if csum is not None:
            base = indptr[senders]
            hi = np.minimum(lens[senders], lo + pm)
            sizes = _LIST_BASE + csum[base + hi] - csum[base + lo]
        out.append((int(copies.sum()), sizes, copies))
    return out


def _sub_rows(n, owner, items, keep):
    """``(items, indptr)`` of the CSR entries ``keep`` selects, each
    row keeping its order (``owner`` is every entry's row)."""
    counts = np.bincount(owner[keep], minlength=n)
    return items[keep], np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts))
    )


def _common_counts(csr, sample):
    """``|S_a ∩ S_b|`` for every G² entry (a, b), where ``S_v`` is v's
    distance-≤2 set (intersected with ``sample`` when given): the
    number of (sampled) c with G² paths a–c–b, counted per block of
    rows a so each block's paths and count table stay near
    ``_BLOCK_ELEMS``."""
    n = csr.n
    indptr, indices = csr.g2_indptr, csr.g2_indices
    d2 = csr.d2_degrees
    owner = np.repeat(np.arange(n, dtype=np.int64), d2)
    via = d2[indices] if sample is None else np.where(
        sample[indices], d2[indices], 0
    )
    paths = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(via))
    )[indptr]  # paths before row a
    out = np.empty(indices.size, dtype=np.int64)
    r0 = 0
    while r0 < n:
        r1 = int(np.searchsorted(
            paths, paths[r0] + _BLOCK_ELEMS, side="right"
        )) - 1
        r1 = min(n, r0 + max(1, _BLOCK_ELEMS // n), max(r1, r0 + 1))
        lo, hi = indptr[r0], indptr[r1]
        mid = indices[lo:hi]
        pos, _ = _row_positions(indptr, mid)
        rows = np.repeat(owner[lo:hi] - r0, d2[mid]) * n + indices[pos]
        if sample is not None:
            rows = rows[np.repeat(sample[mid], d2[mid])]
        counts = np.bincount(rows, minlength=(r1 - r0) * n)
        out[lo:hi] = counts[(owner[lo:hi] - r0) * n + mid]
        r0 = r1
    return out


class _RandomizedRun:
    """One :class:`RandomizedD2Program` run on arrays.

    Sections execute in the variant's order (``improved``: trials,
    similarity, ladder, then — when :attr:`tail` — LearnPalette and
    finish forever; ``basic``: similarity, trials, ladder,
    final-reduce forever), each from round ``self.r`` on.  Every draw
    goes to a copy of the plan's counters (committed only when the run
    is accepted) in each node's generator order: per Reduce-Phase the
    activation ``random()`` while live, the lottery ticket, then —
    only at nodes a query touches, replayed per node in Python — the
    coins, choices, relay picks and proposal samples of
    ``reduce_phase`` in source order; per finish phase the coin
    ``random()`` while live, then the pick of a node whose coin came
    up.  Raises :class:`_Declined` before anything is written when it
    cannot replay a run.
    """

    def __init__(self, network, plan, *, max_rounds, check_stop,
                 palette, variant, trials, sim_config, constants,
                 ladder, filter_bits, learn_config, forward_per_round):
        csr = self.csr = plan.csr
        self.n = n = csr.n
        self.order = csr.order
        self.labels = np.asarray(csr.order, dtype=np.int64)
        self.max_rounds = max_rounds
        self.check_stop = check_stop
        self.palette = palette
        self.variant = variant
        self.trials = trials
        self.sim_config = sim_config
        self.constants = constants
        self.ladder_schedule = ladder
        plan.node_keys  # derive once, shared with the copy
        self.draws = copy.copy(plan)
        self.draws.counters = plan.counters.copy()
        self.traffic = _Traffic(network)
        self.st = _TryState(n)
        self.stats = np.zeros((len(_STATS), n), dtype=np.int64)
        self.all_idx = np.arange(n, dtype=np.int64)
        self.label_bits = arrays.int_bits_array(self.labels)
        self.space = 1 << sampling.ticket_bits(n)
        self.threshold = (
            self.space >> filter_bits if filter_bits > 0 else self.space
        )
        self.r = 0
        #: ``(name, start, rounds or None)`` of every section entered.
        self.sections = []
        self.pending_colored = None
        #: ``(items, indptr)`` of every node's similarity set S_v.
        self.own_rows = None
        self._nbrs = None
        self._h_rows = ({}, {})
        self.learn_config = learn_config
        # Every relay list holds at most Δ - 1 colors and every forward
        # queue at most Δ, so with flooding whose rounds fit the lists
        # and batches of at least Δ nothing is dropped and no Busy is
        # ever raised: the kernel can run LearnPalette and finish too.
        # Otherwise (the handler path, narrow batches) the generators
        # resume after the ladder.
        self.max_deg = max_deg = int(csr.degrees.max(initial=0))
        self.tail = (
            variant == "improved"
            and learn_config.small_delta
            and learn_config.flood_rounds * learn_config.per_message
            >= max_deg - 1
            and forward_per_round >= max_deg
        )
        #: Colors at LearnPalette's start (the free sets derive from them).
        self.learn_colors = None
        #: Live-at-learn rows × palette: each row's remaining colors.
        self.free = None
        self.free_row = None

    # -- the schedule ---------------------------------------------------

    def run(self) -> str:
        """Execute the kernel sections; the status at ``self.r``."""
        if self.variant == "improved":
            steps = (self.run_trials, self.run_similarity, self.run_ladder)
            if self.tail:
                steps += (self.run_learn, self.run_finish)
        else:
            steps = (
                self.run_similarity, self.run_trials, self.run_ladder,
                self.run_final_reduce,
            )
        for step in steps:
            status = step()
            if status != "done":
                return status
        return self.enter(self.r) or "done"

    def enter(self, r):
        """Round ``r``'s top-of-round checks (stop monitor, then
        ``max_rounds``); None when round r executes, which also books
        what its resume does for the previous round's adopters."""
        if self.check_stop and not (self.st.colors < 0).any():
            return "stopped"
        if r >= self.max_rounds:
            return "timeout"
        if self.pending_colored is not None:
            self.stats[_COLORED, self.pending_colored] += 1
            self.pending_colored = None
        return None

    def silent(self, rounds) -> str:
        """``rounds`` message-free rounds (no color changes)."""
        end = self.r + rounds
        if end > self.max_rounds:
            self.r = self.max_rounds
            return "timeout"
        self.r = end
        return "done"

    def live_count(self) -> int:
        return int((self.st.colors < 0).sum())

    def span(self, name, body, **attrs) -> str:
        """Run the section ``body()`` inside the X span ``name`` (its
        rounds, traffic and the live count at exit); its status."""
        rec = obs_trace.recorder()
        t0 = rec.clock() if rec is not None else 0.0
        m0, b0, r0 = self.traffic.messages, self.traffic.bits, self.r
        status = body()
        if rec is not None:
            attrs.update(
                start_round=r0,
                end_round=self.r,
                rounds=self.r - r0,
                status=status,
                messages=self.traffic.messages - m0,
                bits=self.traffic.bits - b0,
                live=self.live_count(),
            )
            rec.complete(name, t0, attrs)
        return status

    # -- random trials --------------------------------------------------

    def run_trials(self) -> str:
        start = self.r
        self.sections.append(("trials", start, 3 * self.trials))
        palette = self.palette

        def draw(_phase, live_idx):
            return self.draws.randrange(live_idx, palette)

        self.r, _rounds, status = _run_try_phases(
            self.csr, self.st, self.traffic, draw,
            start_round=start, end_round=start + 3 * self.trials,
            max_rounds=self.max_rounds, check_stop=self.check_stop,
        )
        return status

    # -- similarity graphs (Sec. 2.3) ------------------------------------

    def run_similarity(self) -> str:
        return self.span("kernel.similarity", self._similarity)

    def _similarity(self) -> str:
        csr, cfg, n = self.csr, self.sim_config, self.n
        pm = cfg.per_message
        start = self.r
        rounds = (
            cfg.forward_rounds + cfg.own_rounds + (0 if cfg.exact else 1)
        )
        self.sections.append(("similarity", start, rounds))
        status = self.enter(start)
        if status is not None:
            return status
        deg = csr.degrees
        g_indptr, g_indices = csr.g_indptr, csr.g_indices
        g2_indptr, g2_indices = csr.g2_indptr, csr.g2_indices
        item_bits = (
            2 + self.label_bits if self.traffic.metered else None
        )
        schedule = []
        if cfg.exact:
            sample = None
            fwd_items, fwd_indptr = g_indices, g_indptr
            own_items, own_indptr = g2_indices, g2_indptr
        else:
            sample = self.draws.random(self.all_idx) < cfg.sample_p
            schedule.append(
                (n, _IN_S_BITS if item_bits is not None else None, None)
            )
            # S ∩ N(v) in v's inbox order (ascending, as its CSR row).
            fwd_items, fwd_indptr = _sub_rows(
                n, np.repeat(self.all_idx, deg), g_indices,
                sample[g_indices],
            )
            own_items, own_indptr = _sub_rows(
                n, np.repeat(self.all_idx, csr.d2_degrees), g2_indices,
                sample[g2_indices],
            )
        self.own_rows = own_items, own_indptr
        if (
            np.diff(fwd_indptr).max(initial=0) > cfg.forward_rounds * pm
            or np.diff(own_indptr).max(initial=0) > cfg.own_rounds * pm
        ):
            raise _Declined("similarity-drops")
        schedule += _pipeline_traffic(
            fwd_items, fwd_indptr, pm, cfg.forward_rounds, deg, item_bits
        )
        schedule += _pipeline_traffic(
            own_items, own_indptr, pm, cfg.own_rounds, deg, item_bits
        )
        for k, (messages, sizes, copies) in enumerate(schedule):
            if start + k >= self.max_rounds:
                self.r = self.max_rounds
                return "timeout"
            self.traffic.add(messages, sizes, copies)
        self.r = start + rounds
        common = _common_counts(csr, sample)
        self.h_entry = common >= cfg.threshold_h
        self.hh_entry = common >= cfg.threshold_hhat
        self._compile_lottery()
        return "done"

    # -- H/Ĥ lookups ----------------------------------------------------

    def _h_row(self, which, a):
        rows = self._h_rows[which]
        row = rows.get(a)
        if row is None:
            lo, hi = self.csr.g2_indptr[a], self.csr.g2_indptr[a + 1]
            flags = (self.h_entry, self.hh_entry)[which][lo:hi]
            row = rows[a] = set(self.csr.g2_indices[lo:hi][flags].tolist())
        return row

    def is_h(self, a, b) -> bool:
        return b in self._h_row(0, a)

    def is_hhat(self, a, b) -> bool:
        return b in self._h_row(1, a)

    def _compile_lottery(self):
        """Per middle x, the H-adjacent pairs (u, w) of its neighbors,
        as segments over x's CSR entries (x, u), w in x's inbox order
        (ascending, as x's CSR row)."""
        csr, n = self.csr, self.n
        g_indices, deg = csr.g_indices, csr.degrees
        src = np.repeat(self.all_idx, deg)
        w_pos, _ = _row_positions(csr.g_indptr, src)
        seg = np.repeat(np.arange(src.size, dtype=np.int64), deg[src])
        u, w = g_indices[seg], g_indices[w_pos]
        keep = u != w
        seg, u, w = seg[keep], u[keep], w[keep]
        # H-adjacency of (u, w), looked up among u's G² entries (u and
        # w share the middle, so w is always there).
        keys2 = np.repeat(self.all_idx, csr.d2_degrees) * n + csr.g2_indices
        keep = self.h_entry[np.searchsorted(keys2, u * n + w)]
        seg, u, w = seg[keep], u[keep], w[keep]
        self.pair_u, self.pair_w = u, w
        starts = np.flatnonzero(np.diff(seg, prepend=-1))
        self.pair_starts = starts
        self.pair_lens = np.diff(np.append(starts, seg.size))
        self.pair_segs = seg[starts]

    # -- the Reduce ladder (Sec. 2.2) ------------------------------------

    def run_ladder(self) -> str:
        schedule = [
            (
                self.constants.reduce_phases(phi, tau, self.n),
                self.constants.activation_probability(phi, tau),
                self.constants.query_probability(phi),
            )
            for phi, tau in self.ladder_schedule
        ]
        rounds = REDUCE_PHASE_ROUNDS * sum(rho for rho, _a, _q in schedule)
        return self._reduce_section("reduce-ladder", rounds, schedule)

    def run_final_reduce(self) -> str:
        floor = max(1.0, self.constants.tau_floor(self.n))
        rung = (
            self.constants.reduce_phases(floor, 1.0, self.n),
            self.constants.activation_probability(floor, 1.0),
            self.constants.query_probability(floor),
        )
        return self._reduce_section(
            "final-reduce", None, itertools.repeat(rung)
        )

    def _reduce_section(self, name, rounds, schedule) -> str:
        def phases():
            self.sections.append((name, self.r, rounds))
            for rho, act_p, query_p in schedule:
                for _ in range(rho):
                    status = self.reduce_phase(act_p, query_p)
                    if status != "done":
                        return status
            return "done"

        return self.span("kernel.reduce_phases", phases, section=name)

    def reduce_phase(self, act_p, query_p) -> str:
        """One 17-round Reduce-Phase from round ``self.r``."""
        start = self.r
        status = self.enter(start)
        if status is not None:
            return status
        st, traffic, metered = self.st, self.traffic, self.traffic.metered
        live = np.flatnonzero(st.colors < 0)
        active = live[self.draws.random(live) < act_p]
        tickets = self.draws.randrange(self.all_idx, self.space)
        # round 1: every node broadcasts its ticket
        traffic.add(
            self.n,
            _TICKET_BASE + arrays.int_bits_array(tickets)
            if metered
            else None,
        )
        if start + 1 >= self.max_rounds:
            self.r = self.max_rounds
            return "timeout"
        # round 2: middles forward each neighbor's best H-partner
        best = self._lottery(tickets)
        if start + 2 >= self.max_rounds:
            self.r = self.max_rounds
            return "timeout"
        self.r = start + 2
        if active.size == 0:
            return self.silent(REDUCE_PHASE_ROUNDS - 2)
        self.stats[_SENT, active] += 1
        traffic.add(active.size, _QREQ_BITS)
        cand = _Routing(self, start, active, tickets, best, query_p).run()
        if cand is None:
            self.r = self.max_rounds
            return "timeout"
        self.r = start + 14
        if not (cand >= 0).any():
            return self.silent(3)
        self.r, _rounds, status = _try_rounds(
            self.csr, st, traffic, lambda _phase, live_idx: cand[live_idx],
            start_round=start + 14, end_round=start + 17,
            max_rounds=self.max_rounds, check_stop=self.check_stop,
        )
        self.pending_colored = np.flatnonzero(st.adopt_iter == start + 16)
        return status

    def _lottery(self, tickets):
        """Round 2 of the XOR lottery (Lemma 2.3): per middle x and
        neighbor u, the first minimum in x's inbox order of
        ``t_u ^ t_w`` over H-partners w passing the prefix filter.
        Meters the forwards; returns ``(segments, w, xored)`` of the
        (x, u) entries that forward one."""
        thr = self.threshold
        starts = self.pair_starts
        if starts.size == 0:
            return starts, starts, starts
        xored = tickets[self.pair_u] ^ tickets[self.pair_w]
        key = np.where(xored < thr, xored, thr)
        seg_min = np.minimum.reduceat(key, starts)
        at_min = np.where(
            key == np.repeat(seg_min, self.pair_lens),
            np.arange(key.size),
            key.size,
        )
        first = np.minimum.reduceat(at_min, starts)
        valid = seg_min < thr
        segs = self.pair_segs[valid]
        w = self.pair_w[first[valid]]
        xr = seg_min[valid]
        self.traffic.add(
            segs.size,
            _BEST_BASE + self.label_bits[w] + arrays.int_bits_array(xr)
            if self.traffic.metered
            else None,
        )
        return segs, w, xr

    # -- LearnPalette by flooding and FinishColoring (Sec. 2.6) --------

    def run_learn(self) -> str:
        return self.span("kernel.learn_palette", self._learn)

    def _learn(self) -> str:
        """Every node broadcasts its color, then relays its colored
        neighbors' colors to each other neighbor; no color changes
        meanwhile, so a live node's free set is the palette minus the
        colors of its G² row."""
        cfg = self.learn_config
        start = self.r
        self.sections.append(
            ("learn-palette", start, 1 + cfg.flood_rounds)
        )
        status = self.enter(start)
        if status is not None:
            return status
        colors, traffic = self.st.colors, self.traffic
        color_bits = (
            arrays.int_bits_array(colors) if traffic.metered else None
        )
        traffic.add(
            self.n, _FLOOD_BASE + color_bits if traffic.metered else None
        )
        sent = min(cfg.flood_rounds, self.max_rounds - start - 1)
        colored = colors >= 0
        _relay_traffic(
            self.csr, traffic,
            2 + color_bits if traffic.metered else None,
            _RELAY_HEAD, cfg.per_message, cfg.flood_rounds, None,
            keep=colored, sent=sent,
        )
        if sent < cfg.flood_rounds:
            self.r = self.max_rounds
            return "timeout"
        self.r = start + 1 + cfg.flood_rounds
        self.learn_colors = colors.copy()
        live = np.flatnonzero(~colored)
        self.free = self.free_rows(live, colors, two_hop=True)
        self.free_row = np.full(self.n, -1, dtype=np.int64)
        self.free_row[live] = np.arange(live.size)
        return "done"

    def free_rows(self, nodes, colors, *, two_hop):
        """Per node of ``nodes``, the palette minus ``colors`` on its
        G² row (``two_hop``) or G row, as a bool matrix."""
        csr = self.csr
        if two_hop:
            indptr, indices = csr.g2_indptr, csr.g2_indices
        else:
            indptr, indices = csr.g_indptr, csr.g_indices
        pos, seg = _row_positions(indptr, nodes)
        c = colors[indices[pos]]
        owner = np.repeat(np.arange(nodes.size), np.diff(seg))
        rows = np.ones((nodes.size, self.palette), dtype=bool)
        rows[owner[c >= 0], c[c >= 0]] = False
        return rows

    def run_finish(self) -> str:
        return self.span("kernel.finish", self._finish_phases)

    def _finish_phases(self) -> str:
        """4-round phases until the run ends: a try window where each
        live node tries a random remaining color with probability 1/2,
        then a forwarding round (see :meth:`forward`)."""
        st = self.st
        colors = st.colors
        self.sections.append(("finish", self.r, None))

        def draw(_phase, live_idx):
            cand = np.full(live_idx.size, -1, dtype=np.int64)
            coin = np.flatnonzero(self.draws.random(live_idx) < 0.5)
            nodes = live_idx[coin]
            pool = self.free[self.free_row[nodes]]
            empty = np.flatnonzero(~pool.any(axis=1))
            if empty.size:
                # An exhausted remaining set: any color no neighbor has.
                pool[empty] = self.free_rows(
                    nodes[empty], colors, two_hop=False
                )
            sizes = pool.sum(axis=1)
            ok = np.flatnonzero(sizes)
            k = self.draws.randrange(nodes[ok], sizes[ok])
            # ``sorted(pool)[k]``: the column of the row's (k+1)-th True.
            cand[coin[ok]] = (
                np.cumsum(pool[ok], axis=1) <= k[:, None]
            ).sum(axis=1)
            return cand

        while True:
            r = self.r
            if not self.check_stop and not (colors < 0).any():
                # No monitor and nobody live: every phase left is three
                # silent rounds and a round of empty forwards.
                phases = max(
                    0, -(-(self.max_rounds - r - 3) // FINISH_PHASE_ROUNDS)
                )
                self.traffic.add(phases * self.n, _FORWARD_HEAD)
                self.r = self.max_rounds
                return "timeout"
            self.r, _rounds, status = _try_rounds(
                self.csr, st, self.traffic, draw,
                start_round=r, end_round=r + 3,
                max_rounds=self.max_rounds, check_stop=self.check_stop,
            )
            if status != "done":
                return status
            status = self.enter(self.r)
            if status is not None:
                return status
            self.forward(np.flatnonzero(st.adopt_iter == r + 2))
            self.r += 1

    def forward(self, adopters):
        """The forwarding round: every node broadcasts ``("fw", False,
        *colors its neighbors adopted this phase)``, and each remaining
        set loses the colors its G² row adopted (the direct ones at
        once, the forwarded ones on receipt — both before the next
        draw)."""
        csr, colors, traffic = self.csr, self.st.colors, self.traffic
        if traffic.metered:
            pos, seg = _row_positions(csr.g_indptr, adopters)
            item = 2 + arrays.int_bits_array(colors[adopters])
            carried = np.bincount(
                csr.g_indices[pos], weights=np.repeat(item, np.diff(seg)),
                minlength=self.n,
            )
            traffic.add(self.n, _FORWARD_HEAD + carried.astype(np.int64))
        else:
            traffic.add(self.n)
        pos, seg = _row_positions(csr.g2_indptr, adopters)
        rows = self.free_row[csr.g2_indices[pos]]
        c = np.repeat(colors[adopters], np.diff(seg))
        hit = rows >= 0
        self.free[rows[hit], c[hit]] = False

    # -- per-node views for the routing rounds -------------------------

    def nbrs(self, i):
        if self._nbrs is None:
            g_indptr, g_indices = self.csr.g_indptr, self.csr.g_indices
            self._nbrs = [
                g_indices[g_indptr[j]:g_indptr[j + 1]].tolist()
                for j in range(self.n)
            ]
            self._nbr_sets = [set(row) for row in self._nbrs]
        return self._nbrs[i]

    def nbr_set(self, i):
        self.nbrs(i)
        return self._nbr_sets[i]


class _Routing:
    """Rounds 4–15 of one Reduce-Phase (query routing, checks,
    forwards, proposals and the proposal pick), replayed per node.

    Only nodes a query reaches do anything here, so this runs in
    Python on dense indices.  Each round's outboxes are delivered in
    ascending sender order, as the generator loop delivers them, and
    metered payload by payload (multiplexed collisions included; a
    broadcast is one message).
    Every draw is made on the node's :class:`CounterRandom` at the
    kernel's counter, so words are consumed exactly as
    ``reduce_phase`` consumes them.
    """

    def __init__(self, run, start, active, tickets, best, query_p):
        self.kernel = run
        self.start = start
        self.active = active.tolist()
        self.tickets = tickets
        self.best = best
        self.query_p = query_p
        self.colors = run.st.colors
        self.rngs = {}
        self._forwards = None

    def rng(self, i):
        gen = self.rngs.get(i)
        if gen is None:
            draws = self.kernel.draws
            gen = self.rngs[i] = CounterRandom(
                int(draws.node_keys[i]), int(draws.counters[i])
            )
        return gen

    def color(self, i):
        return int(self.colors[i])

    def executes(self, offset) -> bool:
        return self.start + offset < self.kernel.max_rounds

    def deliver(self, out=None, bcast=None):
        """Meter and deliver one round: ``out`` is ``{sender:
        {receiver: [message, ...]}}`` (one payload per edge,
        multiplexed when it holds several), ``bcast`` is ``{sender:
        message}``.  Returns ``{receiver: [(sender, message), ...]}``
        in inbox order."""
        out = out or {}
        bcast = bcast or {}
        run = self.kernel
        payloads = []
        inbox = {}
        for sender in sorted(set(out) | set(bcast)):
            message = bcast.get(sender)
            if message is not None:
                payloads.append(message)
                for receiver in run.nbrs(sender):
                    inbox.setdefault(receiver, []).append((sender, message))
                continue
            for receiver, messages in out[sender].items():
                payloads.append(
                    messages[0]
                    if len(messages) == 1
                    else ("*",) + tuple(messages)
                )
                box = inbox.setdefault(receiver, [])
                box.extend((sender, message) for message in messages)
        run.traffic.add(
            len(payloads),
            np.array([self.size(p) for p in payloads], dtype=np.int64)
            if run.traffic.metered and payloads
            else None,
        )
        return inbox

    def size(self, payload) -> int:
        if payload[0] == "*":
            return bit_size(
                ("*",) + tuple(self.labeled(m) for m in payload[1:])
            )
        return bit_size(self.labeled(payload))

    def labeled(self, message):
        fields = _NODE_FIELDS.get(message[0])
        if fields is None:
            return message
        order = self.kernel.order
        return tuple(
            order[value] if k in fields else value
            for k, value in enumerate(message)
        )

    @staticmethod
    def carried(inbox, node, tag):
        """The first field of every ``tag`` message ``node`` got."""
        return [m[1] for _s, m in inbox.get(node, ()) if m[0] == tag]

    @staticmethod
    def send(out, sender, receiver, message):
        out.setdefault(sender, {}).setdefault(receiver, []).append(message)

    def next_ru(self, u):
        """The lottery's pick ``(w, relay)`` at requester u, or None:
        direct H-neighbors first, then the middles' forwards, each in
        inbox order; a strictly smaller XOR replaces the best."""
        run = self.kernel
        t = self.tickets
        thr = run.threshold
        best = None
        for w in run.nbrs(u):
            if not run.is_h(u, w):
                continue
            xored = int(t[u] ^ t[w])
            if xored < thr and (best is None or xored < best[0]):
                best = (xored, w, w)
        forwards = self.forwards()
        g_indptr = run.csr.g_indptr
        for x in run.nbrs(u):
            entry = int(g_indptr[x]) + bisect.bisect_left(run.nbrs(x), u)
            fwd = forwards.get(entry)
            if fwd is None or fwd[0] == u:
                continue
            w, xored = fwd
            if best is None or xored < best[0]:
                best = (xored, w, x)
        return None if best is None else best[1:]

    def forwards(self):
        """``{(x, u) entry: (w, xored)}`` of round 2's forwards."""
        if self._forwards is None:
            segs, w, xr = self.best
            self._forwards = dict(
                zip(segs.tolist(), zip(w.tolist(), xr.tolist()))
            )
        return self._forwards

    def run(self):
        """Returns the round-15 candidates (-1 = none), or None when
        ``max_rounds`` cuts the phase before round 15."""
        run = self.kernel
        stats = run.stats
        try:
            return self._rounds(run, stats)
        finally:
            counters = run.draws.counters
            for i, gen in self.rngs.items():
                counters[i] = gen.counter

    def _rounds(self, run, stats):
        send = self.send
        # round 3's query requests arrive; round 4: each middle flips a
        # coin per 2-path and forwards <= 1 query per edge
        if not self.executes(3):
            return None
        requesters = {}
        for v in self.active:
            for x in run.nbrs(v):
                requesters.setdefault(x, []).append(v)
        out = {}
        for x, reqs in requesters.items():
            gen = self.rng(x)
            for u in run.nbrs(x):
                fired = [
                    v
                    for v in reqs
                    if v != u
                    and run.is_hhat(v, u)
                    and gen.random() < self.query_p
                ]
                if fired:
                    send(out, x, u, (_TAG_QUERY, gen.choice(fired)))
        inbox = self.deliver(out)

        # round 5: U selects one query, broadcasts the path probe
        if not self.executes(4):
            return None
        selected = {}
        bcast = {}
        for u, box in inbox.items():
            arrivals = [(m[1], s) for s, m in box if m[0] == _TAG_QUERY]
            stats[_RECEIVED, u] += len(arrivals)
            if arrivals:
                selected[u] = self.rng(u).choice(arrivals)
                bcast[u] = (_TAG_PATH_PROBE, selected[u][0])
        inbox = self.deliver(bcast=bcast)

        # round 6: Y answers "is v my neighbor?"
        if not self.executes(5):
            return None
        inbox = self.deliver(self._answer(inbox, _TAG_PATH_PROBE,
                                          _TAG_PATH_REPLY))

        # round 7: U checks a random color and forwards the query
        if not self.executes(6):
            return None
        query_ok = [
            u
            for u in selected
            if sum(self.carried(inbox, u, _TAG_PATH_REPLY)) == 1
        ]
        out = {}
        check = {}
        for u in query_ok:
            stats[_ACCEPTED, u] += 1
            own = self.color(u)
            pick = self.rng(u).randrange(
                run.palette - (1 if 0 <= own < run.palette else 0)
            )
            check[u] = pick + (1 if 0 <= own <= pick else 0)
            for y in run.nbrs(u):
                send(out, u, y, (_TAG_CHECK, check[u]))
            ru = self.next_ru(u)
            if ru is not None:
                w, relay = ru
                send(out, u, relay, (_TAG_FORWARD, selected[u][0], w))
        inbox = self.deliver(out)

        # round 8: Z answers checks; X relays <= 1 forward per W
        if not self.executes(7):
            return None
        out = {}
        seconds = {}
        for z, box in inbox.items():
            checks = []
            relay_requests = {}
            for s, m in box:
                if m[0] == _TAG_CHECK:
                    checks.append((s, m[1]))
                elif m[0] == _TAG_FORWARD:
                    v, w = m[1], m[2]
                    if w == z:
                        seconds.setdefault(z, []).append((v, s, None))
                    else:
                        relay_requests.setdefault(w, []).append((v, s))
            own = self.color(z)
            for asker, c in checks:
                conflict = (own == c and run.is_h(asker, z)) or any(
                    self.color(t) == c and run.is_h(asker, t)
                    for t in run.nbrs(z)
                )
                send(out, z, asker, (_TAG_CHECK_REPLY, conflict))
            for w, waiting in relay_requests.items():
                v, origin = waiting[self.rng(z).randrange(len(waiting))]
                send(out, z, w, (_TAG_FORWARD2, v, origin))
        inbox = self.deliver(out)

        # round 9: W selects one second query, probes d2-membership
        if not self.executes(8):
            return None
        conflicted = {
            u: any(self.carried(inbox, u, _TAG_CHECK_REPLY))
            for u in query_ok
        }
        for w, box in inbox.items():
            for s, m in box:
                if m[0] == _TAG_FORWARD2:
                    seconds.setdefault(w, []).append((m[1], m[2], s))
        w_selected = {}
        bcast = {}
        for w, queries in seconds.items():
            w_selected[w] = self.rng(w).choice(queries)
            bcast[w] = (_TAG_MEMBER_PROBE, w_selected[w][0])
        inbox = self.deliver(bcast=bcast)

        # round 10: Y answers
        if not self.executes(9):
            return None
        inbox = self.deliver(self._answer(inbox, _TAG_MEMBER_PROBE,
                                          _TAG_MEMBER_REPLY))

        # round 11: a colored W returns its color if v is no d2-neighbor
        if not self.executes(10):
            return None
        out = {}
        direct = {}
        for w, (v, origin, relay) in w_selected.items():
            own = self.color(w)
            if own < 0:
                continue
            common = any(self.carried(inbox, w, _TAG_MEMBER_REPLY))
            if common or v in run.nbr_set(w) or v == w:
                continue
            if relay is None:
                direct[w] = (origin, v, own)
            else:
                send(out, w, relay, (_TAG_COLOR_BACK, v, origin, own))
        inbox = self.deliver(out)

        # round 12: X relays the color back to U
        if not self.executes(11):
            return None
        out = {}
        for x, box in inbox.items():
            for _s, m in box:
                if m[0] == _TAG_COLOR_BACK:
                    send(out, x, m[2], (_TAG_COLOR_BACK2, m[1], m[3]))
        for w, (origin, v, own) in direct.items():
            send(out, w, origin, (_TAG_COLOR_BACK2, v, own))
        inbox = self.deliver(out)

        # round 13: U sends its proposals to M
        if not self.executes(12):
            return None
        out = {}
        for u in query_ok:
            v, via = selected[u]
            proposals = [] if conflicted[u] else [check[u]]
            proposals += [
                m[2]
                for _s, m in inbox.get(u, ())
                if m[0] == _TAG_COLOR_BACK2 and m[1] == v
            ]
            if proposals:
                stats[_PROPOSED, u] += len(proposals)
                send(out, u, via, (_TAG_PROPOSE, v) + tuple(proposals))
        inbox = self.deliver(out)

        # round 14: M relays proposals to V (packed, capped)
        if not self.executes(13):
            return None
        out = {}
        for x, box in inbox.items():
            to_relay = {}
            for _s, m in box:
                if m[0] == _TAG_PROPOSE:
                    to_relay.setdefault(m[1], []).extend(m[2:])
            for v, colors in to_relay.items():
                if v not in run.nbr_set(x):
                    continue
                if len(colors) > _PROPOSAL_CAP:
                    colors = self.rng(x).sample(colors, _PROPOSAL_CAP)
                send(out, x, v, (_TAG_PROPOSALS,) + tuple(colors))
        inbox = self.deliver(out)

        # round 15: an active live V picks one proposal to try
        if not self.executes(14):
            return None
        cand = np.full(run.n, -1, dtype=np.int64)
        active = set(self.active)
        for v, box in inbox.items():
            proposals = [
                c for _s, m in box if m[0] == _TAG_PROPOSALS for c in m[1:]
            ]
            stats[_PROPOSED_TO, v] += len(proposals)
            if proposals and v in active and self.color(v) < 0:
                cand[v] = self.rng(v).choice(proposals)
        return cand

    def _answer(self, inbox, probe_tag, reply_tag):
        """Every probed node answers each asker "is v my neighbor?"."""
        run = self.kernel
        out = {}
        for y, box in inbox.items():
            for s, m in box:
                if m[0] == probe_tag:
                    found = 1 if m[1] in run.nbr_set(y) else 0
                    self.send(out, y, s, (reply_tag, found))
        return out


def _worst_payload_bits(run):
    """The largest payload a Reduce-Phase, the similarity exchange or
    (when the kernel runs them) LearnPalette and finish can send (the
    try phases are checked by :func:`_try_phases_fit`)."""
    label = int(run.labels[int(np.argmax(run.label_bits))])
    color = run.palette - 1
    xored = run.space - 1
    pm = run.sim_config.per_message
    payloads = [
        (_TAG_TICKET, xored),
        (_TAG_BEST, label, xored),
        (_TAG_QUERY, label),
        (_TAG_PATH_REPLY, 1),
        ("*", (_TAG_CHECK, color), (_TAG_FORWARD, label, label)),
        ("*", (_TAG_CHECK_REPLY, True), (_TAG_FORWARD2, label, label)),
        (_TAG_COLOR_BACK, label, label, color),
        (_TAG_COLOR_BACK2, label, color),
        (_TAG_PROPOSE, label, color, color),
        (_TAG_PROPOSALS,) + (color,) * _PROPOSAL_CAP,
        (_TAG_IN_S, True),
        (_TAG_LIST,) + (label,) * pm,
    ]
    if run.tail:
        relayed = min(run.learn_config.per_message, max(0, run.max_deg - 1))
        payloads += [
            (_TAG_FLOOD_COLOR, -1),
            (_TAG_FLOOD_COLOR, color),
            (_TAG_FLOOD_RELAY,) + (color,) * relayed,
            (_TAG_FINISH_FORWARD, False) + (color,) * run.max_deg,
        ]
    return max(bit_size(p) for p in payloads)


@register_kernel(
    RandomizedD2Program, specs=("improved-d2color", "basic-d2color"),
    stops=(all_colored,),
)
def _randomized_d2_kernel(network, plan, *, max_rounds, stop_when):
    """:class:`RandomizedD2Program` on arrays (see :class:`_RandomizedRun`).

    ``improved`` runs trials → similarity → ladder → LearnPalette →
    finish and ``basic`` similarity → trials → ladder → final-reduce,
    with no generator at all.  Only on the LearnPalette handler path
    (``small_delta`` False) or with forward batches narrower than Δ
    does ``improved`` hand the generators LearnPalette and finish
    after the ladder: the programs are materialized with the kernel's
    end-state and ``_kernel_prefix = 3`` (the sections done), and the
    :class:`GeneratorLoop` resumes at the next round with the kernel's
    metering.  A run the stop monitor or ``max_rounds`` ends inside
    the kernel leaves the state of exactly the resumes that executed.

    Declines, before anything is written: non-uniform or invalid
    inputs, labels outside int64, lottery tickets wider than 62 bits
    (n > 2¹⁵), a metered payload that could exceed the budget, and
    similarity lists the pipelining bound would drop.
    """
    csr = plan.csr
    n = csr.n
    order = csr.order
    read = plan.read_inputs()
    if read is None:
        raise _Declined("inputs")
    shared = read[0]
    (palette, variant, trials, sim_config, constants, filter_bits,
     learn_config) = (
        shared.get(key)
        for key in (
            "palette", "variant", "initial_trials", "sim_config",
            "constants", "lottery_filter_bits", "learn_config",
        )
    )
    forward_per_round = shared.get("forward_per_round", 1)
    try:
        ladder = tuple(map(tuple, shared.get("ladder")))
    except TypeError:
        raise _Declined("inputs") from None
    if (
        variant not in ("improved", "basic")
        or not isinstance(sim_config, SimilarityConfig)
        or not isinstance(constants, Constants)
        or not isinstance(palette, int)
        or not 0 < palette < _INT64_SAFE
        or not isinstance(trials, int)
        or trials <= 0
        or not isinstance(filter_bits, int)
        or not isinstance(forward_per_round, int)
        or (
            variant == "improved"
            and not (
                isinstance(learn_config, LearnPaletteConfig)
                and learn_config.palette == palette
            )
        )
    ):
        raise _Declined("inputs")
    if not (_is_int64_safe(order[0]) and _is_int64_safe(order[-1])):
        raise _Declined("labels")
    if sampling.ticket_bits(n) > 62:
        raise _Declined("ticket-width")
    run = _RandomizedRun(
        network, plan, max_rounds=max_rounds,
        check_stop=stop_when is not None, palette=palette,
        variant=variant, trials=trials, sim_config=sim_config,
        constants=constants, ladder=ladder, filter_bits=filter_bits,
        learn_config=learn_config, forward_per_round=forward_per_round,
    )
    if run.traffic.metered and (
        not _try_phases_fit(network, palette - 1)
        or _worst_payload_bits(run) > network._budget
    ):
        raise _Declined("budget")
    status = run.run()
    if run.traffic.metered and run.traffic.max_bits > network._budget:
        raise _Declined("budget")

    handoff = variant == "improved" and status == "done"
    # Resumes executed: on a handoff, the generators' first resume
    # (round run.r) starts with the kernel's share of it — the last
    # adopts recorded, the ladder logged — which the end state books.
    resumes = run.r + 1 if handoff else run.r
    plan.counters[:] = run.draws.counters
    state = _randomized_state(run, resumes, handoff)
    if not handoff:
        return _End(state, run.r, run.traffic, status)

    # --- hand LearnPalette and finish to the generators (handler path,
    # narrow forward batches); ``execute`` raises on a timeout --------
    network._end_state = state
    loop = GeneratorLoop(network)  # materializes; applies the end state
    loop.round_index = loop.rounds = run.r
    loop.total_messages = run.traffic.messages
    loop.total_bits = run.traffic.bits
    loop.max_message_bits = run.traffic.max_bits
    network._started = True
    rec = obs_trace.recorder()
    t0 = rec.clock() if rec is not None else 0.0
    try:
        loop.run(
            max_rounds=max_rounds,
            stop_when=stop_when,
            raise_on_timeout=False,
        )
    finally:
        if rec is not None:
            rec.complete(
                "exec.run",
                t0,
                {
                    "backend": "vectorized",
                    "start_round": run.r,
                    "rounds": loop.rounds - run.r,
                    "messages": loop.total_messages - run.traffic.messages,
                    "bits": loop.total_bits - run.traffic.bits,
                    "halted": not loop.running,
                },
            )
    return loop.result()


def _phase_state(run, resumes):
    """``(phase_log, phase)`` after ``resumes`` resumes: the sections
    completed and the one running (the first one before any resume)."""
    phase_log = [
        (name, rounds)
        for name, start, rounds in run.sections
        if rounds is not None and start + rounds < resumes
    ]
    entered = [
        name for name, start, _rounds in run.sections if start < resumes
    ]
    return phase_log, (entered or [run.sections[0][0]])[-1]


def _randomized_state(run, resumes, handoff):
    """The program state after ``resumes`` resumes of the kernel's
    sections: colors, neighbor tables, phase log and phase, Reduce
    counters, similarity state, LearnPalette's free sets and drop
    count, finish's phase count (RNG counters come from the plan)."""
    csr, st = run.csr, run.st
    phase_log, phase = _phase_state(run, resumes)
    done = {name for name, _rounds in phase_log}
    starts = {
        name: start for name, start, _rounds in run.sections
        if start < resumes
    }

    def reduce_stats(i):
        counters = ReduceStats()
        for k, name in enumerate(_STATS):
            setattr(counters, name, int(run.stats[k, i]))
        return counters

    state = {
        "color": st.colors,
        "nbr_colors": _nbr_colors(csr, st.colors, st.adopt_iter, resumes - 1),
        "phase_log": phase_log,
        "phase": phase,
        "reduce_stats": reduce_stats,
    }
    if "similarity" in done:
        state["similarity"] = _lazy_rows(lambda: _similarity_states(run))
    if "learn-palette" in starts:
        state["learn_drops"] = 0
        state["free_colors"] = (
            _lazy_rows(lambda: _free_sets(run))
            if "learn-palette" in done
            else None
        )
    if "finish" in starts:
        state["finish_phases"] = -(
            -(resumes - starts["finish"]) // FINISH_PHASE_ROUNDS
        )
    if handoff:
        state["_kernel_prefix"] = len(run.sections)
    return state


def _lazy_rows(build):
    """A per-node end-state callable over the list ``build()`` makes
    on first use (only a materialization or a table read needs it)."""
    rows = functools.lru_cache(maxsize=None)(build)
    return lambda i: rows()[i]


def _free_sets(run):
    """LearnPalette's result per dense index: the palette minus the
    colors of its G² row when learning started (None if colored)."""
    live = np.flatnonzero(run.learn_colors < 0)
    rows = run.free_rows(live, run.learn_colors, two_hop=True)
    sets = [None] * run.n
    for i, row in zip(live.tolist(), rows):
        sets[i] = set(np.flatnonzero(row).tolist())
    return sets


def _similarity_states(run):
    """Every node's :class:`SimilarityState`: its set ``S_v`` and its
    neighbors' sets, as frozensets of labels."""
    items, indptr = run.own_rows
    order, csr = run.order, run.csr
    labels = np.asarray(order, dtype=object)[items]
    sets = [
        frozenset(labels[indptr[i]:indptr[i + 1]].tolist())
        for i in range(run.n)
    ]
    rows = np.split(csr.g_indices, csr.g_indptr[1:-1])
    return [
        SimilarityState(
            order[i], sets[i], {order[u]: sets[u] for u in row.tolist()},
            run.sim_config,
        )
        for i, row in enumerate(rows)
    ]


# ----------------------------------------------------------------------
# Luby distance-k MIS: k rounds of max-flooding + k domination rounds


@register_kernel(LubyDistanceKProgram, stops=(_all_decided,))
def _luby_kernel(network, plan, *, max_rounds, stop_when):
    """Vectorized :class:`LubyDistanceKProgram`.

    Per 2k-round phase: live nodes draw ``rng.randrange(n³)·n + id``
    (same streams, same order as the generators), ranks max-flood for
    k broadcast rounds, the strict maximum within distance k joins,
    and ``(D, hops)`` countdowns dominate the k-ball.  Messages sent
    in round t are applied at the top of round t+1, exactly when the
    generators would resume on that inbox — including the last
    domination round of a phase, which lands at the next phase's first
    resume *before* new ranks are drawn.
    """
    csr = plan.csr
    n = csr.n
    order = csr.order
    read = plan.read_inputs()
    if read is None:
        raise _Declined("inputs")
    k = read[0].get("k")
    if not isinstance(k, int) or k < 1:
        raise _Declined("inputs")
    max_label = max(abs(order[0]), abs(order[-1]))
    if (n**3 - 1) * n + max_label >= _INT64_SAFE:
        raise _Declined("int64")  # rank arithmetic could leave it

    traffic = _Traffic(network)
    metered = traffic.metered
    rank_base = bit_size((_TAG_RANK, 0)) - 1
    dom_base = rank_base  # both tags are 1-char strings
    if metered:
        worst = rank_base + 1 + int_bits((n**3 - 1) * n + max_label)
        if max(worst, dom_base + int_bits(k)) > network._budget:
            raise _Declined("budget")

    g_indptr, g_indices = csr.g_indptr, csr.g_indices
    labels = np.array(order, dtype=np.int64)

    LIVE, IN_MIS, DOM = 0, 1, 2
    state = np.zeros(n, dtype=np.int8)
    own = np.full(n, -1, dtype=np.int64)
    best = np.full(n, -1, dtype=np.int64)
    hops = np.zeros(n, dtype=np.int64)
    joined = np.zeros(n, dtype=bool)
    NEG = np.int64(-_INT64_SAFE)

    phases = 0
    rounds = 0
    check_stop = stop_when is not None
    period = 2 * k
    inflight = None  # ("rank"|"dom", values) sent one round ago
    idle_bits = rank_base + 2  # bit_size((_TAG_RANK, -1))

    r = 0
    while True:
        if check_stop and not (state == LIVE).any():
            status = "stopped"
            break
        if r >= max_rounds:
            status = "timeout"
            break
        if inflight is not None:
            tag, vals = inflight
            inflight = None
            if tag == "rank":
                best = np.maximum(
                    best,
                    arrays.row_max(vals[g_indices], g_indptr, NEG),
                )
            else:
                relay = np.where(vals > 0, vals, NEG)
                nbr_max = arrays.row_max(
                    relay[g_indices], g_indptr, NEG
                )
                has_in = nbr_max > NEG
                state[has_in & (state == LIVE)] = DOM
                hops = np.where(
                    has_in,
                    np.maximum(hops, nbr_max - 1),
                    np.where(joined, hops, 0),
                )
        pos = r % period
        if pos == 0:
            live_idx = np.flatnonzero(state == LIVE)
            if live_idx.size == 0 and not check_stop:
                # Decided network, no stop monitor: each remaining
                # phase is k rounds of n ``(K, -1)`` broadcasts then k
                # silent rounds, forever.
                remaining = max_rounds - r
                full, part = divmod(remaining, period)
                phases += full + (1 if part else 0)
                traffic.add((full * k + min(part, k)) * n, idle_bits)
                rounds += remaining
                r = max_rounds
                status = "timeout"
                break
            phases += 1
            own.fill(-1)
            own[live_idx] = (
                plan.randrange(live_idx, n**3) * n + labels[live_idx]
            )
            best = own.copy()
        if pos < k:
            # flood round: every node broadcasts (K, best)
            traffic.add(
                n,
                rank_base + arrays.int_bits_array(best) if metered else None,
            )
            inflight = ("rank", best.copy())
        else:
            if pos == k:
                joined = (state == LIVE) & (best == own)
                state[joined] = IN_MIS
                hops = np.where(joined, k, 0).astype(np.int64)
            senders = hops > 0
            traffic.add(
                senders.sum(),
                dom_base + arrays.int_bits_array(hops[senders])
                if metered
                else None,
            )
            inflight = ("dom", np.where(senders, hops, 0))
        rounds += 1
        r += 1

    names = (_STATE_LIVE, _STATE_IN_MIS, _STATE_DOMINATED)
    return _End(
        {
            "state": [names[s] for s in state.tolist()].__getitem__,
            "phases": phases,
        },
        rounds, traffic, status,
    )
