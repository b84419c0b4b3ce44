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
Python node object at all: end-state is published through
``Network.node_colors()``/``node_table()`` and written back to
programs only if somebody later materializes them.  Hybrid kernels
(the randomized d2-color pipeline) execute the array-friendly
try-phase window as batched numpy work and drive the surrounding
protocol sections through the resumable
:class:`~repro.exec.reference.GeneratorLoop`.

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
- :class:`RandomizedD2Program` — the ``c0·log n`` random-trials
  section of ``improved-d2color``/``basic-d2color``; similarity,
  reduce, learn-palette and finish still run as generators.  Their
  Step-0 fallback is the ``deterministic-d2`` chain, so on low-Δ
  graphs they run with zero generator programs.

Kernels read their input from the plan only.  A network whose Python
nodes already exist may hold program state no plan input describes,
so it goes straight to the generator loop (fallback cause
``materialized``).  Everything else — and every run a kernel cannot
replay exactly (custom ``stop_when`` monitors, ``avoid_known``
candidate selection, self-loop graphs, metered payloads that could
exceed the budget, values that could leave int64) — falls back to
``reference`` automatically, so ``backend="vectorized"`` is always
safe to request.  The guarantees are enforced by
``tests/test_backend_equivalence.py`` and
``tests/test_exec_vectorized.py``.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Callable, Dict, Optional, Type

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
from repro.core.d2color import RandomizedD2Program
from repro.core.trying import TAG_ADOPT, TAG_TRY, TAG_VERDICT, all_colored
from repro.det.color_reduction import ColorReductionProgram
from repro.det.linial import LinialProgram
from repro.det.locally_iterative import LocallyIterativeProgram
from repro.det.part_d2coloring import PartLocallyIterativeD2
from repro.exec import arrays
from repro.exec.base import ExecutionBackend
from repro.exec.reference import PAUSED, GeneratorLoop
from repro.obs import trace as obs_trace
from repro.util.primes import is_prime

#: Values any node ever sends stay strictly inside int64 under this
#: bound, and every array comparison is exact.
_INT64_SAFE = 2**62

#: Program class -> kernel.  A kernel returns a RunResult, or None to
#: decline the run (the generator loop then executes it).
KERNELS: Dict[Type, Callable] = {}

#: Registry spec name -> the program class its hot network runs; the
#: spec-name half of :func:`kernel_coverage`.  Coverage through this
#: table may be partial per run: ``improved-d2color``/``basic-d2color``
#: kernelize their random-trials section (the rest stays generator
#: work), and ``deterministic-d2``/``eps-d2-coloring`` are listed
#: under their locally-iterative stage although their Linial stage has
#: a kernel too (so does ``deterministic-d2``'s color reduction, but
#: not ``eps-d2-coloring``'s per-part one).  The Step-0 fallback of the
#: randomized specs is the ``deterministic-d2`` chain: on low-Δ graphs
#: they run no :class:`RandomizedD2Program` and no generator at all.
SPEC_PROGRAMS: Dict[str, Type] = {}


def register_kernel(program_cls: Type, *, specs: tuple = ()):
    def deco(fn):
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
            result = kernel(
                network,
                max_rounds=max_rounds,
                stop_when=stop_when,
                raise_on_timeout=raise_on_timeout,
            )
            if result is not None:
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
            cause = "kernel-declined"
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


def _publish(network, writeback, **tables):
    """Publish a kernel run's end-state without building a node:
    ``writeback(programs)`` runs if the network materializes later,
    and ``tables`` (``{attr: () -> {node: value}}``) serve
    ``node_colors()``/``node_table()`` until then."""
    network._deferred_state.append(writeback)
    network._vector_tables.update(tables)


def _finish(network, rounds, traffic, executed, stopped_early, timed_out,
            max_rounds, raise_on_timeout, halted=False):
    """Shared tail: mirror reference's started flag, timeout raise,
    and result assembly."""
    from repro.congest.network import RunResult

    if executed > 0:
        network._started = True
    if timed_out and raise_on_timeout:
        raise NonterminationError(
            max_rounds, set(network.graph.nodes)
        )
    metrics = RunMetrics(
        rounds=rounds,
        total_messages=traffic.messages,
        total_bits=traffic.bits,
        max_message_bits=traffic.max_bits,
        budget_bits=network._budget,
        violations=0,
        worst_violation_bits=0,
    )
    return RunResult(
        outputs=dict(network.outputs),
        metrics=metrics,
        halted=halted,
        stopped_early=stopped_early,
        programs=network.result_programs(),
    )


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


class _TryState:
    """Mutable array state of a try-phase window."""

    __slots__ = ("colors", "announced", "adopt_iter", "cand")

    def __init__(self, n, colors=None):
        self.colors = (
            colors
            if colors is not None
            else np.full(n, -1, dtype=np.int64)
        )
        self.announced = np.zeros(n, dtype=bool)
        self.adopt_iter = np.full(n, -1, dtype=np.int64)
        self.cand = np.full(n, -1, dtype=np.int64)


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


def _run_try_phases(
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
    nodes (aligned with ``live_idx``), consuming exactly the RNG draws
    the generators would.  Returns ``(r, rounds, status)`` with
    ``status`` in ``{"stopped", "timeout", "done"}`` — checked in the
    same order as the round loop (stop monitor, then ``max_rounds``,
    then the window bound).
    """
    rec = obs_trace.recorder()
    trace_t0 = rec.clock() if rec is not None else 0.0
    messages0, bits0 = traffic.messages, traffic.bits
    colors = st.colors
    announced = st.announced
    adopt_iter = st.adopt_iter
    cand = st.cand
    g_indptr, g_indices = csr.g_indptr, csr.g_indices
    g2_indptr, g2_indices = csr.g2_indptr, csr.g2_indices
    deg = csr.degrees
    d2_deg = csr.d2_degrees
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
            send_deg = deg[live_idx]
            pending_verdicts = int(send_deg.sum())
            traffic.add(
                pending_verdicts,
                _TRY_BASE + arrays.int_bits_array(cand[live_idx])
                if metered
                else None,
                send_deg,
            )
            # The phase's adoption outcome, decided on the state every
            # verdict server will hold in round B (colors/announced
            # only change at k == 2, never between here and there).
            own_g = np.repeat(cand, deg)
            conflict_g = arrays.row_any(
                (own_g >= 0) & (colors[g_indices] == own_g),
                g_indptr,
            )
            own_2 = np.repeat(cand, d2_deg)
            known_2 = announced[g2_indices] & (
                colors[g2_indices] == own_2
            )
            trying_2 = cand[g2_indices] == own_2
            conflict_2 = arrays.row_any(
                (own_2 >= 0) & (known_2 | trying_2), g2_indptr
            )
            adopt_idx = np.flatnonzero(
                (cand >= 0) & ~(conflict_g | conflict_2)
            )
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
            colors[adopt_idx] = cand[adopt_idx]
            announced[adopt_idx] = True
            adopt_iter[adopt_idx] = r
        rounds += 1
        r += 1
    if rec is not None:
        rec.complete(
            "kernel.try_phases",
            trace_t0,
            {
                "start_round": start_round,
                "end_round": r,
                "rounds": rounds,
                "status": break_status,
                "messages": traffic.messages - messages0,
                "bits": traffic.bits - bits0,
            },
        )
    return r, rounds, break_status


def _nbr_colors_writeback(csr, order, colors, adopt_iter, resumes):
    """Closure building each node's 1-hop color table: an adopt sent
    at iteration t was recorded by neighbors at iteration t + 1, which
    executed iff t + 1 <= ``resumes``."""
    g_indptr, g_indices = csr.g_indptr, csr.g_indices
    recorded = (adopt_iter >= 0) & (adopt_iter + 1 <= resumes)

    def tables(i):
        row = g_indices[g_indptr[i]:g_indptr[i + 1]]
        return {
            order[j]: int(colors[j])
            for j in row[recorded[row]].tolist()
        }

    return tables


def _color_table(order, colors):
    def build():
        return {
            node: (int(c) if c >= 0 else None)
            for node, c in zip(order, colors.tolist())
        }

    return build


def _int_table(order, values):
    def build():
        return dict(zip(order, (int(v) for v in values.tolist())))

    return build


# ----------------------------------------------------------------------
# trial / trial-slack: the whole run is uniform random try phases


@register_kernel(TrialProgram, specs=("trial", "trial-slack"))
def _trial_kernel(network, *, max_rounds, stop_when, raise_on_timeout):
    """Vectorized :class:`TrialProgram` — runs off the
    :class:`NetworkPlan`; builds no Python node."""
    if stop_when is not None and stop_when is not all_colored:
        return None
    plan = network.plan()
    csr = plan.csr
    if csr.has_selfloops:
        return None
    n = csr.n
    order = csr.order

    palettes = np.empty(n, dtype=np.int64)
    colors = np.full(n, -1, dtype=np.int64)
    for i, node in enumerate(order):
        data = plan.input_for(node)
        if data.get("avoid_known", False):
            return None
        palette = data.get("palette")
        if (
            not isinstance(palette, int)
            or palette <= 0
            or palette >= _INT64_SAFE
        ):
            return None  # incl. missing key: constructor decides
        palettes[i] = palette
        color = data.get("color")
        if color is not None:
            if (
                not isinstance(color, int)
                or color < 0
                or color >= _INT64_SAFE
            ):
                return None  # negative breaks the -1 sentinel
            colors[i] = color
    if not _try_phases_fit(network, int(palettes.max()) - 1):
        return None  # could violate: replay exactly on the loop
    phases_tried = np.zeros(n, dtype=np.int64)

    def draw(_phase, live_idx):
        phases_tried[live_idx] += 1
        return plan.randrange(live_idx, palettes[live_idx])

    traffic = _Traffic(network)
    st = _TryState(n, colors)
    r, rounds, status = _run_try_phases(
        csr, st, traffic, draw,
        start_round=0, end_round=None, max_rounds=max_rounds,
        check_stop=stop_when is not None, idle_forever=True,
    )

    nbr_tables = _nbr_colors_writeback(
        csr, order, colors, st.adopt_iter, r - 1
    )

    def writeback(programs):
        for i, node in enumerate(order):
            program = programs[node]
            c = int(colors[i])
            program.color = c if c >= 0 else None
            program.phases_tried = int(phases_tried[i])
            program.nbr_colors = nbr_tables(i)

    _publish(
        network, writeback,
        color=_color_table(order, colors),
        phases_tried=_int_table(order, phases_tried),
    )
    return _finish(
        network, rounds, traffic, r, status == "stopped",
        status == "timeout", max_rounds, raise_on_timeout,
    )


# ----------------------------------------------------------------------
# locally-iterative d2-coloring (deterministic-d2 / eps-d2-coloring):
# q bounded phases trying (offset +) a + b·phase mod q, then halt


def _poly_phase_kernel(
    network, *, max_rounds, stop_when, raise_on_timeout, with_parts,
):
    """Shared kernel for :class:`LocallyIterativeProgram`
    (``with_parts=False``) and :class:`PartLocallyIterativeD2`
    (``with_parts=True``): draw-free try phases with candidates
    ``offset + (a + b·phase) mod q``, halting after q phases."""
    if stop_when is not None and stop_when is not all_colored:
        return None
    plan = network.plan()
    csr = plan.csr
    if csr.has_selfloops:
        return None
    n = csr.n
    order = csr.order

    a = np.empty(n, dtype=np.int64)
    b = np.empty(n, dtype=np.int64)
    offset = np.zeros(n, dtype=np.int64)
    qs = set()
    for i, node in enumerate(order):
        data = plan.input_for(node)
        q = data.get("q")
        color_in = data.get("color_in")
        if (
            not isinstance(q, int)
            or q <= 0
            or q * q >= _INT64_SAFE
            or not isinstance(color_in, int)
            or not 0 <= color_in < q * q
        ):
            return None  # constructor raises on the real run
        qs.add(q)
        a[i] = color_in // q
        b[i] = color_in % q
        if with_parts:
            part = data.get("part")
            if (
                not isinstance(part, int)
                or part < 0
                or part * q >= _INT64_SAFE
            ):
                return None
            offset[i] = part * q
    if len(qs) != 1:
        return None  # mixed q: phase schedules diverge per node
    q = qs.pop()
    worst_candidate = int(offset.max()) + q - 1
    if worst_candidate >= _INT64_SAFE:
        return None

    if not _try_phases_fit(network, worst_candidate):
        return None

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
    if halted:
        network.outputs.update(
            (node, int(c) if c >= 0 else None)
            for node, c in zip(order, colors.tolist())
        )

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
    success_known = adopted & (3 * adopt_phase + 3 <= resumes)

    nbr_tables = _nbr_colors_writeback(
        csr, order, colors, adopt_iter, resumes
    )

    def writeback(programs):
        for i, node in enumerate(order):
            program = programs[node]
            c = int(colors[i])
            program.color = c if c >= 0 else None
            program.blocked_phases = int(blocked[i])
            program.nbr_colors = nbr_tables(i)
            if not with_parts:
                program.succeeded_phase = (
                    int(adopt_phase[i]) if success_known[i] else None
                )

    _publish(
        network, writeback,
        color=_color_table(order, colors),
        blocked_phases=_int_table(order, blocked),
    )
    return _finish(
        network, rounds, traffic, r, status == "stopped",
        status == "timeout", max_rounds, raise_on_timeout,
        halted=halted,
    )


@register_kernel(LocallyIterativeProgram, specs=("deterministic-d2",))
def _locally_iterative_kernel(
    network, *, max_rounds, stop_when, raise_on_timeout
):
    """Vectorized :class:`LocallyIterativeProgram` (Theorem B.4)."""
    return _poly_phase_kernel(
        network, max_rounds=max_rounds, stop_when=stop_when,
        raise_on_timeout=raise_on_timeout, with_parts=False,
    )


@register_kernel(PartLocallyIterativeD2, specs=("eps-d2-coloring",))
def _part_locally_iterative_kernel(
    network, *, max_rounds, stop_when, raise_on_timeout
):
    """Vectorized :class:`PartLocallyIterativeD2` (Lemma 3.5 stage 2:
    part-offset palettes, identical phase schedule)."""
    return _poly_phase_kernel(
        network, max_rounds=max_rounds, stop_when=stop_when,
        raise_on_timeout=raise_on_timeout, with_parts=True,
    )


# ----------------------------------------------------------------------
# Linial (Theorem B.1) and color reduction (Theorem B.2): fixed-length
# schedules of broadcasts and bit-packed relays.  Every node runs every
# round and halts on the resume after the last one, so the round count
# is known up front and only the traffic and the recoloring need work.

#: Elements per ``(pairs, q)`` temporary of the Linial kernel.
_BLOCK_ELEMS = 1 << 20


def _loop_rank(network, csr):
    """Each dense index's position in ``graph.nodes`` — the order the
    generator loop resumes senders in, hence every inbox's order — or
    None when that is the dense (sorted-label) order itself."""
    nodes = list(network.graph.nodes)
    if nodes == list(csr.order):
        return None
    rank = np.empty(csr.n, dtype=np.int64)
    rank[[csr.index[v] for v in nodes]] = np.arange(csr.n)
    return rank


def _relay_traffic(csr, traffic, weights, head, per_message, rounds,
                   groups, rank_of):
    """Meter one bit-packed relay; False if a list outgrows it.

    For ``rounds`` rounds every node u sends each neighbor v the next
    ``per_message`` items of v's list — the items of u's *other*
    neighbors in v's group (all of them when ``groups`` is None), in
    u's inbox order — as one ``(tag,) + chunk`` message of ``head``
    plus item ``weights`` bits.  A list longer than
    ``rounds · per_message`` is truncated by the generators, which the
    caller must decline.  Chunk composition (so ``max_message_bits``)
    follows inbox order, which ``rank_of()`` supplies when it is not
    the dense order.
    """
    indices = csr.g_indices
    nnz = indices.size
    if nnz == 0:
        return True
    src = np.repeat(np.arange(csr.n, dtype=np.int64), csr.degrees)

    def arrange(key):
        """Row entries sorted by (group, ``key``); rows stay put."""
        if key is None and groups is None:
            return indices  # CSR rows are already index-sorted
        keys = [indices if key is None else key[indices]]
        if groups is not None:
            keys.append(groups[indices])
        keys.append(src)
        return indices[np.lexsort(keys)]

    # Each row sorted by (group, order): entry e is receiver v of
    # sender src[e]; v's list is its group block minus v itself.
    cols = arrange(None)
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
    messages = int(chunks.sum())
    if not traffic.metered or messages == 0:
        traffic.messages += messages
        return True
    if longest > per_message:
        rank = rank_of()
        if rank is not None:
            cols = arrange(rank)
    w = weights[cols]
    csum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(w)))
    base = block_start[block_of]
    pos = np.arange(nnz, dtype=np.int64) - base
    for k in range(-(-longest // per_message)):
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


@register_kernel(LinialProgram)
def _linial_kernel(network, *, max_rounds, stop_when, raise_on_timeout):
    """Vectorized :class:`LinialProgram` (Theorem B.1), G and G²
    variants, per-part conflicts included.

    Each schedule step is one ``(C, color, part)`` broadcast, then (G²
    only) ``relay_rounds`` bit-packed relay rounds, then the local
    recoloring of :func:`_linial_step` over the same-part G (or G²)
    rows.  Declines when the relay would truncate a list, on a metered
    message over budget, on inputs the generators raise on, and on
    ``max_rounds`` short of the halting resume.
    """
    if stop_when is not None:
        return None
    plan = network.plan()
    csr = plan.csr
    if csr.has_selfloops:
        return None
    n = csr.n
    order = csr.order

    rows = (
        (
            (
                data.get("schedule"),
                data.get("relay"),
                data.get("relay_rounds"),
                data.get("per_message"),
            ),
            data.get("color_in", v),
            data.get("part", 0),
        )
        for v, data in zip(order, map(plan.input_for, order))
    )
    config = None
    colors, parts = [], []
    for cfg, color, part in rows:
        if config is None:
            config = cfg
        elif cfg != config:
            return None  # non-uniform schedules
        if not (_is_int64_safe(color) and _is_int64_safe(part)):
            return None
        colors.append(color)
        parts.append(part)
    colors = np.array(colors, dtype=np.int64)
    parts = np.array(parts, dtype=np.int64)

    schedule, relay, relay_rounds, per_message = config
    try:
        steps = [(d, q) for d, q, _m_new in schedule]
        if relay:
            packing = [
                (per_message[k], relay_rounds[k])
                for k in range(len(steps))
            ]
    except (TypeError, ValueError, IndexError):
        return None  # the generator raises on these
    for d, q in steps:
        if not (
            isinstance(d, int)
            and isinstance(q, int)
            and d >= 0
            and 2 <= q < 2**31
            and is_prime(q)
        ):
            return None
    if relay and not all(
        isinstance(p, int) and isinstance(r, int) and p >= 1
        for p, r in packing
    ):
        return None
    schedule_rounds = len(steps) + (
        sum(max(0, r) for _p, r in packing) if relay else 0
    )
    if max_rounds <= schedule_rounds:
        return None  # the halting resume would time out

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
    rank_of = functools.lru_cache(maxsize=None)(
        lambda: _loop_rank(network, csr)
    )

    for k, (d, q) in enumerate(steps):
        if int(colors.min()) < 0 or int(colors.max()) >= q ** (d + 1):
            return None  # degree_le_polynomials raises
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
                parts if split else None, rank_of,
            ):
                return None
        colors = _linial_step(colors, d, q, indptr, indices, same_part)
        if colors is None:
            return None
    if traffic.metered and traffic.max_bits > network._budget:
        return None  # violations are reference's to count (or raise)

    network.outputs.update(zip(order, colors.tolist()))

    def writeback(programs):
        for node, color in zip(order, colors.tolist()):
            programs[node].color = color

    _publish(network, writeback, color=_int_table(order, colors))
    return _finish(
        network, schedule_rounds, traffic, schedule_rounds + 1, False,
        False, max_rounds, raise_on_timeout, halted=True,
    )


@register_kernel(ColorReductionProgram)
def _color_reduction_kernel(
    network, *, max_rounds, stop_when, raise_on_timeout
):
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
    if stop_when is not None:
        return None
    plan = network.plan()
    csr = plan.csr
    if csr.has_selfloops:
        return None
    n = csr.n
    order = csr.order
    if not (_is_int64_safe(order[0]) and _is_int64_safe(order[-1])):
        return None  # node labels ride in the announcements

    rows = (
        (
            (
                data.get("target"),
                data.get("phases"),
                data.get("gather_rounds"),
                data.get("per_message"),
            ),
            data.get("color_in"),
        )
        for data in map(plan.input_for, order)
    )
    config = None
    colors = []
    for cfg, color in rows:
        if config is None:
            config = cfg
        elif cfg != config:
            return None  # non-uniform schedules
        if not _is_int64_safe(color):
            return None
        colors.append(color)
    colors = np.array(colors, dtype=np.int64)
    target, phases, gather_rounds, per_message = config
    if not (
        all(
            isinstance(v, int)
            for v in (target, phases, gather_rounds, per_message)
        )
        and per_message >= 1
        and _is_int64_safe(target)
    ):
        return None
    phases = max(0, phases)
    schedule_rounds = 1 + max(0, gather_rounds) + 2 * phases
    if max_rounds <= schedule_rounds:
        return None

    traffic = _Traffic(network)
    color_bits = arrays.int_bits_array(colors) if traffic.metered else None
    traffic.add(n, 12 + color_bits if traffic.metered else None)
    if not _relay_traffic(
        csr, traffic, 2 + color_bits if traffic.metered else None, 10,
        per_message, max(0, gather_rounds), None,
        lambda: _loop_rank(network, csr),
    ):
        return None

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
            return None  # no free color: the generator raises
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
        return None

    network.outputs.update(zip(order, current.tolist()))
    g_indptr, g_indices = csr.g_indptr, csr.g_indices

    def d2_multiset(i):
        # One count per adjacency plus one per 2-path, as announced.
        row = g_indices[g_indptr[i]:g_indptr[i + 1]]
        pos, _seg = _row_positions(g_indptr, row)
        two = g_indices[pos]
        seen = np.concatenate((row, two[two != i]))
        return Counter(current[seen].tolist())

    def recolored_table():
        return {
            node: (int(p) if p >= 0 else None)
            for node, p in zip(order, recolored.tolist())
        }

    def writeback(programs):
        table = recolored_table()
        for i, node in enumerate(order):
            program = programs[node]
            program.color = int(current[i])
            program.recolored_in_phase = table[node]
            program.d2_colors = d2_multiset(i)

    _publish(
        network, writeback,
        color=_int_table(order, current),
        recolored_in_phase=recolored_table,
    )
    return _finish(
        network, schedule_rounds, traffic, schedule_rounds + 1, False,
        False, max_rounds, raise_on_timeout, halted=True,
    )


# ----------------------------------------------------------------------
# randomized d2-color (improved + basic): hybrid — the c0·log n
# random-trials section runs as arrays, everything else as generators


@register_kernel(
    RandomizedD2Program, specs=("improved-d2color", "basic-d2color")
)
def _randomized_d2_kernel(
    network, *, max_rounds, stop_when, raise_on_timeout
):
    """Hybrid :class:`RandomizedD2Program` executor.

    ``improved``: the trials section is a prefix — rounds ``[0, 3T)``
    run as arrays, then the generators start (their first resume
    happens at round 3T, exactly where the reference run's generators
    leave the trials loop).  ``basic``: similarity runs first — its
    round count is a node-independent constant of the
    :class:`SimilarityConfig` — so the :class:`GeneratorLoop` pauses
    at that boundary, the trials window runs as arrays, and the loop
    resumes with the held similarity inboxes.  In both variants the
    deferred boundary resume replays the skipped section's observable
    effects through ``RandomizedD2Program._kernel_prefix`` (phase-log
    entry + final-round adopt records), keeping program state
    bit-identical to reference.

    One documented deviation: when the run stops or times out *inside*
    the trials window of the ``basic`` variant, the deferred similarity
    tail never executes, so ``program.similarity`` stays ``None`` (the
    phase log and the current phase are patched, and colors, metrics
    and rounds still match reference exactly).
    """
    if stop_when is not None and stop_when is not all_colored:
        return None
    plan = network.plan()
    csr = plan.csr
    if csr.has_selfloops:
        return None
    n = csr.n
    order = csr.order

    configs = {
        (
            data.get("palette"),
            data.get("variant"),
            data.get("initial_trials"),
            data.get("sim_config"),
        )
        for data in map(plan.input_for, order)
    }
    if len(configs) != 1:
        return None
    palette, variant, trials, sim_config = configs.pop()
    if variant not in ("improved", "basic") or sim_config is None:
        return None
    if (
        not isinstance(palette, int)
        or palette <= 0
        or palette >= _INT64_SAFE
    ):
        return None
    if not isinstance(trials, int) or trials <= 0:
        return None

    if not _try_phases_fit(network, palette - 1):
        return None

    # Identical at every node by construction (see SimilarityMixin).
    if variant == "basic":
        prologue = (
            sim_config.forward_rounds
            + sim_config.own_rounds
            + (0 if sim_config.exact else 1)
        )
    else:
        prologue = 0
    window_end = prologue + 3 * trials

    loop = GeneratorLoop(network)  # materializes the nodes
    programs = network.programs
    if prologue:
        status = loop.run_until(
            prologue,
            max_rounds=max_rounds,
            stop_when=stop_when,
            raise_on_timeout=raise_on_timeout,
        )
        if status is not PAUSED:
            return loop.result()  # ended inside similarity

    # --- the trials window, as arrays -----------------------------
    # Programs adopt no colors before their trials section, so the
    # window starts from a blank color state; draws continue on the
    # very same per-node streams the prologue advanced: the plan takes
    # the programs' counters for the window and hands them back after.
    rngs = [programs[v].ctx.rng for v in order]
    plan.counters[:] = [rng.counter for rng in rngs]

    def draw(_phase, live_idx):
        return plan.randrange(live_idx, palette)

    traffic = _Traffic(network)
    traffic.messages = loop.total_messages
    traffic.bits = loop.total_bits
    traffic.max_bits = loop.max_message_bits
    st = _TryState(n)
    colors, adopt_iter = st.colors, st.adopt_iter
    r, rounds, status = _run_try_phases(
        csr, st, traffic, draw,
        start_round=prologue, end_round=window_end,
        max_rounds=max_rounds, check_stop=stop_when is not None,
    )
    for rng, counter in zip(rngs, plan.counters.tolist()):
        rng.counter = counter
    loop.total_messages = traffic.messages
    loop.total_bits = traffic.bits
    loop.max_message_bits = traffic.max_bits
    loop.rounds += rounds
    loop.round_index = r
    if r > 0:
        network._started = True

    # Write the window's observable state back: resumes 0..r-1 have
    # happened, so adopts from the final executed round are not yet in
    # any neighbor table — on a completed window they ride the
    # deferred boundary resume via _kernel_prefix instead.
    nbr_tables = _nbr_colors_writeback(
        csr, order, colors, adopt_iter, r - 1
    )
    last = adopt_iter == r - 1
    for i, node in enumerate(order):
        program = programs[node]
        c = int(colors[i])
        program.color = c if c >= 0 else None
        program.nbr_colors = nbr_tables(i)

    def enter_trials():
        """Replay what the boundary resume (round ``prologue``) logs
        when the run ends before the generators reach it: ``basic``
        programs complete similarity there, and every program enters
        the trials section (whose entry is only logged once the
        section completes)."""
        for program in programs.values():
            program._kernel_prefix = None
            if variant == "basic":
                program.phase_log.append(("similarity", prologue))
            program.phase = "trials"

    if status != "done":
        # Stopped or timed out mid-window, after the boundary resume
        # iff a round of the window ran.
        if r > prologue:
            enter_trials()
        loop.stopped_early = status == "stopped"
        if status == "timeout" and raise_on_timeout:
            raise NonterminationError(max_rounds, set(loop.running))
        return loop.result()

    # --- hand back to the generators ------------------------------
    g_indptr, g_indices = csr.g_indptr, csr.g_indices
    for i, node in enumerate(order):
        row = g_indices[g_indptr[i]:g_indptr[i + 1]]
        adopts = {
            order[j]: int(colors[j])
            for j in row[last[row]].tolist()
        }
        programs[node]._kernel_prefix = (3 * trials, adopts)
    loop.run_until(
        None,
        max_rounds=max_rounds,
        stop_when=stop_when,
        raise_on_timeout=raise_on_timeout,
    )
    if next(iter(programs.values()))._kernel_prefix is not None:
        # The run ended right at the window boundary, before the
        # deferred resume consumed the prefix.
        enter_trials()
    return loop.result()


# ----------------------------------------------------------------------
# Luby distance-k MIS: k rounds of max-flooding + k domination rounds


@register_kernel(LubyDistanceKProgram)
def _luby_kernel(network, *, max_rounds, stop_when, raise_on_timeout):
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
    if stop_when is not None and stop_when is not _all_decided:
        return None
    plan = network.plan()
    csr = plan.csr
    if csr.has_selfloops:
        return None
    n = csr.n
    order = csr.order

    ks = {plan.input_for(v).get("k") for v in order}
    if len(ks) != 1:
        return None
    k = ks.pop()
    if not isinstance(k, int) or k < 1:
        return None
    max_label = max(abs(order[0]), abs(order[-1]))
    if (n**3 - 1) * n + max_label >= _INT64_SAFE:
        return None  # rank arithmetic could leave int64

    traffic = _Traffic(network)
    metered = traffic.metered
    rank_base = bit_size((_TAG_RANK, 0)) - 1
    dom_base = rank_base  # both tags are 1-char strings
    if metered:
        worst = rank_base + 1 + int_bits((n**3 - 1) * n + max_label)
        if max(worst, dom_base + int_bits(k)) > network._budget:
            return None

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
    stopped_early = False
    timed_out = False
    check_stop = stop_when is not None
    period = 2 * k
    inflight = None  # ("rank"|"dom", values) sent one round ago
    idle_bits = rank_base + 2  # bit_size((_TAG_RANK, -1))

    r = 0
    while True:
        if check_stop and not (state == LIVE).any():
            stopped_early = True
            break
        if r >= max_rounds:
            timed_out = True
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
                timed_out = True
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

    names = {LIVE: _STATE_LIVE, IN_MIS: _STATE_IN_MIS,
             DOM: _STATE_DOMINATED}

    def writeback(programs):
        for i, node in enumerate(order):
            program = programs[node]
            program.state = names[int(state[i])]
            program.phases = phases

    _publish(
        network, writeback,
        state=lambda: {
            node: names[int(s)] for node, s in zip(order, state.tolist())
        },
        phases=lambda: {node: phases for node in order},
    )
    return _finish(
        network, rounds, traffic, r, stopped_early, timed_out,
        max_rounds, raise_on_timeout,
    )
