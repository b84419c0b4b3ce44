"""The synchronous CONGEST network executor.

:class:`Network` drives one :class:`~repro.congest.node.NodeProgram`
per graph node in lockstep rounds:

1. every running program is resumed with its inbox and yields an
   outbox (``{neighbor: payload}`` or ``Broadcast``),
2. the network validates each message (receiver must be a neighbor)
   and meters its bit size against the bandwidth policy,
3. messages are delivered simultaneously; the next round begins.

Programs are resumed in ascending label order, so every inbox lists
its senders in ascending label order and every node-keyed mapping a
run returns iterates that way.  A round's messages arrive together in
the CONGEST model, so the order is a convention; fixing it to the
labels makes a run independent of the order the graph's nodes were
inserted in.

A program halts by returning; its return value becomes the node's
output.  The run ends when every program has halted, when the optional
``stop_when`` monitor fires, or after ``max_rounds``.

The round loop itself is pluggable: :meth:`Network.run` delegates to
an execution backend from :mod:`repro.exec` — by default
``reference``, whose :class:`~repro.exec.reference.GeneratorLoop`
does the delivery and metering; ``vectorized`` replays whole program
classes as array kernels.  Backends differ only in mechanics — the
delivered messages, outputs, round counts and metrics are
identical.

Node materialization is *lazy*: building n ``NodeProgram`` objects and
n generator frames is pure overhead for a run the vectorized backend
executes entirely in arrays, so ``__init__`` only validates and
records the recipe.  The Python nodes are built on first access of
:attr:`contexts`/:attr:`programs` (or explicitly via
:meth:`materialize`).  Per-node randomness is the counter hash of
:mod:`repro.congest.rng`, held by the :class:`NetworkPlan` as stream
keys and counters: kernels draw from the plan's arrays, and each
``NodeContext.rng`` is a :class:`~repro.congest.rng.CounterRandom`
that continues its node's stream at the plan's counter.  A kernel
run leaves its end state as one mapping of program attributes, which
:meth:`node_colors`/:meth:`node_table` serve and which is written
into the programs if nodes are built later.
One consequence: program-constructor errors (e.g. a missing input key)
surface at first materialization — usually :meth:`run` — rather than
at ``Network(...)`` construction.

``stop_when`` is a *simulation-level* convenience (it peeks at global
state, which no CONGEST node could): it only stops the simulation
early, e.g. once every node is colored, and is reported as such.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
)

import networkx as nx
import numpy as np

from repro.congest.metrics import RunMetrics
from repro.congest.node import NodeContext, NodeProgram
from repro.congest.policy import BandwidthPolicy
from repro.congest.rng import (
    CounterRandom,
    node_keys,
    random_array,
    randrange_array,
)
from repro.graphs.square import max_degree
from repro.obs import trace as obs_trace

_EMPTY_INPUT: Dict[str, Any] = {}
_MISSING = object()


class UniformInputs(Mapping):
    """``{node: payload}`` with one shared payload for every node,
    plus optional per-node int columns.

    Protocols whose per-node inputs are identical (the trial and
    naive baselines ship the same palette dict to all n nodes) pass
    this instead of a dict-of-dicts: O(1) memory instead of one dict
    per node — at n = 2²⁰ that alone is ~150 MB.  A stage handing a
    coloring on adds it as a column (:func:`column_inputs`):
    ``columns`` maps a key to an array whose positions ``index`` maps
    labels to, and a node's input is the payload plus its column
    values.  Materialization copies each node's input
    (``NodeContext`` owns its data), so sharing is safe.
    :meth:`Network.node_table` serves a kernel's shared end-state
    value through it too.
    """

    __slots__ = ("_nodes", "_payload", "columns", "index")

    def __init__(self, nodes, payload: Dict[str, Any], columns=None, index=None):
        self._nodes = nodes
        self._payload = payload
        self.columns: Dict[str, np.ndarray] = columns or {}
        self.index = index

    def __getitem__(self, node) -> Dict[str, Any]:
        """The payload itself without columns, else a fresh dict of
        the payload plus the node's column values (ints as ``int``)."""
        if node not in self._nodes:
            raise KeyError(node)
        if not self.columns:
            return self._payload
        i = self.index[node]
        data = dict(self._payload)
        for key, col in self.columns.items():
            data[key] = col[i] if col.dtype == object else int(col[i])
        return data

    def __iter__(self):
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def payload(self) -> Dict[str, Any]:
        """The shared payload (never copied; do not mutate)."""
        return self._payload

    def covers(self, nodes) -> bool:
        """Whether every node of ``nodes`` maps to an input; O(1)
        when ``nodes`` is the very node view it was built on."""
        mine = self._nodes
        return mine is nodes or all(node in mine for node in nodes)


def column_inputs(graph, payload: Dict[str, Any], **columns) -> UniformInputs:
    """``payload`` for every node of ``graph`` plus a column per
    keyword (a ``{node: value}`` mapping; ``None`` skips the key) in
    the order of the graph's CSR.  A coloring already in that order (a
    kernel's ``ArrayColoring``, a sweep ``Coloring``) is taken as it
    is; any other mapping is read once, node by node."""
    from repro.exec.arrays import csr_for_graph
    from repro.results import aligned_column, column

    csr = csr_for_graph(graph)
    cols = {}
    for key, values in columns.items():
        if values is not None:
            col = aligned_column(values, csr.order)
            cols[key] = column(
                [values[v] for v in csr.order] if col is None else col
            )
    return UniformInputs(graph.nodes, payload, cols, csr.index)


@dataclass
class RunResult:
    """Outcome of one :meth:`Network.run` execution."""

    #: ``{node: return value}`` of the halted programs; a halted
    #: kernel run's color table.
    outputs: Mapping[int, Any]
    metrics: RunMetrics
    halted: bool
    stopped_early: bool = False
    #: Node -> program instance, for post-hoc state inspection in
    #: tests.  May be a lazy mapping that materializes the Python
    #: nodes on first item access (kernel-executed runs).
    programs: Mapping[int, NodeProgram] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return self.metrics.rounds


class _LazyPrograms(Mapping):
    """Read-only ``{node: program}`` view that defers materialization.

    Iteration (ascending labels, the plan's order) and ``len`` come
    from the plan; the Python node objects are only built when a
    program is actually subscripted.
    """

    __slots__ = ("_network",)

    def __init__(self, network: "Network"):
        self._network = network

    def __getitem__(self, node: int) -> NodeProgram:
        return self._network.programs[node]

    def __iter__(self) -> Iterator[int]:
        return iter(self._network.plan().order)

    def __len__(self) -> int:
        return self._network.n


class NetworkPlan:
    """Array-level view of a network for vectorized kernels.

    Everything a kernel needs without touching Python node objects:
    the CSR G/G² adjacency (shared with :meth:`Instance.csr`), the
    dense node order, the inputs grouped by payload
    (:meth:`read_inputs`), and the per-node RNG state
    of :mod:`repro.congest.rng` — uint64 stream keys (derived in one
    vector pass) and counters.  Kernels draw through :meth:`randrange`
    and :meth:`random`;
    materialization hands every ``NodeContext`` its key and current
    counter, so generator draws continue where the kernel's stopped.
    Once the network is materialized the contexts own the counters.

    The plan holds only what it reads of its network (seed, inputs,
    node set), never the network itself: a back-reference would make
    every network and its arrays cyclic garbage after a run.
    """

    __slots__ = ("csr", "counters", "_keys", "_seed", "_inputs", "_nodes")

    def __init__(self, csr, seed: Any, inputs: Mapping, nodes):
        self.csr = csr
        self._seed = seed
        self._inputs = inputs
        self._nodes = nodes
        self.counters = np.zeros(csr.n, dtype=np.uint64)
        self._keys: Optional[np.ndarray] = None

    @property
    def order(self):
        """Dense node order (sorted labels) shared with the CSR."""
        return self.csr.order

    @property
    def node_keys(self) -> np.ndarray:
        """Per-node uint64 stream keys, aligned with :attr:`order`."""
        if self._keys is None:
            rec = obs_trace.recorder()
            trace_t0 = rec.clock() if rec is not None else 0.0
            self._keys = node_keys(self._seed, self.order)
            if rec is not None:
                rec.complete(
                    "plan.bulk_rng", trace_t0, {"n": len(self._keys)}
                )
        return self._keys

    def randrange(self, idx: np.ndarray, bounds) -> np.ndarray:
        """Each node index in ``idx`` draws ``randrange`` of its bound
        (``bounds``: an int or an array aligned with ``idx``) on its
        own stream — what its generator program would have drawn."""
        return randrange_array(self.node_keys, self.counters, idx, bounds)

    def random(self, idx: np.ndarray) -> np.ndarray:
        """Each node index in ``idx`` draws ``random()`` on its own
        stream (float64) — what its generator program would have
        drawn."""
        return random_array(self.node_keys, self.counters, idx)

    def read_inputs(self, **columns) -> Optional[tuple]:
        """The inputs as ``(shared, cols)``, or ``None`` when they do
        not have that shape (the kernel then declines).

        Each keyword names a per-node int key and what a node lacking
        it gets: an int, an int64 array in :attr:`order`, or ``None``
        (required).  ``cols`` holds an int64 column in :attr:`order`
        per keyword; a given value must be an exact ``int`` (no
        ``bool``) in [0, 2⁶³).  ``shared`` holds every other key,
        equal on every node.  A covering :class:`UniformInputs` costs
        O(1) Python work; other inputs take one pass over the nodes.
        Do not mutate what it returns.
        """
        inputs, n = self._inputs, self.csr.n
        uniform = (
            isinstance(inputs, UniformInputs)
            and inputs.covers(self._nodes)
            and (not inputs.columns or inputs.index is self.csr.index)
        )
        own = inputs.columns if uniform else {}
        if not own.keys() <= columns.keys():
            return None  # per-node values of a key read as shared
        if uniform:
            payload = inputs.payload
            rows = [payload]
        else:
            get = inputs.get
            rows = [get(node, _EMPTY_INPUT) for node in self.order]
        shared = last = None
        for data in rows:
            if data is last:
                continue
            rest = {k: v for k, v in data.items() if k not in columns}
            if shared is None:
                shared = rest
            elif not _same_values(rest, shared):
                return None
            last = data
        cols = {}
        for key, default in columns.items():
            if key in own:
                col = own[key]
                if col.dtype != np.int64 or int(col.min()) < 0:
                    return None
            elif uniform:
                value = payload.get(key, _MISSING)
                col = default if value is _MISSING else (
                    _int64_column([value], None)
                )
                if col is not None:
                    col = np.broadcast_to(np.asarray(col, np.int64), (n,))
            else:
                col = _int64_column(
                    [data.get(key, _MISSING) for data in rows], default
                )
            if col is None:
                return None
            cols[key] = col
        return shared, cols


def _same_values(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Equal dicts whose values also match in type (``1``, ``1.0``
    and ``True`` differ); uncomparable values (arrays) never match."""
    try:
        return a == b and all(type(v) is type(b[k]) for k, v in a.items())
    except Exception:  # noqa: BLE001 - whatever their __eq__ raises
        return False


def _int64_column(values: List[Any], default) -> Optional[np.ndarray]:
    """``values`` as an int64 column, a missing entry (``_MISSING``)
    taking ``default`` (an int, or an array read at its position), or
    ``None`` when a present value is not an exact ``int`` in [0, 2⁶³)
    or a missing one has no default."""
    from repro.results import column

    missing = [i for i, v in enumerate(values) if v is _MISSING]
    if missing and default is None:
        return None
    for i in missing:
        values[i] = 0
    col = column(values)
    if col.dtype != np.int64 or int(col.min()) < 0:
        return None
    if missing:
        col = col.copy()
        col[missing] = default if isinstance(default, int) else default[missing]
    return col


class Network:
    """Synchronous CONGEST executor over a networkx graph.

    Parameters
    ----------
    graph:
        The communication graph; node labels must be integers
        (they double as the O(log n)-bit identifiers).
    program_factory:
        Callable ``(NodeContext) -> NodeProgram``.
    seed:
        Root seed; per-node RNGs are derived deterministically.
    policy:
        Bandwidth policy; defaults to TRACK (measure, never fail).
    delta:
        Maximum degree communicated to nodes; defaults to the true
        maximum degree of ``graph``.
    inputs:
        Optional ``{node: dict}`` of per-node protocol inputs.  Read
        at materialization time (copied per node then); mutating it
        between construction and the first run is unsupported.
    """

    def __init__(
        self,
        graph: nx.Graph,
        program_factory: Callable[[NodeContext], NodeProgram],
        seed: Any = 0,
        policy: Optional[BandwidthPolicy] = None,
        delta: Optional[int] = None,
        inputs: Optional[Dict[int, Dict[str, Any]]] = None,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("cannot build a network on an empty graph")
        # A CSR-born graph is labelled 0..n-1 by construction.
        if getattr(graph, "csr_adjacency", None) is None and not (
            set(map(type, graph.nodes)) <= {int}
        ):
            for node in graph.nodes:
                if not isinstance(node, int):
                    raise TypeError(
                        "node labels must be ints (they are the "
                        f"O(log n)-bit identifiers); got {node!r}"
                    )
        self.graph = graph
        self.policy = policy or BandwidthPolicy()
        self.n = graph.number_of_nodes()
        self.delta = max_degree(graph) if delta is None else delta
        self._budget = self.policy.budget_bits(self.n)
        self._seed = seed
        self.program_factory = program_factory
        self._inputs: Dict[int, Dict[str, Any]] = inputs or {}

        self._contexts: Optional[Dict[int, NodeContext]] = None
        self._programs: Optional[Dict[int, NodeProgram]] = None
        self._gens: Optional[Dict[int, Any]] = None
        self._nbr_sets: Optional[Dict[int, frozenset]] = None
        self._plan: Optional[NetworkPlan] = None
        #: A kernel run's end state, ``{program attribute: int64 column
        #: in plan order (-1 = None) | per-node callable of the dense
        #: index | one value every node shares}``: served by
        #: :meth:`node_table` and written into the programs if they are
        #: built later.
        self._end_state: Dict[str, Any] = {}
        self.outputs: Dict[int, Any] = {}
        self._started = False

    # -- lazy materialization ------------------------------------------

    @property
    def materialized(self) -> bool:
        """Whether the Python node objects have been built."""
        return self._programs is not None

    def materialize(self) -> Dict[int, NodeProgram]:
        """Build contexts/programs/generators (idempotent)."""
        if self._programs is None:
            self._build_nodes()
        return self._programs

    def _build_nodes(self) -> None:
        graph = self.graph
        inputs = self._inputs
        # Nodes are built, and so resumed, in the plan's ascending
        # label order.  Each continues its stream at the plan's
        # counter, so generator draws follow any kernel draws on-stream.
        plan = self.plan()
        contexts: Dict[int, NodeContext] = {}
        programs: Dict[int, NodeProgram] = {}
        gens: Dict[int, Any] = {}
        factory = self.program_factory
        n, delta = self.n, self.delta
        for node, key, counter in zip(
            plan.order, plan.node_keys.tolist(), plan.counters.tolist()
        ):
            ctx = NodeContext(
                node=node,
                neighbors=tuple(sorted(graph.neighbors(node))),
                n=n,
                delta=delta,
                rng=CounterRandom(key, counter),
                data=dict(inputs.get(node, _EMPTY_INPUT)),
            )
            contexts[node] = ctx
            program = factory(ctx)
            programs[node] = program
            gens[node] = program.run()
        self._contexts = contexts
        self._programs = programs
        self._gens = gens
        self._nbr_sets = {
            node: frozenset(ctx.neighbors)
            for node, ctx in contexts.items()
        }
        for attr, value in self._end_state.items():
            for node, v in self._end_table(value).items():
                # Each program owns its value: a resumed one may mutate it.
                setattr(programs[node], attr, copy.copy(v))

    @property
    def contexts(self) -> Dict[int, NodeContext]:
        self.materialize()
        return self._contexts

    @property
    def programs(self) -> Dict[int, NodeProgram]:
        self.materialize()
        return self._programs

    @property
    def _generators(self) -> Dict[int, Any]:
        self.materialize()
        return self._gens

    @property
    def _neighbor_sets(self) -> Dict[int, frozenset]:
        self.materialize()
        return self._nbr_sets

    def plan(self) -> NetworkPlan:
        """The array-level :class:`NetworkPlan` (built on first use)."""
        if self._plan is None:
            from repro.exec import arrays

            rec = obs_trace.recorder()
            trace_t0 = rec.clock() if rec is not None else 0.0
            self._plan = NetworkPlan(
                arrays.csr_for_graph(self.graph),
                self._seed,
                self._inputs,
                self.graph.nodes,
            )
            if rec is not None:
                rec.complete(
                    "plan.build", trace_t0, {"n": self._plan.csr.n}
                )
        return self._plan

    # -- observable end-state without materialization ------------------

    def node_colors(self) -> Mapping[int, Optional[int]]:
        """``{node: color}`` after a run: :meth:`node_table` of
        ``color``, which a kernel run serves as a read-only
        :class:`~repro.results.ArrayColoring` over its color array."""
        return self.node_table("color")

    def node_table(self, attr: str) -> Mapping[int, Any]:
        """``{node: getattr(program, attr)}`` after a run, served from
        a kernel's end state when it holds ``attr``: a column as a
        read-only :class:`~repro.results.ArrayColoring`, a shared value
        as one O(1) mapping, a per-node callable as a dict."""
        value = self._end_state.get(attr, _MISSING)
        if value is _MISSING or self.materialized:
            return {
                node: getattr(program, attr)
                for node, program in self.programs.items()
            }
        return self._end_table(value)

    def _end_table(self, value) -> Mapping[int, Any]:
        """One end-state entry as a ``{node: value}`` mapping."""
        csr = self._plan.csr
        if isinstance(value, np.ndarray):
            from repro.results import ArrayColoring

            return ArrayColoring(csr.order, value, csr.index)
        if callable(value):
            return {node: value(i) for i, node in enumerate(csr.order)}
        return UniformInputs(csr.index, value)

    def result_programs(self) -> Mapping[int, NodeProgram]:
        """Programs mapping for a :class:`RunResult` — the real dict
        when built, else a lazy view."""
        if self.materialized:
            return self._programs
        return _LazyPrograms(self)

    # ------------------------------------------------------------------

    def run(
        self,
        max_rounds: int = 1_000_000,
        stop_when: Optional[Callable[["Network", int], bool]] = None,
        raise_on_timeout: bool = True,
        record_rounds: bool = False,
        backend: Any = None,
    ) -> RunResult:
        """Execute rounds until all programs halt (or stop/timeout).

        The round loop is driven by an execution backend from
        :mod:`repro.exec`: ``backend`` may be a name ("reference",
        "vectorized", ...) or an
        :class:`~repro.exec.base.ExecutionBackend` instance; ``None``
        selects the ambient backend installed by
        :func:`repro.exec.use_backend` (default: ``reference``).  All
        backends execute identical CONGEST semantics.

        ``stop_when`` is consulted before the ``max_rounds`` guard, so
        a monitor firing on the exact final admissible round reports
        ``stopped_early`` instead of a timeout.
        """
        from repro.exec import get_backend

        return get_backend(backend).execute(
            self,
            max_rounds=max_rounds,
            stop_when=stop_when,
            raise_on_timeout=raise_on_timeout,
            record_rounds=record_rounds,
        )


def run_protocol(
    graph: nx.Graph,
    program_factory: Callable[[NodeContext], NodeProgram],
    seed: Any = 0,
    policy: Optional[BandwidthPolicy] = None,
    delta: Optional[int] = None,
    inputs: Optional[Dict[int, Dict[str, Any]]] = None,
    max_rounds: int = 1_000_000,
    stop_when: Optional[Callable[[Network, int], bool]] = None,
    backend: Any = None,
) -> RunResult:
    """One-shot convenience: build a :class:`Network` and run it."""
    network = Network(
        graph,
        program_factory,
        seed=seed,
        policy=policy,
        delta=delta,
        inputs=inputs,
    )
    return network.run(
        max_rounds=max_rounds,
        stop_when=stop_when,
        raise_on_timeout=stop_when is None,
        backend=backend,
    )


def log2_ceil(n: int) -> int:
    """``ceil(log2 n)`` with ``log2_ceil(1) == 1`` (id width floor)."""
    if n <= 2:
        return 1
    return math.ceil(math.log2(n))
