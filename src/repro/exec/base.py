"""The execution-backend contract and selection machinery.

An :class:`ExecutionBackend` is an engine that can drive a fully
constructed :class:`~repro.congest.network.Network` to completion.
The *semantics* of a run — which messages are sent, what every node
outputs, how many rounds elapse — are fixed by the CONGEST model and
must be identical across backends; a backend only chooses *how* the
lockstep rounds are executed (the generator loop, array kernels, or a
worker pool fanning out whole grids of runs).

Selection is layered so existing entry points need no code changes:

1. an explicit ``backend=`` argument (to :meth:`Network.run`,
   :meth:`AlgorithmSpec.run`, :func:`run_conformance`, ...) wins;
2. otherwise the ambient backend installed by :func:`use_backend`
   (a :mod:`contextvars` context manager, so it nests and does not
   leak across threads or sweep workers);
3. otherwise the ``reference`` backend.
"""

from __future__ import annotations

import contextlib
import contextvars
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.congest.network import Network, RunResult

#: Anything the selection helpers accept as a backend designator.
BackendLike = Union[str, "ExecutionBackend", None]


class ExecutionBackend(ABC):
    """One engine for executing CONGEST networks.

    Subclasses must preserve run semantics exactly: same outputs, same
    round counts, same error behaviour, same metrics.
    """

    #: Registry key; also used in bench labels and reports.
    name: str = "abstract"

    @abstractmethod
    def execute(
        self,
        network: "Network",
        *,
        max_rounds: int = 1_000_000,
        stop_when: Optional[Callable[["Network", int], bool]] = None,
        raise_on_timeout: bool = True,
        record_rounds: bool = False,
    ) -> "RunResult":
        """Drive ``network`` to completion and return its result."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


# ----------------------------------------------------------------------
# backend registry

_BACKENDS: Dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Add ``backend`` to the registry (name must be unused)."""
    if backend.name in _BACKENDS:
        raise ValueError(
            f"backend {backend.name!r} already registered"
        )
    _BACKENDS[backend.name] = backend
    return backend


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_BACKENDS)


def get_backend(backend: BackendLike) -> ExecutionBackend:
    """Resolve a name / instance / ``None`` to an executable backend.

    ``None`` resolves to the ambient backend (see :func:`use_backend`),
    falling back to ``reference``.
    """
    if backend is None:
        return current_backend()
    if isinstance(backend, ExecutionBackend):
        return backend
    try:
        return _BACKENDS[backend]
    except KeyError:
        raise KeyError(
            f"unknown backend {backend!r}; registered: "
            f"{sorted(_BACKENDS)}"
        ) from None


# ----------------------------------------------------------------------
# ambient selection

_AMBIENT: contextvars.ContextVar[Optional[ExecutionBackend]] = (
    contextvars.ContextVar("repro_exec_backend", default=None)
)


def current_backend() -> ExecutionBackend:
    """The ambient backend (``reference`` unless one is installed)."""
    backend = _AMBIENT.get()
    if backend is not None:
        return backend
    return _BACKENDS["reference"]


@contextlib.contextmanager
def use_backend(backend: BackendLike) -> Iterator[ExecutionBackend]:
    """Install ``backend`` as the ambient engine for the block.

    Every :meth:`Network.run` call inside the block (without an
    explicit ``backend=`` override) uses it, which is how whole
    algorithm pipelines switch engines without threading a parameter
    through every phase.
    """
    resolved = (
        get_backend(backend) if backend is not None else current_backend()
    )
    token = _AMBIENT.set(resolved)
    try:
        yield resolved
    finally:
        _AMBIENT.reset(token)
