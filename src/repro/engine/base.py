"""The execution-backend contract: functional execution, pluggable cost.

Every scheme drives ``state = T[state, sym]`` through an
:class:`ExecutionBackend` instead of a concrete executor.  The contract has
two halves:

* **function** — ``run_batch`` maps ``(chunks, starts, lengths, active,
  chunk_ids)`` to end states, and is required to be *bit-identical* across
  backends (the differential and hypothesis suites enforce this for every
  scheme × DFA × input);
* **cost** — an optional :class:`CostSink` (in practice a
  :class:`~repro.gpu.stats.KernelStats` ledger) the backend may charge.
  Only backends with :attr:`ExecutionBackend.accounts_cycles` set populate
  it; answer-only backends accept the ledger for signature parity and leave
  it untouched.

Backend selection is by name (``"sim"``, ``"fast"``); when no name is given
the ``REPRO_BACKEND`` environment variable decides, defaulting to ``"sim"``
so existing cost-model workflows are unchanged.
"""

from __future__ import annotations

import os
from typing import Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.errors import SimulationError

#: Environment variable consulted when no backend name is given explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The default backend: full cycle-accurate simulation.
DEFAULT_BACKEND = "sim"

#: Names accepted by :func:`resolve_backend_name`, in registration order.
BACKEND_NAMES: Tuple[str, ...] = ("sim", "fast")


@runtime_checkable
class CostSink(Protocol):
    """The ledger slice a cycle-accounting backend charges into.

    Structurally matched by :class:`~repro.gpu.stats.KernelStats`; the
    protocol exists so future backends (and tests) can depend on the engine
    layer without importing the GPU cost model.
    """

    transitions: int
    redundant_transitions: int
    shared_accesses: int
    global_accesses: int

    def charge(self, phase: str, cycles: float) -> None:
        """Add ``cycles`` to the total and to ``phase``'s bucket."""
        ...


@runtime_checkable
class ExecutionBackend(Protocol):
    """One way of executing chunk batches of DFA transitions.

    Implementations must agree on the *functional* result for identical
    inputs; they differ only in what else they compute (cycle accounting,
    metrics) and how fast they run on the host.
    """

    #: Registry name (``"sim"``, ``"fast"`` …).
    name: str
    #: Whether ``run_batch`` charges the ``stats`` ledger it is handed.
    accounts_cycles: bool

    def run_batch(
        self,
        chunks: np.ndarray,
        starts: np.ndarray,
        *,
        stats: Optional[CostSink] = None,
        phase: str = "execution",
        lengths: Optional[np.ndarray] = None,
        active: Optional[np.ndarray] = None,
        count_redundant: Optional[np.ndarray] = None,
        chunk_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Advance each thread through its chunk; return the end states.

        Semantics (shared by all backends): inactive lanes keep their start
        state; positions at or beyond a lane's ``lengths`` entry are
        skipped; ``chunk_ids``/``count_redundant`` only influence cost
        accounting and may be ignored by answer-only backends.
        """
        ...

    def run_gathered(
        self,
        input_chunks: np.ndarray,
        chunk_ids: np.ndarray,
        starts: np.ndarray,
        **kwargs,
    ) -> np.ndarray:
        """Run with an explicit thread→chunk assignment (broken binding)."""
        ...

    def run_mappings(
        self,
        chunks: np.ndarray,
        *,
        lengths: Optional[np.ndarray] = None,
        stats: Optional[CostSink] = None,
        phase: str = "execution",
        chunk_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Full state→state mapping of every chunk: a ``(n_chunks,
        n_states)`` matrix whose ``[c, s]`` entry is the end state of
        running chunk ``c`` from state ``s`` (the SFA construction).
        Backends must agree on the matrix; only cost accounting differs.
        """
        ...


def _lane_list(mask: np.ndarray, cap: int = 8) -> str:
    """Render offending lane indices for an error message, capped."""
    lanes = np.flatnonzero(mask)
    shown = ", ".join(str(int(x)) for x in lanes[:cap])
    if lanes.size > cap:
        shown += f", … ({lanes.size} lanes total)"
    return shown


def validate_starts(starts, *, n_states: int, backend: str = "backend") -> None:
    """Raise :class:`~repro.errors.SimulationError` naming every lane whose
    start state lies outside ``[0, n_states)``."""
    starts = np.asarray(starts)
    bad_starts = (starts < 0) | (starts >= n_states)
    if bad_starts.any():
        raise SimulationError(
            f"[{backend}] start states out of range [0, {n_states}) "
            f"on lanes {_lane_list(bad_starts)}"
        )


def validate_batch_inputs(
    chunks: np.ndarray,
    starts: np.ndarray,
    *,
    n_states: int,
    n_symbols: int,
    lengths: Optional[np.ndarray] = None,
    active: Optional[np.ndarray] = None,
    backend: str = "backend",
) -> None:
    """Validate start states and symbols against the table's domain.

    Shared by both backends so they agree on the error contract: an
    out-of-range start state or symbol raises
    :class:`~repro.errors.SimulationError` naming the offending lanes,
    instead of surfacing as a raw numpy ``IndexError`` (or, worse, a
    silently wrong answer via negative indexing in the flat gather).

    ``starts`` is checked for *every* lane — schemes hand inactive lanes a
    valid placeholder start, so a bad start is always a real bug.  Symbols
    are only checked at positions a lane actually executes (padding beyond
    ``lengths`` and inactive lanes may hold arbitrary values).
    """
    validate_starts(starts, n_states=n_states, backend=backend)
    chunks = np.asarray(chunks)
    if chunks.size == 0:
        return
    if chunks.dtype.kind == "u" and np.iinfo(chunks.dtype).max < n_symbols:
        return  # the dtype cannot hold an out-of-range symbol (wire bytes)
    bad_syms = (chunks < 0) | (chunks >= n_symbols)
    if not bad_syms.any():
        return
    # Restrict to executed positions before deciding it is an error.
    n_threads, chunk_len = chunks.shape
    executed = np.ones((n_threads, chunk_len), dtype=bool)
    if active is not None:
        executed &= np.asarray(active, dtype=bool)[:, None]
    if lengths is not None:
        executed &= np.arange(chunk_len)[None, :] < np.asarray(
            lengths, dtype=np.int64
        )[:, None]
    bad_syms &= executed
    if bad_syms.any():
        raise SimulationError(
            f"[{backend}] input symbols out of range [0, {n_symbols}) "
            f"on lanes {_lane_list(bad_syms.any(axis=1))}"
        )


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Normalize a backend name, falling back to ``$REPRO_BACKEND``/sim.

    Raises :class:`~repro.errors.SimulationError` for unknown names so a
    typo in a config or the environment fails loudly at construction time,
    not as a silently-wrong default.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    normalized = str(name).strip().lower()
    if normalized not in BACKEND_NAMES:
        raise SimulationError(
            f"unknown execution backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return normalized
