"""The execution-backend contract: functional execution, pluggable cost.

Every scheme drives ``state = T[state, sym]`` through a backend (``"sim"``
or ``"fast"``) instead of a concrete executor.  Both backends have
``run_batch``, ``run_gathered`` and ``run_mappings`` with the same
signatures, a ``name`` and an ``accounts_cycles`` flag.  The contract has
two halves:

* **function** — ``run_batch`` maps ``(chunks, starts, lengths, active,
  chunk_ids)`` to end states, and is required to be *bit-identical* across
  backends (the differential and hypothesis suites enforce this for every
  scheme × DFA × input);
* **cost** — an optional :class:`~repro.gpu.stats.KernelStats` ledger.
  Only a backend with ``accounts_cycles`` set charges it; the answer-only
  backend accepts the ledger for signature parity and leaves it untouched.

What a batch must look like is stated once, here:
:func:`validate_batch_inputs` checks a batch and returns it normalized, and
:func:`gather_chunks` resolves ``run_gathered``'s thread→chunk binding.
Both backends call them before any transition, so a malformed batch raises
the same :class:`~repro.errors.SimulationError` on either.

Backend selection is by name (``"sim"``, ``"fast"``); when no name is given
the ``REPRO_BACKEND`` environment variable decides, defaulting to ``"sim"``
so existing cost-model workflows are unchanged.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError

#: Environment variable consulted when no backend name is given explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: The default backend: full cycle-accurate simulation.
DEFAULT_BACKEND = "sim"

#: Names accepted by :func:`resolve_backend_name`, in registration order.
BACKEND_NAMES: Tuple[str, ...] = ("sim", "fast")


def _lane_list(mask: np.ndarray, cap: int = 8) -> str:
    """Render offending lane indices for an error message, capped."""
    lanes = np.flatnonzero(mask)
    shown = ", ".join(str(int(x)) for x in lanes[:cap])
    if lanes.size > cap:
        shown += f", … ({lanes.size} lanes total)"
    return shown


def _out_of_range(values: np.ndarray, bound: int) -> bool:
    """Whether any int64 entry lies outside ``[0, bound)``: one compare of
    the unsigned view, where a negative entry reads as a huge value."""
    return bool(values.size) and int(values.view(np.uint64).max()) >= bound


def validate_starts(starts, *, n_states: int, backend: str = "backend") -> None:
    """Raise :class:`~repro.errors.SimulationError` naming every lane whose
    start state lies outside ``[0, n_states)``."""
    starts = np.asarray(starts, dtype=np.int64)
    if _out_of_range(starts, n_states):
        bad_starts = (starts < 0) | (starts >= n_states)
        raise SimulationError(
            f"[{backend}] start states out of range [0, {n_states}) "
            f"on lanes {_lane_list(bad_starts)}"
        )


def validate_batch_inputs(
    chunks: np.ndarray,
    starts: Optional[np.ndarray],
    *,
    n_states: int,
    n_symbols: int,
    lengths: Optional[np.ndarray] = None,
    active: Optional[np.ndarray] = None,
    count_redundant: Optional[np.ndarray] = None,
    chunk_ids: Optional[np.ndarray] = None,
    backend: str = "backend",
) -> Tuple[Optional[np.ndarray], ...]:
    """Check one batch against the contract and return it normalized.

    Shape: ``chunks`` is a 2-D ``(lanes × width)`` matrix, and ``starts``,
    ``lengths``, ``active``, ``count_redundant`` and ``chunk_ids`` each hold
    one entry per lane; lengths lie in ``[0, width]``.  Range: ``starts``
    lies in ``[0, n_states)`` on *every* lane (schemes hand inactive lanes
    a valid placeholder, so a bad start is always a real bug), and symbols
    lie in ``[0, n_symbols)`` at every position a lane executes (padding
    beyond ``lengths`` and inactive lanes may hold arbitrary values).  The
    symbol scan is skipped only where it is vacuous: an unsigned dtype
    whose maximum is below ``n_symbols`` (wire bytes).  A violation raises
    :class:`~repro.errors.SimulationError` naming ``backend`` — never a raw
    numpy ``IndexError``, nor a silently wrong answer via negative indexing
    in a flat gather.

    Returns ``(chunks, starts, lengths, active, count_redundant,
    chunk_ids)``: contiguous ``chunks`` in their own dtype, int64
    ``starts`` (``None`` passes through: ``run_mappings`` has none), int64
    ``lengths`` (``None`` when absent or every lane runs the full width),
    bool ``active`` and ``count_redundant`` and int64 ``chunk_ids``
    (``None`` when absent).
    """
    chunks = np.ascontiguousarray(chunks)
    if chunks.ndim != 2:
        raise SimulationError(
            f"[{backend}] chunks must be 2-D, got shape {chunks.shape}"
        )
    n_lanes, width = chunks.shape
    checked = []
    for name, values, dtype in (
        ("starts", starts, np.int64),
        ("lengths", lengths, np.int64),
        ("active", active, bool),
        ("count_redundant", count_redundant, bool),
        ("chunk_ids", chunk_ids, np.int64),
    ):
        if values is not None:
            values = np.asarray(values, dtype=dtype)
            if values.shape != (n_lanes,):
                raise SimulationError(
                    f"[{backend}] {name} has shape {values.shape}, "
                    f"expected one entry per lane ({n_lanes},)"
                )
        checked.append(values)
    starts, lengths, active, count_redundant, chunk_ids = checked
    if lengths is not None:
        if _out_of_range(lengths, width + 1):
            bad_lengths = (lengths < 0) | (lengths > width)
            raise SimulationError(
                f"[{backend}] lengths out of range [0, {width}] "
                f"on lanes {_lane_list(bad_lengths)}"
            )
        if lengths.min(initial=width) == width:
            lengths = None
    if starts is not None:
        validate_starts(starts, n_states=n_states, backend=backend)

    # Vacuous: an unsigned dtype whose maximum, 256**itemsize - 1, is
    # below n_symbols.
    vacuous = chunks.dtype.kind == "u" and 256**chunks.dtype.itemsize <= n_symbols
    if chunks.size and not vacuous:
        too_big = chunks.max() >= n_symbols
        if too_big or (chunks.dtype.kind != "u" and chunks.min() < 0):
            bad_syms = (chunks < 0) | (chunks >= n_symbols)
            # Restrict to executed positions before deciding it is an error.
            if active is not None:
                bad_syms &= active[:, None]
            if lengths is not None:
                bad_syms &= np.arange(width)[None, :] < lengths[:, None]
            if bad_syms.any():
                raise SimulationError(
                    f"[{backend}] input symbols out of range [0, {n_symbols}) "
                    f"on lanes {_lane_list(bad_syms.any(axis=1))}"
                )
    return chunks, starts, lengths, active, count_redundant, chunk_ids


def gather_chunks(
    input_chunks: np.ndarray, chunk_ids: np.ndarray, n_lanes: int, *, backend: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Each lane's row of ``input_chunks``: ``run_gathered``'s explicit
    thread→chunk binding (the one-to-one binding RR/NF recovery breaks).

    ``chunk_ids`` holds one row index in ``[0, len(input_chunks))`` per
    lane.  Returns the gathered ``(n_lanes × width)`` rows and the ids as
    int64, which the caller hands on as ``chunk_ids`` so that the input
    fetch of lanes sharing a chunk coalesces.
    """
    input_chunks = np.asarray(input_chunks)
    if input_chunks.ndim != 2:
        raise SimulationError(
            f"[{backend}] chunks must be 2-D, got shape {input_chunks.shape}"
        )
    chunk_ids = np.asarray(chunk_ids, dtype=np.int64)
    if chunk_ids.shape != (n_lanes,):
        raise SimulationError(
            f"[{backend}] chunk_ids has shape {chunk_ids.shape}, "
            f"expected one entry per lane ({n_lanes},)"
        )
    n_chunks = input_chunks.shape[0]
    bad_ids = (chunk_ids < 0) | (chunk_ids >= n_chunks)
    if bad_ids.any():
        raise SimulationError(
            f"[{backend}] chunk ids out of range [0, {n_chunks}) "
            f"on lanes {_lane_list(bad_ids)}"
        )
    return input_chunks[chunk_ids], chunk_ids


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
