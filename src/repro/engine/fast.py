"""The answer-only backend: optimized numpy execution, no cost model.

``FastBackend`` serves the production question — *what state does this
input end in?* — without simulating the GPU that the paper's measurements
need.  All four entry points share **one** stepping kernel
(:meth:`FastBackend._advance`) built so that a step is one add and one
gather, ``st = pre[st + row]``:

* **premultiplied table** — the only copy of the table the backend holds is
  the flat int64 ``pre[s·m + a] = table[s, a]·m`` (``m`` = alphabet size;
  ``table`` is derived from it on read).
  Lane states are carried premultiplied and divided by ``m`` once on exit,
  so no per-step multiply is left.  The sim backend's
  :class:`~repro.gpu.executor.LockstepExecutor` steps the same way, on its
  own int32 premultiplied table (it stores a trace per step as well);
* **time-major symbols** — the ``(lanes × positions)`` block is transposed
  once into a contiguous ``(positions × lanes)`` int64 array and the loop
  iterates its rows: no per-position strided column, no index arithmetic;
* **prefix runs, not masks** — lanes are ordered by descending length, so
  the lanes still working at any position are a prefix.  Positions are
  grouped into at most ``n_lanes`` runs sharing one prefix width and each
  run is a tight loop over ``rows[a:b, :k]``.  Masked or unsorted batches
  compress their working lanes, sort them once, run the same kernel and
  scatter back; padding past a lane's length never reaches a gather.

There is no memory-model hot/cold classification, no per-warp reduction,
no ledger charge.  The ``stats``, ``phase``, ``chunk_ids`` and
``count_redundant`` parameters are accepted for signature parity with
:class:`~repro.engine.sim.SimBackend` and otherwise ignored — with this
backend a :class:`~repro.gpu.stats.KernelStats` ledger only ever contains
what the *scheme* charged (launch, comm, verify, sync), never execution
cycles.

Every entry point first checks its batch with
:func:`~repro.engine.base.validate_batch_inputs` (``run_gathered``
resolves its chunk ids with :func:`~repro.engine.base.gather_chunks`
first), the same checks the lockstep executor makes, so a malformed batch
fails the same way on either backend.  The functional contract is
bit-identical to the lockstep executor
(:func:`repro.automata.dfa.run_lockstep` is the reference the tests pin
the kernel to): inactive lanes keep their start state, positions beyond a
lane's length are skipped, and the returned dtype matches
:data:`~repro.automata.dfa.STATE_DTYPE`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.automata.dfa import STATE_DTYPE
from repro.engine.base import gather_chunks, validate_batch_inputs
from repro.errors import SimulationError


class FastBackend:
    """Premultiplied-gather DFA execution for answer-only serving."""

    name = "fast"
    accounts_cycles = False

    def __init__(self, table: np.ndarray):
        table = np.asarray(table)
        if table.ndim != 2:
            raise SimulationError("transition table must be 2-D")
        self.n_states, self.n_symbols = table.shape
        # pre[s*m + a] = table[s, a] * m: index arithmetic and gathers stay
        # in int64 and a gathered value is already the next row offset.
        # It is the only table kept; ``table`` is derived from it on read.
        self._pre = np.multiply(table, self.n_symbols, dtype=np.int64).ravel()

    @property
    def table(self) -> np.ndarray:
        """The plain ``(n_states, n_symbols)`` table, derived from the
        premultiplied one on each read; no run reads it."""
        m = max(self.n_symbols, 1)
        return (self._pre.reshape(self.n_states, self.n_symbols) // m).astype(
            STATE_DTYPE
        )

    # ------------------------------------------------------------------
    def _advance(self, chunks, states, lens, lanes=None) -> np.ndarray:
        """The stepping kernel: every transition of this backend runs here.

        ``states`` is ``(n,)`` — or the ``(n, n_states)`` plane of
        :meth:`run_mappings` — in table numbering and is not modified.
        ``lanes`` lists the lanes to step, ordered by descending ``lens``
        (``None``: all of them, already in that order; ``lens`` ``None``:
        every lane runs the full width); lanes not listed keep their state.
        """
        every = states
        if lanes is not None:
            chunks, states = chunks[lanes], states[lanes]
            lens = None if lens is None else lens[lanes]
        n_lanes, longest = chunks.shape
        if lens is not None and n_lanes:
            longest = int(lens[0])
        if n_lanes == 0 or longest == 0:
            return every.astype(STATE_DTYPE)
        pre, m = self._pre, self.n_symbols
        st = states * m
        rows = np.ascontiguousarray(chunks[:, :longest].T, dtype=np.int64)
        if st.ndim == 2:
            rows = rows[:, :, None]  # one symbol per chunk, all states
        # Prefix widths, widest first: all lanes, then every width at which
        # the (descending) length drops.  Width k works up to lens[k - 1].
        widths, ends = [n_lanes], [longest]
        if lens is not None:
            widths += (np.flatnonzero(lens[:-1] != lens[1:])[::-1] + 1).tolist()
            ends = lens[np.asarray(widths) - 1].tolist()
        a = 0
        for k, b in zip(widths, ends):
            part = st[:k]
            for row in rows[a:b, :k]:
                part = pre[part + row]
            st[:k] = part
            a = b
        st //= m
        if lanes is None:
            return st.astype(STATE_DTYPE)
        out = every.astype(STATE_DTYPE)
        out[lanes] = st
        return out

    # ------------------------------------------------------------------
    def run_batch(
        self,
        chunks: np.ndarray,
        starts: np.ndarray,
        *,
        stats=None,
        phase: str = "execution",
        lengths: Optional[np.ndarray] = None,
        active: Optional[np.ndarray] = None,
        count_redundant: Optional[np.ndarray] = None,
        chunk_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        chunks, states, lens, active, _, _ = validate_batch_inputs(
            chunks,
            starts,
            n_states=self.n_states,
            n_symbols=self.n_symbols,
            lengths=lengths,
            active=active,
            count_redundant=count_redundant,
            chunk_ids=chunk_ids,
            backend=self.name,
        )
        if active is None and lens is None:
            return self._advance(chunks, states, None)
        # Ragged and/or masked: compress to the active lanes, longest first.
        if active is None:
            lanes = np.arange(len(states))
        else:
            lanes = np.flatnonzero(active)
        if lens is not None:
            lanes = lanes[np.argsort(-lens[lanes], kind="stable")]
        return self._advance(chunks, states, lens, lanes)

    # ------------------------------------------------------------------
    def run_streams(
        self,
        chunks: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
    ) -> np.ndarray:
        """Fused cross-stream entry: lanes pre-sorted by descending length.

        The fused paths (:class:`~repro.engine.fused.FusedUnion` for the
        serving pool, :class:`~repro.engine.fused.FusedBatchEngine` for one
        matcher) pad N stream segments into one ``(streams × positions)``
        matrix and sort the rows by descending segment length, which is
        the order the kernel wants: it runs without the compress / sort /
        scatter that :meth:`run_batch` does for a ragged batch.
        Answer-identical to :meth:`run_batch` with the same ``lengths``.
        """
        chunks, states, lens, _, _, _ = validate_batch_inputs(
            chunks,
            starts,
            n_states=self.n_states,
            n_symbols=self.n_symbols,
            lengths=lengths,
            backend=self.name,
        )
        if lens is not None and (lens[:-1] < lens[1:]).any():
            raise SimulationError(
                f"[{self.name}] run_streams requires lanes sorted by "
                "descending length"
            )
        return self._advance(chunks, states, lens)

    # ------------------------------------------------------------------
    def run_mappings(
        self,
        chunks: np.ndarray,
        *,
        lengths: Optional[np.ndarray] = None,
        stats=None,
        phase: str = "execution",
        chunk_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Full state→state mapping of every chunk (the SFA construction).

        Returns a ``(n_chunks, n_states)`` matrix whose ``[c, s]`` entry is
        the state reached by running chunk ``c`` from state ``s`` — i.e. the
        chunk's transition *function*, not one speculated path.  All
        ``n_states`` columns advance together through the same kernel, one
        matrix gather per input position over the ``(chunks × states)``
        plane.  ``stats``/``phase``/``chunk_ids`` are accepted for parity
        with the sim backend and ignored.
        """
        chunks, _, lens, _, _, _ = validate_batch_inputs(
            chunks,
            None,
            n_states=self.n_states,
            n_symbols=self.n_symbols,
            lengths=lengths,
            backend=self.name,
        )
        n_chunks = chunks.shape[0]
        plane = np.broadcast_to(
            np.arange(self.n_states, dtype=np.int64), (n_chunks, self.n_states)
        )
        lanes = None if lens is None else np.argsort(-lens, kind="stable")
        return self._advance(chunks, plane, lens, lanes)

    # ------------------------------------------------------------------
    def run_gathered(
        self,
        input_chunks: np.ndarray,
        chunk_ids: np.ndarray,
        starts: np.ndarray,
        **kwargs,
    ) -> np.ndarray:
        """Run with an explicit thread→chunk assignment: ``chunk_ids[t]``
        selects the row of ``input_chunks`` thread ``t`` processes."""
        gathered, ids = gather_chunks(
            input_chunks, chunk_ids, np.size(starts), backend=self.name
        )
        return self.run_batch(gathered, starts, chunk_ids=ids, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FastBackend(n_states={self.n_states}, n_symbols={self.n_symbols})"
