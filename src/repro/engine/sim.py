"""The cycle-accurate backend: delegates to the lockstep executor.

``SimBackend`` gives the :class:`~repro.gpu.executor.LockstepExecutor`
(memory model, warp timing and ledger charges) the backend shape
described in :mod:`repro.engine.base`.  Every entry point ends in exactly
one :meth:`~repro.gpu.executor.LockstepExecutor.run` call, which checks the
batch with :func:`~repro.engine.base.validate_batch_inputs`;
``run_gathered`` and ``run_mappings`` first resolve their thread→chunk
binding with :func:`~repro.engine.base.gather_chunks`, the same helper the
fast backend uses.  Ledgers are those of calling the executor directly.

The frequency transformation (paper §IV-B, Fig. 4) is a memory layout of
the simulated device, so it lives here and nowhere above: when the
executor's table is the renumbered one, the backend takes the
:class:`~repro.automata.transform.TransformedDFA` and speaks the submitted
DFA's numbering at its edge.  Starts are range-checked and mapped through
``to_new``, ends mapped back through ``to_old``; the executor itself, and
so its hot check ``state < H`` and every ledger charge, is unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.automata.dfa import STATE_DTYPE
from repro.engine.base import gather_chunks, validate_starts


class SimBackend:
    """Functional execution *plus* full simulated-GPU cycle accounting.

    ``transformed`` is the renumbering the executor's table was built
    with, or ``None`` when the table is the submitted one.
    """

    name = "sim"
    accounts_cycles = True

    def __init__(self, executor, transformed=None):
        #: the wrapped :class:`~repro.gpu.executor.LockstepExecutor`.
        self.executor = executor
        self.transformed = transformed
        if transformed is not None:
            self._to_old = transformed.to_old.astype(STATE_DTYPE)

    def _run(self, chunks, starts, **kwargs) -> np.ndarray:
        """One executor call with ``starts`` and the ends it returns in the
        submitted numbering.  The starts are checked before ``to_new`` reads
        them: ``to_new[-1]`` would pick a valid state."""
        if self.transformed is None:
            return self.executor.run(chunks, starts, **kwargs)
        starts = np.asarray(starts, dtype=np.int64)
        validate_starts(starts, n_states=self._to_old.size, backend=self.name)
        ends = self.executor.run(chunks, self.transformed.to_new[starts], **kwargs)
        return self._to_old[ends]

    def run_batch(self, chunks, starts, **kwargs) -> np.ndarray:
        return self._run(chunks, starts, **kwargs)

    def run_gathered(self, input_chunks, chunk_ids, starts, **kwargs) -> np.ndarray:
        """Run with an explicit thread→chunk assignment: ``chunk_ids[t]``
        selects the row of ``input_chunks`` thread ``t`` processes."""
        gathered, ids = gather_chunks(
            input_chunks, chunk_ids, np.size(starts), backend=self.name
        )
        return self._run(gathered, starts, chunk_ids=ids, **kwargs)

    def run_mappings(
        self,
        chunks,
        *,
        lengths=None,
        stats=None,
        phase: str = "execution",
        chunk_ids=None,
    ) -> np.ndarray:
        """Full state→state mapping of every chunk (the SFA construction).

        Tiles the ``(chunks × states)`` plane onto the lockstep executor —
        ``n_states`` lanes per chunk, one per start state, sharing the
        chunk's input fetch (the executor coalesces lanes with equal
        ``chunk_ids``) — so the ledger honestly charges the S× lane
        pressure SFA's mapping construction puts on the device.  Lane ``j``
        of a chunk starts from table state ``j``: under the transformation,
        the ``j``-th hottest state, whose column the result scatters back
        to.  Returns the same ``(n_chunks, n_states)`` matrix as the fast
        backend.
        """
        n_chunks = len(chunks)
        n_states = int(self.executor.table.shape[0])
        ids = np.repeat(np.arange(n_chunks, dtype=np.int64), n_states)
        gathered, ids = gather_chunks(chunks, ids, ids.size, backend=self.name)
        if lengths is not None:
            lengths = np.repeat(np.asarray(lengths, dtype=np.int64), n_states)
        ends = self.executor.run(
            gathered,
            np.tile(np.arange(n_states, dtype=np.int64), n_chunks),
            stats=stats,
            phase=phase,
            lengths=lengths,
            chunk_ids=ids,
        ).reshape(n_chunks, n_states)
        if self.transformed is None:
            return ends
        mappings = np.empty_like(ends)
        mappings[:, self.transformed.to_old] = self._to_old[ends]
        return mappings

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimBackend({self.executor!r})"
