"""The cycle-accurate backend: delegates to the lockstep executor.

``SimBackend`` gives the :class:`~repro.gpu.executor.LockstepExecutor`
(memory model, warp timing and ledger charges) the backend shape
described in :mod:`repro.engine.base`.  Every entry point ends in exactly
one :meth:`~repro.gpu.executor.LockstepExecutor.run` call, which checks the
batch with :func:`~repro.engine.base.validate_batch_inputs`;
``run_gathered`` and ``run_mappings`` first resolve their thread→chunk
binding with :func:`~repro.engine.base.gather_chunks`, the same helper the
fast backend uses.  Ledgers are those of calling the executor directly.

The table layout (paper §IV-B, Fig. 4) is a memory layout of the simulated
device, so it is derived here and nowhere else.  The executor steps one
table for both layouts: the submitted table with its rows in the profile's
hotness order, hottest first, and its states renumbered to match, so the
``H`` cached rows are exactly the states ``< H``; the executor holds it
premultiplied by the alphabet size, built in the gather that ranks the
rows, and no plain copy is kept.  The layouts differ only
in the per-step cost :class:`~repro.gpu.memory.MemoryModel` charges for
that check: a register compare under RANK (the transformation), PM's hash
probe under HASH.  Without a profile the order is the identity, and the
lowest ids are hot.  The backend speaks the submitted DFA's numbering at
its edge: starts are mapped to their rank (a start outside the automaton
maps to -1, which the executor's one range check names), ends are mapped
back through the hotness order.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.automata.dfa import STATE_DTYPE
from repro.engine.base import gather_chunks


class SimBackend:
    """Functional execution *plus* full simulated-GPU cycle accounting.

    Parameters
    ----------
    dfa:
        The submitted automaton; every state in and out is one of its ids.
    device:
        The simulated GPU; its shared memory sizes the hot set
        (:meth:`~repro.gpu.memory.MemoryModel.for_dfa`).
    profile:
        The :class:`~repro.automata.properties.StateFrequencyProfile` whose
        order ranks the table's rows, or ``None`` for the identity order.
        It must fit ``dfa`` (:class:`~repro.gpu.kernel.GpuSimulator` checks
        that once, on either backend).
    use_transformation:
        The RANK layout (the paper's ``state < H`` check) if true, PM's
        HASH layout otherwise.
    """

    name = "sim"
    accounts_cycles = True

    def __init__(self, dfa, device, profile, use_transformation):
        # Imported here: the gpu package's facade imports this module.
        from repro.gpu.executor import LockstepExecutor, premultiplied_dtype
        from repro.gpu.memory import MemoryModel, TableLayout

        if profile is None:
            order = rank = np.arange(dfa.n_states)
        else:
            order, rank = profile.order, profile.rank_of()
        #: ``order[r]`` is the submitted state at table row ``r``, hottest
        #: first; ``_rank`` is its inverse.
        self.order = order.astype(STATE_DTYPE)
        self._rank = rank.astype(STATE_DTYPE)
        layout = TableLayout.RANK if use_transformation else TableLayout.HASH
        #: the hot count and the per-step cost of the layout's hot check.
        self.memory = replace(
            MemoryModel.for_dfa(device, dfa.n_states, dfa.n_symbols), layout=layout
        )
        #: the wrapped :class:`~repro.gpu.executor.LockstepExecutor`, on
        #: the rank-ordered table premultiplied by the alphabet size, built
        #: in the one gather that ranks the rows.
        n, m = dfa.n_states, dfa.n_symbols
        scaled_rank = np.multiply(self._rank, m, dtype=premultiplied_dtype(n, m))
        self.executor = LockstepExecutor.premultiplied(
            scaled_rank[dfa.table[self.order]], self.memory, device
        )
        # ``_start_rank[n + s]`` is state s's rank for s in [0, n) and -1
        # around it, so a start outside [0, n), clipped into the array,
        # maps to -1 and fails the executor's one range check on its lane
        # (``_rank[-1]`` would have picked a valid state).
        self._start_rank = np.full(2 * n + 1, -1, dtype=STATE_DTYPE)
        self._start_rank[n : 2 * n] = self._rank
        # ``run_mappings`` lane ``j`` of a chunk starts from submitted state
        # ``_lanes[j]``: the ``j``-th hottest under RANK, state ``j`` under
        # HASH, whose device table keeps the submitted order.  Which starts
        # share a warp sets the mapping's hot/cold divergence charge.
        identity = np.arange(dfa.n_states, dtype=STATE_DTYPE)
        self._lanes = self.order if use_transformation else identity

    def _run(self, chunks, starts, **kwargs) -> np.ndarray:
        """One executor call with ``starts`` and the ends it returns in the
        submitted numbering; the executor range-checks the starts."""
        starts = np.asarray(starts, dtype=np.int64) + self.order.size
        ranks = self._start_rank.take(starts, mode="clip")
        return self.order[self.executor.run(chunks, ranks, **kwargs)]

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
        pressure SFA's mapping construction puts on the device.  Returns
        the same ``(n_chunks, n_states)`` matrix as the fast backend.
        """
        n_chunks, n_states = len(chunks), self.order.size
        ids = np.repeat(np.arange(n_chunks, dtype=np.int64), n_states)
        gathered, ids = gather_chunks(chunks, ids, ids.size, backend=self.name)
        if lengths is not None:
            lengths = np.repeat(np.asarray(lengths, dtype=np.int64), n_states)
        ends = self.executor.run(
            gathered,
            np.tile(self._rank[self._lanes], n_chunks),
            stats=stats,
            phase=phase,
            lengths=lengths,
            chunk_ids=ids,
        ).reshape(n_chunks, n_states)
        mappings = np.empty_like(ends)
        mappings[:, self._lanes] = self.order[ends]
        return mappings

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimBackend({self.executor!r})"
