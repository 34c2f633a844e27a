"""Cross-stream fused execution: many streams, one lockstep pass.

The serving tier multiplexes N concurrent streams over cached plans, but a
per-stream ``feed`` pays N separate numpy dispatches per segment —
partitioning, prediction and recovery rounds for every stream, however
short its segment.  :class:`FusedBatchEngine` widens the stepping kernel
of :class:`~repro.engine.fast.FastBackend` across *streams*: a
:meth:`~repro.serving.MatcherPool.feed_many` wave steps *every* class it
fuses in one :meth:`FastBackend.run_streams` pass over the disjoint union
of their tables.  Class *i*'s states are offset by the state counts of the
classes before it and its rows padded to the widest alphabet.  No lane
reads a padded column, since each segment is held to its own class's
alphabet; ends come back by subtracting the offset.  The pool builds an
engine once per class set and keeps it (``PoolState.unions``).

A dispatch only *lays the batch out* — segments padded into one matrix of
their own dtype (uint8 for wire bytes; the kernel makes the single int64
time-major copy) with rows in **descending segment length**, so the
streams still working at any position are a contiguous prefix and the
kernel steps prefix runs, never a boolean mask.

Semantics contract (pinned by ``tests/engine/test_fused_differential.py``
and the serving property suite): a fused dispatch is *answer-identical* to
feeding every stream sequentially through its own
:class:`~repro.framework.gspecpal.StreamSession` — same end states, same
accepts, for every scheme and both backends, for any segmentation.  No
speculation is performed across the batch and no ledger is charged, so a
stream fed through the fused path reports ``total_cycles = NaN``, exactly
like the ``fast`` backend's contract.  (Algorithm 1's stream-level
baseline, which *is* charged, is one ledger-charged ``run_batch`` on the
``sim`` backend with phase ``stream_parallel_scan``; it needs no
dispatcher.)

With ``selfcheck=`` a dispatch runs the very same kernel and then hands
each class's answers to :func:`repro.selfcheck.audit.audit_fused_dispatch`,
which re-runs every stream through the sequential oracle — the audit
checks the path that serves, not a stand-in for it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.automata.dfa import STATE_DTYPE, _as_symbol_array
from repro.engine.fast import FastBackend
from repro.errors import SimulationError


class FusedBatchEngine:
    """Several classes' automata stepped as one: the disjoint union of their
    tables, advanced by one :meth:`FastBackend.run_streams` pass.

    Class *i*'s states are offset by the state counts of the classes before
    it (``offsets[i]``) and its rows padded to the widest alphabet with
    self-loops.  No lane reads a padded column: a segment is held to its own
    class's alphabet before it reaches the kernel.  The engine is
    answer-only whatever the classes' backends — it steps the submitted
    tables with the fast kernel and charges no ledger — and keeps one
    resident table, the backend's premultiplied int64 one (the plain table
    it is built from is dropped once the backend holds it).  A union of one
    is its class's own table, so a ``fast`` class's :class:`FastBackend`
    may be handed in as ``backend`` and none is built.
    """

    def __init__(self, dfas: Sequence, backend: Optional[FastBackend] = None):
        self.dfas = tuple(dfas)
        self.sizes = np.array([dfa.n_states for dfa in self.dfas], dtype=np.int64)
        self.alphabets = np.array([dfa.n_symbols for dfa in self.dfas], dtype=np.int64)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        self.backend = backend if backend is not None else FastBackend(self._table())

    def _table(self) -> np.ndarray:
        """The disjoint union of the classes' tables, each class's states
        offset and its rows padded to the widest alphabet with self-loops."""
        shape = (int(self.sizes.sum()), int(self.alphabets.max()))
        table = np.empty(shape, dtype=STATE_DTYPE)
        for dfa, offset in zip(self.dfas, self.offsets):
            block = table[offset : offset + dfa.n_states]
            block[:, : dfa.n_symbols] = dfa.table
            block[:, dfa.n_symbols :] = np.arange(dfa.n_states)[:, None]
            block += offset
        return table

    def dispatch(
        self,
        classes: Sequence[int],
        segments: Sequence[Sequence],
        starts: Sequence[int],
        *,
        selfcheck: bool = False,
    ) -> np.ndarray:
        """End states of one pass over every feed, in input order: feed *j*
        runs ``segments[j]`` from ``starts[j]`` on class ``classes[j]``, its
        states in that class's own numbering both ways.  Segments may be
        ragged (empty ones included).  With ``selfcheck`` each class's feeds
        are audited on their own against ``DFA.run`` (a violation names
        lanes among that class's feeds, in input order)."""
        rows = [_as_symbol_array(seg) for seg in segments]
        starts = np.asarray(list(starts), dtype=np.int64)
        classes = np.asarray(list(classes), dtype=np.int64)
        name = self.backend.name
        if starts.shape != (len(rows),):
            raise SimulationError(
                f"[{name}] starts must match the number of streams "
                f"({starts.shape} vs {len(rows)} segments)"
            )
        if classes.shape != starts.shape or not np.all(
            (classes >= 0) & (classes < len(self.dfas))
        ):
            raise SimulationError(
                f"[{name}] each of {starts.size} feeds needs a class in "
                f"[0, {len(self.dfas)})"
            )
        # Per class: an out-of-range start or symbol could reach another
        # class's rows or the padding.
        bad = (starts < 0) | (starts >= self.sizes[classes])
        if bad.any():
            raise SimulationError(
                f"[{name}] start states out of range of their classes on lanes "
                f"{np.flatnonzero(bad).tolist()}"
            )
        width = self.backend.n_symbols
        for row, m in zip(rows, self.alphabets[classes]):
            if m < width and row.size and int(row.max()) >= m:
                raise SimulationError(
                    f"[{name}] symbols out of range [0, {m}) would read the "
                    "union's padding"
                )
        offsets = self.offsets[classes]
        lengths = np.array([row.size for row in rows], dtype=np.int64)
        order, sorted_lengths, padded = _lay_out(rows, lengths)
        # One pass, even over no symbols (it hands the starts back).
        ends = np.empty(len(rows), dtype=np.int64)
        ends[order] = self.backend.run_streams(
            padded, (starts + offsets)[order], sorted_lengths
        )
        ends = (ends - offsets).astype(STATE_DTYPE)
        if selfcheck:
            from repro.selfcheck.audit import audit_fused_dispatch

            for i, dfa in enumerate(self.dfas):
                lanes = np.flatnonzero(classes == i)
                audit_fused_dispatch(
                    dfa,
                    [rows[j] for j in lanes],
                    starts[lanes],
                    ends[lanes],
                    backend=name,
                )
        return ends


def _lay_out(symbol_rows, lengths):
    """The fused batch layout: ``(order, sorted_lengths, padded)``.

    Length-sorted grouping: descending segment length makes the
    still-working streams a prefix at every position, so the kernel slices
    instead of masking.  The stable sort keeps equal-length streams in input
    order (determinism under audit).  Rows are padded in the segments' own
    dtype (uint8 for wire bytes: an eighth of int64); the backend widens
    once, into its time-major layout.
    """
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    dtypes = {row.dtype for row in symbol_rows}
    dtype = dtypes.pop() if len(dtypes) == 1 else np.int64
    width = int(sorted_lengths[0]) if len(sorted_lengths) else 0
    padded = np.zeros((len(symbol_rows), width), dtype=dtype)
    for rank, idx in enumerate(order):
        row = symbol_rows[idx]
        if row.size:
            padded[rank, : row.size] = row
    return order, sorted_lengths, padded
