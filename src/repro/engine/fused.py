"""Cross-stream fused batch execution: many streams, one lockstep gather.

The serving tier multiplexes N concurrent streams over cached plans, but a
per-stream ``feed`` pays N separate numpy dispatches per segment —
partitioning, prediction and recovery rounds for every stream, however
short its segment.  Fused execution widens the stepping kernel of
:class:`~repro.engine.fast.FastBackend` across *streams*: segments advance
in a single ``(streams × positions)`` lockstep batch, one gather per
symbol position.  A dispatch only *lays the batch out* — segments padded
into one matrix of their own dtype (uint8 for wire bytes; the kernel makes
the single int64 time-major copy) with rows in **descending segment
length**, so the streams still working at any position are a contiguous
prefix and the kernel steps prefix runs, never a boolean mask.

Two objects build that batch:

* :class:`FusedUnion` is the serving pass.  A
  :meth:`~repro.serving.MatcherPool.feed_many` wave steps *every* class
  it fuses in one :meth:`FastBackend.run_streams` pass over the disjoint
  union of their tables: class *i*'s states are offset by the state
  counts of the classes before it and its rows padded to the widest
  alphabet.  No lane reads a padded column, since each segment is held to
  its own class's alphabet; ends come back by subtracting the offset.
  The union steps the submitted tables with the fast kernel whatever the
  pool's backend (the serving path is answer-only on both) and audits each
  class on its own.  The pool builds a union once per class set and keeps
  it (``PoolState.unions``).
* :class:`FusedBatchEngine` is one matcher's streams on its own backend,
  and with a ledger it is Algorithm 1's *stream-level* parallelism — one
  lane per stream, each a sequential scan — which the
  latency-vs-throughput benchmark contrasts with GSpecPal's chunk
  parallelism: ``dispatch(..., stats=)`` charges the scan to phase
  ``stream_parallel_scan`` on the cycle-accounting ``sim`` backend.

Semantics contract (pinned by ``tests/engine/test_fused_differential.py``
and the serving property suite): a fused dispatch is *answer-identical* to
feeding every stream sequentially through its own
:class:`~repro.framework.gspecpal.StreamSession` — same end states, same
accepts, for every scheme and both backends, for any segmentation.  No
speculation is performed across the batch, and a dispatch handed no ledger
reports ``cycles = NaN``, so a stream fed through the fused path reports
``total_cycles = NaN``, exactly like the ``fast`` backend's contract.

With self-checking enabled (the simulator's ``selfcheck`` switch, or the
union's ``selfcheck=``) a dispatch runs the very same kernel and then hands
each class's answers to :func:`repro.selfcheck.audit.audit_fused_dispatch`,
which re-runs every stream through the sequential oracle — the audit
checks the path that serves, not a stand-in for it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.automata.dfa import STATE_DTYPE, _as_symbol_array
from repro.engine.base import validate_starts
from repro.engine.fast import FastBackend
from repro.errors import SimulationError


class FusedDispatchResult:
    """Outcome of one fused cross-stream dispatch.

    Attributes
    ----------
    end_states:
        ``(n_streams,)`` end states, aligned with the dispatch's input
        order.
    n_streams / total_symbols:
        Batch width and total symbols advanced across all streams.
    cycles:
        Total of the ledger the dispatch charged — the batch's latency, as
        every stream finishes with the kernel.  NaN, never zero, when no
        ledger was handed in or the backend does not account cycles.
    """

    __slots__ = ("end_states", "n_streams", "total_symbols", "cycles")

    def __init__(self, end_states, n_streams, total_symbols, cycles):
        self.end_states = end_states
        self.n_streams = n_streams
        self.total_symbols = total_symbols
        self.cycles = cycles


class FusedBatchEngine:
    """Gang-schedule many same-plan streams into one lockstep batch.

    Parameters
    ----------
    sim:
        The shared :class:`~repro.gpu.kernel.GpuSimulator` — supplies the
        DFA, the backend and the ``selfcheck`` switch.  One engine serves
        any number of dispatches; it holds no per-stream state.
    """

    def __init__(self, sim):
        self.sim = sim
        self.dfa = sim.dfa
        self.engine = sim.engine

    @property
    def backend_name(self) -> str:
        return self.engine.name

    # ------------------------------------------------------------------
    def run_streams(self, segments: Sequence, starts: Sequence[int]) -> np.ndarray:
        """Advance every stream through its segment; return the end states.

        ``segments`` may be ragged (any mix of lengths, empty segments
        included); ``starts`` are the streams' carried states.  Equivalent to
        ``[dfa.run(seg, start=s) for seg, s in zip(segments, starts)]`` —
        and therefore to the per-stream sequential serving path — computed
        as one fused batch.
        """
        return self.dispatch(segments, starts).end_states

    def dispatch(
        self, segments: Sequence, starts: Sequence[int], *, stats=None
    ) -> FusedDispatchResult:
        """Like :meth:`run_streams` but returns the full dispatch record.

        ``stats`` is an optional :class:`~repro.gpu.stats.KernelStats`
        ledger (open it with ``sim.new_stats``); a cycle-accounting backend
        charges the scan to it and the result's ``cycles`` is its total.
        """
        symbol_rows, starts_arr = _stream_inputs(segments, starts)
        # Checked here, not only by the backend: a dispatch with no symbols
        # returns before it reaches one.
        validate_starts(
            starts_arr, n_states=self.dfa.n_states, backend=self.backend_name
        )
        n_streams = len(symbol_rows)
        lengths = np.array([row.size for row in symbol_rows], dtype=np.int64)
        if lengths.max(initial=0) == 0:
            # No symbols (or no streams): carried states pass through untouched.
            ends = starts_arr.astype(STATE_DTYPE)
        else:
            ends = self._run_fused(symbol_rows, lengths, starts_arr, stats)
        charged = stats is not None and self.engine.accounts_cycles
        cycles = stats.cycles if charged else float("nan")
        result = FusedDispatchResult(ends, n_streams, int(lengths.sum()), cycles)
        if self.sim.selfcheck:
            self._audit(symbol_rows, starts_arr, result)
        return result

    # ------------------------------------------------------------------
    def _run_fused(self, symbol_rows, lengths, starts, stats) -> np.ndarray:
        """End states of one fused dispatch, in input order."""
        order, sorted_lengths, padded = _lay_out(symbol_rows, lengths)
        # The only backend fork on the fused path: ``fast`` has a
        # sorted-lanes entry that skips run_batch's compress/sort/scatter
        # (and accounts no cycles); ``sim`` has no ``run_streams`` — its
        # lockstep executor handles ragged lengths itself and charges the
        # ledger, if one was handed in.
        run_streams = getattr(self.engine, "run_streams", None)
        if run_streams is not None:
            sorted_ends = run_streams(padded, starts[order], sorted_lengths)
        else:
            sorted_ends = self.engine.run_batch(
                padded,
                starts[order],
                stats=stats,
                phase="stream_parallel_scan",
                lengths=sorted_lengths,
            )
        ends = np.empty(len(symbol_rows), dtype=STATE_DTYPE)
        ends[order] = sorted_ends
        return ends

    def _audit(self, symbol_rows, starts, result) -> None:
        from repro.selfcheck.audit import audit_fused_dispatch

        audit_fused_dispatch(
            self.dfa, symbol_rows, starts, result, backend=self.backend_name
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FusedBatchEngine(backend={self.backend_name!r}, "
            f"selfcheck={self.sim.selfcheck})"
        )


class FusedUnion:
    """Several classes' automata stepped as one: the disjoint union of their
    tables, advanced by one :meth:`FastBackend.run_streams` pass.

    Class *i*'s states are offset by the state counts of the classes before
    it (``offsets[i]``) and its rows padded to the widest alphabet with
    self-loops.  No lane reads a padded column: a segment is held to its own
    class's alphabet before it reaches the kernel.  The union is answer-only
    whatever the classes' backends — it steps the submitted tables with the
    fast kernel and charges no ledger — and keeps one resident table, the
    backend's premultiplied int64 one (the plain table it is built from is
    dropped once the backend holds it).  A union of one is its class's own
    table, so a ``fast`` class's :class:`FastBackend` may be handed in as
    ``backend`` and none is built.
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
        states in that class's own numbering both ways.  With ``selfcheck``
        each class's feeds are audited on their own against ``DFA.run`` (a
        violation names lanes among that class's feeds, in input order)."""
        rows, starts = _stream_inputs(segments, starts)
        classes = np.asarray(list(classes), dtype=np.int64)
        name = self.backend.name
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
                f"[{name}] start states out of their classes' range on lanes "
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
                result = FusedDispatchResult(
                    ends[lanes], lanes.size, int(lengths[lanes].sum()), float("nan")
                )
                class_rows = [rows[j] for j in lanes]
                audit_fused_dispatch(
                    dfa, class_rows, starts[lanes], result, backend=name
                )
        return ends


def _stream_inputs(segments, starts):
    """A dispatch's inputs as ``(symbol rows, int64 starts)``, one per
    stream; the caller checks the starts against its automaton."""
    rows = [_as_symbol_array(seg) for seg in segments]
    starts = np.asarray(list(starts), dtype=np.int64)
    if starts.shape != (len(rows),):
        raise SimulationError(
            f"starts must match the number of streams "
            f"({starts.shape} vs {len(rows)} segments)"
        )
    return rows, starts


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
