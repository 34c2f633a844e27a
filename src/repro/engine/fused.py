"""Cross-stream fused batch execution: many streams, one lockstep gather.

The serving tier multiplexes N concurrent streams over one
:class:`~repro.plan.CompiledPlan`, but a per-stream ``feed`` pays N separate
numpy dispatches per segment — partitioning, prediction and recovery rounds
for every stream, however short its segment.  :class:`FusedBatchEngine`
widens the stepping kernel of :class:`~repro.engine.fast.FastBackend`
across *streams*: all segments that share one plan advance in a single
``(streams × positions)`` lockstep batch, one gather per symbol position.
The dispatch only *lays the batch out* — segments padded into one matrix
of their own dtype (uint8 for wire bytes; the kernel makes the single
int64 time-major copy) with rows in **descending segment length**, so the
streams still working at any position are a contiguous prefix and the
kernel steps prefix runs, never a boolean mask.

Semantics contract (pinned by ``tests/engine/test_fused_differential.py``
and the serving property suite): a fused dispatch is *answer-identical* to
feeding every stream sequentially through its own
:class:`~repro.framework.gspecpal.StreamSession` — same end states, same
accepts, for every scheme and both backends, for any segmentation.  No
speculation is performed across the batch, and the serving pool hands it
no ledger, so a stream fed through the fused path reports
``total_cycles = NaN``, exactly like the ``fast`` backend's contract.

The same dispatch is Algorithm 1's *stream-level* parallelism — one lane
per stream, each a sequential scan — which the latency-vs-throughput
benchmark contrasts with GSpecPal's chunk parallelism.  For that it hands
``dispatch`` a ledger: on the cycle-accounting ``sim`` backend the scan is
charged to phase ``stream_parallel_scan``.

With self-checking enabled (the simulator's ``selfcheck`` switch) the
dispatch runs the very same kernel and then hands its answers to
:func:`repro.selfcheck.audit.audit_fused_dispatch`, which re-runs every
stream through the sequential oracle — the audit checks the path that
serves, not a stand-in for it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.automata.dfa import STATE_DTYPE, _as_symbol_array
from repro.engine.base import validate_starts
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
        symbol_rows: List[np.ndarray] = [_as_symbol_array(seg) for seg in segments]
        n_streams = len(symbol_rows)
        starts_arr = np.asarray(list(starts), dtype=np.int64)
        if starts_arr.shape != (n_streams,):
            raise SimulationError(
                f"starts must match the number of streams "
                f"({starts_arr.shape} vs {n_streams} segments)"
            )
        lengths = np.array([row.size for row in symbol_rows], dtype=np.int64)
        # Checked here, not only by the backend: a dispatch with no symbols
        # returns before it reaches one.
        validate_starts(
            starts_arr, n_states=self.dfa.n_states, backend=self.backend_name
        )
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
        # Length-sorted grouping: descending segment length makes the
        # still-working streams a prefix at every position, so the inner
        # loop slices instead of masking.  Stable sort keeps equal-length
        # streams in input order (determinism under audit).
        order = np.argsort(-lengths, kind="stable")
        sorted_lengths = lengths[order]
        # Padded in the segments' own dtype (uint8 for wire bytes: an eighth
        # of int64); the backend widens once, into its time-major layout.
        dtypes = {row.dtype for row in symbol_rows}
        dtype = dtypes.pop() if len(dtypes) == 1 else np.int64
        padded = np.zeros((len(symbol_rows), int(sorted_lengths[0])), dtype=dtype)
        for rank, idx in enumerate(order):
            row = symbol_rows[idx]
            if row.size:
                padded[rank, : row.size] = row

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

        audit_fused_dispatch(self, symbol_rows, starts, result)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FusedBatchEngine(backend={self.backend_name!r}, "
            f"selfcheck={self.sim.selfcheck})"
        )
