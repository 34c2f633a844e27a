"""The vectorized lockstep executor.

This is the simulated GPU's compute engine: it advances the simulated
threads through their chunks one symbol position at a time, exactly like a
warp executes ``state = table[state][symbol]`` in lockstep, and charges each
warp the latency of its slowest lane (memory divergence) while counting
shared/global accesses — so a single call yields both the functional result
(end states) and the cost-model result (cycles into a
:class:`~repro.gpu.stats.KernelStats`).

Design notes (per the HPC guides).  Only the **working lanes** — active,
with a non-zero length — are stepped; an RR/NF recovery batch has ~100 of
its 256 lanes at work, and the idle ones cost the host nothing (they keep
their start state).  The working lanes stay in index order, so each warp's
working lanes form one contiguous group.  A batch is processed in two
passes:

* the **trajectory pass** is the only python loop over symbol positions,
  and its body holds nothing but the store of the pre-step states into a
  ``(positions × working lanes)`` trace and one add and one gather,
  ``x = flat[x + a]``: the executor's one resident table is the
  rank-ordered table *premultiplied* by the alphabet size ``m``
  (``flat[s·m + a] = table[s, a]·m``, in the int32 or int64 that
  :func:`premultiplied_dtype` picks from its shape), so lane states are
  carried premultiplied, ``x = s·m``, no step multiplies, and the ends
  are divided by ``m`` once — as :class:`~repro.engine.fast.FastBackend`
  steps.  The block's symbols are transposed to int64 once, so the index
  is an intp array the gather takes as is.  A working lane past its
  ragged length is fed symbol 0 (one masked multiply per block, outside
  the loop) and its end is read back from the scaled trace at the
  position where it stopped;
* the **cost pass** derives everything the ledger needs — hot/cold
  placement (``s < H``, read off the scaled trace as ``x < H·m``),
  per-warp cold counts (one ``reduceat`` over the working lanes' warp
  groups, then scattered into the per-warp arrays), memory, fetch and
  compute charges, transitions, warp steps and their divergence — from
  that trace with whole-array operations, Ko et al.'s split of a SIMD
  automaton step into "gather in the loop, bookkeeping on vectors
  afterwards".  The :class:`~repro.gpu.stats.KernelStats` ledger is the
  one destination of that bookkeeping; a run without one skips the pass.

Regrouping by working lane is exact: a lane that does not work contributes
no cold lookup, no cold step and no divergence, so a warp with no working
lane adds 0 to every term, and a warp's counts over its working lanes are
its counts over all its lanes.  The warp-level quantities — the per-warp
cycle sums, ``concurrency_factor(n_warps)`` and the input-fetch
coalescing's distinct chunks per warp — are still taken over the batch's
full width, from the same integer counts, so the cycles charged are those
of a full-width pass bit for bit (by the dyadic-constant argument below).

The two passes alternate over **position blocks** of at most
:data:`TRACE_BLOCK_ELEMENTS` trace elements, so a 65 536-lane SFA mapping
batch keeps the resident set where a 256-lane batch does; every buffer is
local to the call (one executor serves many streams on different pool
threads).

Why the cost pass may sum in any order: every cycle constant of
:class:`~repro.gpu.device.DeviceSpec` is an integer or 0.25, so each
per-warp total is a multiple of 0.25 far below 2**53 and float64 adds,
multiplies and re-associates it exactly — per-warp ``count × constant``
products equal the position-by-position running sums bit for bit.  A preset
with a cycle constant that is *not* a dyadic fraction (say 0.1) would lose
that: it has to express the constant in integer units (cycles × 10) or
accept that ledgers are reproducible only up to float rounding.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.automata.dfa import STATE_DTYPE
from repro.engine.base import validate_batch_inputs
from repro.gpu.device import DeviceSpec
from repro.gpu.memory import MemoryModel
from repro.gpu.stats import KernelStats
from repro.errors import SimulationError

#: Most ``positions × lanes`` elements one trace block may hold; the cost
#: pass's temporaries scale with it, so this bounds the executor's working
#: memory independently of how wide or long a batch is.
TRACE_BLOCK_ELEMENTS = 1 << 16


def distinct_chunks_per_warp(
    lane_chunk: np.ndarray, n_warps: int, warp_size: int
) -> np.ndarray:
    """Count distinct non-negative chunk ids within each warp's lanes.

    One row-wise sort of the ``(n_warps, warp_size)`` lane matrix followed
    by a segmented adjacent-difference count, instead of a python loop
    running ``np.unique`` per warp — the input-fetch coalescing setup this
    feeds runs once per batch and the loop dominated it on wide launches.
    """
    lanes = np.asarray(lane_chunk, dtype=np.int64).reshape(n_warps, warp_size)
    ordered = np.sort(lanes, axis=1)  # invalid (-1) lanes sort to the front
    valid = ordered >= 0
    # A lane starts a new run when it is valid and differs from its left
    # neighbour; -1 neighbours differ from any valid id by construction.
    new_run = np.empty_like(valid)
    new_run[:, 0] = valid[:, 0]
    new_run[:, 1:] = valid[:, 1:] & (ordered[:, 1:] != ordered[:, :-1])
    return new_run.sum(axis=1, dtype=np.int64)


def premultiplied_dtype(n_states: int, n_symbols: int) -> np.dtype:
    """The dtype of a premultiplied ``(n_states, n_symbols)`` table.

    A step gathers at a premultiplied state plus a symbol, ``s·m + a``,
    which reaches ``n_states · n_symbols − 1``: int32 holds that for any
    table of up to 2³¹ entries, and only a larger one takes int64.  The
    rule reads the shape alone, so it needs no table.
    """
    if n_states * n_symbols - 1 <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


class LockstepExecutor:
    """Executes chunk batches on the simulated device with cycle accounting.

    Parameters
    ----------
    table:
        ``(n_states, n_symbols)`` dense transition table, its rows in
        hotness order so the cached rows are the ids ``< H``.  The
        executor keeps only its premultiplied form
        (:meth:`premultiplied`).
    memory:
        The :class:`MemoryModel`: the hot count ``H`` and the layout's
        per-step check cost.
    device:
        The simulated GPU.
    """

    def __init__(self, table: np.ndarray, memory: MemoryModel, device: DeviceSpec):
        table = np.asarray(table)
        if table.ndim != 2:
            raise SimulationError("transition table must be 2-D")
        dtype = premultiplied_dtype(*table.shape)
        self._adopt(np.multiply(table, table.shape[1], dtype=dtype), memory, device)

    @classmethod
    def premultiplied(
        cls, pre: np.ndarray, memory: MemoryModel, device: DeviceSpec
    ) -> "LockstepExecutor":
        """An executor stepping ``pre`` as it is: ``pre[s, a]`` holds
        ``table[s, a] · n_symbols`` in the :func:`premultiplied_dtype` of
        its shape.  :class:`~repro.engine.sim.SimBackend` builds it in the
        gather that ranks the rows, so no plain copy is ever made."""
        executor = cls.__new__(cls)
        executor._adopt(np.asarray(pre), memory, device)
        return executor

    def _adopt(self, pre: np.ndarray, memory: MemoryModel, device: DeviceSpec) -> None:
        if pre.ndim != 2:
            raise SimulationError("transition table must be 2-D")
        if pre.dtype != premultiplied_dtype(*pre.shape):
            raise SimulationError(
                f"a premultiplied {pre.shape} table must be "
                f"{premultiplied_dtype(*pre.shape)}, got {pre.dtype}"
            )
        #: the only resident table: ``_pre[s, a] = table[s, a] · n_symbols``.
        self._pre = np.ascontiguousarray(pre)
        self.memory = memory
        self.device = device

    @property
    def table(self) -> np.ndarray:
        """The plain ``(n_states, n_symbols)`` table, derived from the
        premultiplied one on each read; no run reads it."""
        return (self._pre // max(self._pre.shape[1], 1)).astype(STATE_DTYPE)

    # ------------------------------------------------------------------
    def run(
        self,
        chunks: np.ndarray,
        starts: np.ndarray,
        *,
        stats: Optional[KernelStats] = None,
        phase: str = "execution",
        lengths: Optional[np.ndarray] = None,
        active: Optional[np.ndarray] = None,
        count_redundant: Optional[np.ndarray] = None,
        chunk_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run one lockstep batch and charge its cost.

        The batch is first checked by
        :func:`~repro.engine.base.validate_batch_inputs`; a malformed one
        raises :class:`~repro.errors.SimulationError`.

        Parameters
        ----------
        chunks:
            ``(n_threads, chunk_len)`` symbol matrix.
        starts:
            ``(n_threads,)`` start states.
        stats:
            Ledger to charge; pass ``None`` for a pure functional run.
        phase:
            Ledger bucket name.
        lengths:
            Optional per-thread effective lengths (ragged tail chunk).
        active:
            Optional boolean mask; inactive lanes do no work, keep their
            start state, and cost nothing — but they do *not* shorten their
            warp (idle lanes are the utilization loss the paper targets).
        count_redundant:
            Optional boolean mask; transitions executed by these lanes are
            additionally counted as redundant work.
        chunk_ids:
            Optional per-lane chunk assignment used for the input-fetch
            coalescing model: lanes of one warp reading the *same* chunk
            share one stream fetch per step, so a warp pays
            ``input_fetch_cycles × (#distinct chunks among its active
            lanes)``.  Defaults to every lane reading its own chunk.

        Returns
        -------
        ``(n_threads,)`` end states (inactive lanes return their start).
        """
        pre_table = self._pre
        n_states, m = pre_table.shape
        chunks, starts, lens, active, count_redundant, chunk_ids = (
            validate_batch_inputs(
                chunks,
                starts,
                n_states=n_states,
                n_symbols=m,
                lengths=lengths,
                active=active,
                count_redundant=count_redundant,
                chunk_ids=chunk_ids,
                backend="sim",
            )
        )
        n_threads, chunk_len = chunks.shape
        states = starts.astype(STATE_DTYPE)
        if chunk_len == 0 or (active is not None and not active.any()):
            return states

        # Lane l works at positions [0, steps[l]); inactive lanes never do.
        # Only the working lanes are stepped, in index order, so each warp's
        # working lanes form one contiguous group.  Positions past the
        # longest lane are not run.
        if lens is None:
            lens = np.full(n_threads, chunk_len, dtype=np.int64)
        steps = lens if active is None else np.where(active, lens, 0)
        max_len = int(steps.max())
        work = np.flatnonzero(steps)
        work_steps = steps[work]
        masked = bool(work_steps.min(initial=max_len) != max_len)
        dense = work.size == n_threads

        # The trajectory pass carries lane states premultiplied, x = s·m,
        # so a step is one add and one gather, x = flat[x + a]; the trace
        # holds them premultiplied too, and the ends are divided by m once.
        # A working lane that has stopped (ragged length) reads symbol 0,
        # so the gather stays inside the table whatever those positions of
        # ``chunks`` hold; its end is read back from the scaled trace at
        # the position where it stopped, and the cost pass masks it out.
        flat = pre_table.ravel()
        x = np.multiply(states[work], m, dtype=flat.dtype)
        if masked:
            ends = x.copy()
            steps32 = work_steps.astype(np.int32)  # a narrower compare
        if stats is not None:
            # Hotness on the scaled trace: s < H  <=>  s·m < H·m.
            hot_limit = self.memory.hot_state_count * m
            ws = self.device.warp_size
            n_warps = -(-n_threads // ws)
            # Each warp with a working lane is one group of the trace's
            # columns: its size and its first column.
            lanes_per_warp = np.bincount(work // ws, minlength=n_warps)
            group_warps = np.flatnonzero(lanes_per_warp)
            group_sizes = lanes_per_warp[group_warps]
            group_starts = np.cumsum(group_sizes) - group_sizes
            group_cold_steps = np.zeros(group_warps.size, dtype=np.int64)
            group_cold_lanes = np.zeros(group_warps.size, dtype=np.int64)
            divergent_warp_steps = 0

        block = max(1, TRACE_BLOCK_ELEMENTS // max(work.size, 1))
        trace = np.empty((min(block, max_len), work.size), dtype=flat.dtype)
        for lo in range(0, max_len, block):
            hi = min(lo + block, max_len)
            pre = trace[: hi - lo]  # pre[j]: lane states before position lo + j
            symbols = chunks[:, lo:hi] if dense else chunks[work, lo:hi]
            cols = np.empty(pre.shape, dtype=np.int64)
            if masked:
                working = np.arange(lo, hi, dtype=np.int32)[:, None] < steps32
                np.multiply(symbols.T, working, out=cols)
            else:
                cols[...] = symbols.T

            # --- trajectory pass: store, gather -------------------------
            for row, col in zip(pre, cols):
                row[...] = x
                x = flat[x + col]
            if masked:
                stopped = np.flatnonzero((work_steps >= lo) & (work_steps < hi))
                ends[stopped] = pre[work_steps[stopped] - lo, stopped]
            if stats is None:
                continue

            # --- cost pass: whole-block accounting ----------------------
            # Warp memory cost: divergent global loads serialize into
            # transactions — the first pays the full latency, each extra
            # cold lane adds an issue slot; an all-hot warp pays the shared
            # latency only.  Per warp that needs two counts.
            cold = pre >= hot_limit
            if masked:
                cold &= working
            warp_cold = np.add.reduceat(
                cold.view(np.int8), group_starts, axis=1, dtype=np.int32
            )
            any_cold = warp_cold > 0
            group_cold_steps += any_cold.sum(axis=0)
            group_cold_lanes += warp_cold.sum(axis=0)
            # Memory divergence: a warp step mixing hot and cold lanes
            # serializes transactions — the effect the paper's
            # transformation shrinks.
            warp_working = (
                np.add.reduceat(
                    working.view(np.int8), group_starts, axis=1, dtype=np.int32
                )
                if masked
                else group_sizes
            )
            divergent_warp_steps += int(
                np.count_nonzero(any_cold & (warp_cold < warp_working))
            )
        if masked:
            x = np.where(work_steps == max_len, x, ends)
        states[work] = x // m
        if stats is None:
            return states

        device = self.device
        # Warps without a working lane add nothing to any term.
        cold_steps = np.zeros(n_warps, dtype=np.int64)  # positions with a cold lane
        cold_lanes = np.zeros(n_warps, dtype=np.int64)  # cold lookups, all positions
        cold_steps[group_warps] = group_cold_steps
        cold_lanes[group_warps] = group_cold_lanes

        # Input-fetch coalescing: constant per step for a fixed assignment.
        warp_starts = np.arange(0, n_threads, ws)
        lane_chunk = np.arange(n_threads) if chunk_ids is None else chunk_ids
        if active is not None:
            lane_chunk = np.where(active, lane_chunk, -1)
        padded = np.full(n_warps * ws, -1, dtype=np.int64)
        padded[:n_threads] = lane_chunk
        distinct = distinct_chunks_per_warp(padded, n_warps, ws)
        per_warp_fetch = np.where(
            distinct > 0,
            device.input_fetch_cycles
            + np.maximum(distinct - 1, 0) * device.input_issue_cycles,
            0.0,
        )

        # A warp steps while any of its lanes works, i.e. for as many
        # positions as its longest lane.
        active_steps = np.maximum.reduceat(steps, warp_starts)
        total_transitions = int(steps.sum())
        global_hits = int(cold_lanes.sum())
        shared_hits = total_transitions - global_hits
        redundant = 0
        if count_redundant is not None:
            redundant = int(steps[count_redundant].sum())

        per_warp_cycles = (
            float(device.global_cycles) * cold_steps
            + float(device.global_issue_cycles) * (cold_lanes - cold_steps)
            + float(device.shared_cycles) * (active_steps - cold_steps)
            + (
                device.transition_compute_cycles
                + self.memory.per_step_overhead_cycles
                + per_warp_fetch
            )
            * active_steps
        )
        factor = device.concurrency_factor(n_warps)
        if factor == 1.0:
            phase_cycles = float(per_warp_cycles.max())
        else:
            phase_cycles = float(per_warp_cycles.sum() / device.max_concurrent_warps)
        stats.charge(phase, phase_cycles)
        stats.transitions += total_transitions
        stats.redundant_transitions += redundant
        stats.shared_accesses += shared_hits
        stats.global_accesses += global_hits
        stats.warp_steps += int(active_steps.sum())
        stats.divergent_warp_steps += divergent_warp_steps
        return states
