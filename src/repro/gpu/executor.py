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
  ``(positions × working lanes)`` trace and the transition gather itself —
  on flat indices, ``flat[s * m + a]`` into ``table.ravel()`` (a view of
  the executor's own table, no copy) with the block's symbols transposed
  to int64 once, which numpy gathers faster than the 2-D ``table[s, a]``;
  a working lane past its ragged length is fed symbol 0 (one masked
  multiply per block, outside the loop) and its end state is read back
  from the trace at the position where it stopped;
* the **cost pass** derives everything the ledger needs — hot/cold
  placement, per-warp cold counts (one ``reduceat`` over the working
  lanes' warp groups, then scattered into the per-warp arrays), memory,
  fetch and compute charges, transitions, warp steps and their
  divergence — from that trace with whole-array operations, Ko et al.'s
  split of a SIMD automaton step into "gather in the loop, bookkeeping on
  vectors afterwards".  The :class:`~repro.gpu.stats.KernelStats` ledger
  is the one destination of that bookkeeping.

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


class LockstepExecutor:
    """Executes chunk batches on the simulated device with cycle accounting.

    Parameters
    ----------
    table:
        ``(n_states, n_symbols)`` dense transition table, its rows in
        hotness order so the cached rows are the ids ``< H``
        (:class:`~repro.engine.sim.SimBackend` builds it, for either
        layout).
    memory:
        The :class:`MemoryModel`: the hot count ``H`` and the layout's
        per-step check cost.
    device:
        The simulated GPU.
    """

    def __init__(self, table: np.ndarray, memory: MemoryModel, device: DeviceSpec):
        self.table = np.ascontiguousarray(np.asarray(table, dtype=STATE_DTYPE))
        if self.table.ndim != 2:
            raise SimulationError("transition table must be 2-D")
        self.memory = memory
        self.device = device

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
        n_states, n_symbols = self.table.shape
        chunks, starts, lens, active_mask, count_redundant, chunk_ids = (
            validate_batch_inputs(
                chunks,
                starts,
                n_states=n_states,
                n_symbols=n_symbols,
                lengths=lengths,
                active=active,
                count_redundant=count_redundant,
                chunk_ids=chunk_ids,
                backend="sim",
            )
        )
        n_threads, chunk_len = chunks.shape
        states = starts.astype(STATE_DTYPE)
        if active_mask is None:
            active_mask = np.ones(n_threads, dtype=bool)
        if lens is None:
            lens = np.full(n_threads, chunk_len, dtype=np.int64)

        if chunk_len == 0 or not active_mask.any():
            return states

        device = self.device
        ws = device.warp_size
        n_warps = -(-n_threads // ws)

        # Input-fetch coalescing: constant per step for a fixed assignment.
        lane_chunk = np.full(n_warps * ws, -1, dtype=np.int64)
        if chunk_ids is None:
            lane_chunk[:n_threads][active_mask] = np.flatnonzero(active_mask)
        else:
            lane_chunk[:n_threads][active_mask] = chunk_ids[active_mask]
        distinct = distinct_chunks_per_warp(lane_chunk, n_warps, ws)
        per_warp_fetch = np.where(
            distinct > 0,
            device.input_fetch_cycles
            + np.maximum(distinct - 1, 0) * device.input_issue_cycles,
            0.0,
        )

        # Lane l works at positions [0, steps[l]); inactive lanes never do.
        # Only the working lanes are stepped, in index order, so each warp's
        # working lanes form one contiguous group.  Positions past the
        # longest lane are not run.
        steps = np.where(active_mask, lens, 0)
        max_len = int(steps.max())
        work = np.flatnonzero(steps)
        work_steps = steps[work]
        masked = bool((work_steps != max_len).any())
        steps32 = work_steps.astype(np.int32)  # a narrower compare for ``working``
        dense = work.size == n_threads
        warp_of = work // ws
        group_starts = np.flatnonzero(np.diff(warp_of, prepend=-1))
        group_warps = warp_of[group_starts]
        group_sizes = np.diff(np.append(group_starts, work.size))

        # Flat view of the table: state s on symbol a is flat[s * m + a].
        flat = self.table.ravel()
        m = np.int64(n_symbols)
        group_cold_steps = np.zeros(group_starts.size, dtype=np.int64)
        group_cold_lanes = np.zeros(group_starts.size, dtype=np.int64)
        divergent_warp_steps = 0

        # A working lane that has stopped (ragged length) reads symbol 0,
        # so the gather stays inside the table whatever those positions of
        # ``chunks`` hold; its end state is read back from the trace at the
        # position where it stopped, and the cost pass masks it out.
        lane_states = states[work]
        ends = lane_states.copy()

        def per_group(mask):
            """``(positions × groups)`` count of set lanes in each group."""
            return np.add.reduceat(
                mask.view(np.int8), group_starts, axis=1, dtype=np.int64
            )

        block = max(1, TRACE_BLOCK_ELEMENTS // max(work.size, 1))
        trace = np.empty((min(block, max_len), work.size), dtype=STATE_DTYPE)
        for lo in range(0, max_len, block):
            hi = min(lo + block, max_len)
            pre = trace[: hi - lo]  # pre[j]: lane states before position lo + j
            symbols = chunks[:, lo:hi] if dense else chunks[work, lo:hi]
            if masked:
                working = np.arange(lo, hi, dtype=np.int32)[:, None] < steps32
                cols = np.empty(pre.shape, dtype=np.int64)
                np.multiply(symbols.T, working, out=cols)
            else:
                cols = np.ascontiguousarray(symbols.T, dtype=np.int64)

            # --- trajectory pass: store, gather -------------------------
            # One flat index per lane and step, s * m + a, in int64 (an
            # intp array the gather takes as is, on any table size).
            for j in range(hi - lo):
                pre[j] = lane_states
                lane_states = flat[lane_states * m + cols[j]]
            if masked:
                stopped = np.flatnonzero((work_steps >= lo) & (work_steps < hi))
                ends[stopped] = pre[work_steps[stopped] - lo, stopped]

            # --- cost pass: whole-block accounting ----------------------
            # Warp memory cost: divergent global loads serialize into
            # transactions — the first pays the full latency, each extra
            # cold lane adds an issue slot; an all-hot warp pays the shared
            # latency only.  Per warp that needs two counts.
            cold = ~self.memory.hot_mask(pre)
            if masked:
                cold &= working
            warp_cold = per_group(cold)
            group_cold_steps += np.count_nonzero(warp_cold, axis=0)
            group_cold_lanes += warp_cold.sum(axis=0)
            # Memory divergence: a warp step mixing hot and cold lanes
            # serializes transactions — the effect the paper's
            # transformation shrinks.
            warp_working = per_group(working) if masked else group_sizes
            divergent_warp_steps += int(
                np.count_nonzero((warp_cold > 0) & (warp_cold < warp_working))
            )
        states[work] = np.where(work_steps == max_len, lane_states, ends)
        # Warps without a working lane add nothing to any term.
        cold_steps = np.zeros(n_warps, dtype=np.int64)  # positions with a cold lane
        cold_lanes = np.zeros(n_warps, dtype=np.int64)  # cold lookups, all positions
        cold_steps[group_warps] = group_cold_steps
        cold_lanes[group_warps] = group_cold_lanes

        # A warp steps while any of its lanes works, i.e. for as many
        # positions as its longest lane.
        active_steps = np.maximum.reduceat(steps, np.arange(0, n_threads, ws))
        total_transitions = int(steps.sum())
        global_hits = int(cold_lanes.sum())
        shared_hits = total_transitions - global_hits
        redundant = 0
        if count_redundant is not None:
            redundant = int(steps[count_redundant].sum())

        if stats is not None:
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
