"""The two-pass executor against the per-position accounting loop it replaced.

``reference_run`` is the former body of ``LockstepExecutor.run``: it keeps
the ledger *while* stepping, one symbol position at a time, and tests
hotness against an explicit set of cached state ids on whatever table it
is given.  It stays here as the oracle — the executor's cost pass must
reproduce its end states, its ledger (``phase_cycles`` exactly: every cycle
constant is an integer or 0.25, so float64 sums do not depend on their
order), its warp steps and their divergence included.
``tests/engine/test_sim_renumbering.py`` holds the sim backend's
rank-ordered table to the same oracle on the submitted table.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import STATE_DTYPE
from repro.gpu import executor as executor_module
from repro.gpu.device import RTX3090, DeviceSpec
from repro.gpu.executor import LockstepExecutor, distinct_chunks_per_warp
from repro.gpu.memory import MemoryModel, TableLayout
from repro.gpu.stats import KernelStats

# Few resident warps, so wide cases exercise the serialized (sum / residency)
# branch of the phase charge as well as the max-over-warps one.
DEV = DeviceSpec(warp_size=4, n_sms=2, max_resident_warps_per_sm=2)


def reference_run(
    table,
    hot_ids,
    overhead,
    device,
    chunks,
    starts,
    *,
    stats=None,
    phase="execution",
    lengths=None,
    active=None,
    count_redundant=None,
    chunk_ids=None,
):
    """Per-position lockstep loop with in-loop accounting (the oracle).

    A lookup from a state in ``hot_ids`` hits shared memory; every
    transition also pays the layout's ``overhead`` cycles."""
    hot_ids = np.asarray(hot_ids, dtype=np.int64)
    chunks = np.ascontiguousarray(chunks)
    n_threads, chunk_len = chunks.shape
    states = np.asarray(starts, dtype=STATE_DTYPE).copy()
    active_mask = (
        np.ones(n_threads, dtype=bool)
        if active is None
        else np.asarray(active, dtype=bool).copy()
    )
    lens = (
        np.full(n_threads, chunk_len, dtype=np.int64)
        if lengths is None
        else np.asarray(lengths, dtype=np.int64)
    )
    if chunk_len == 0 or not active_mask.any():
        return states

    ws = device.warp_size
    n_warps = -(-n_threads // ws)
    per_warp_cycles = np.zeros(n_warps, dtype=np.float64)

    lane_chunk = np.full(n_warps * ws, -1, dtype=np.int64)
    if chunk_ids is None:
        lane_chunk[:n_threads][active_mask] = np.flatnonzero(active_mask)
    else:
        cid = np.asarray(chunk_ids, dtype=np.int64)
        lane_chunk[:n_threads][active_mask] = cid[active_mask]
    distinct = distinct_chunks_per_warp(lane_chunk, n_warps, ws)
    per_warp_fetch = np.where(
        distinct > 0,
        device.input_fetch_cycles
        + np.maximum(distinct - 1, 0) * device.input_issue_cycles,
        0.0,
    )
    shared_hits = global_hits = total_transitions = redundant = 0
    compute = device.transition_compute_cycles
    lane_working = np.zeros(n_warps * ws, dtype=bool)
    lane_cold = np.zeros(n_warps * ws, dtype=bool)
    g0 = float(device.global_cycles)
    gi = float(device.global_issue_cycles)
    sh = float(device.shared_cycles)
    divergent_warp_steps = warp_steps = 0

    for j in range(chunk_len):
        working = active_mask & (j < lens)
        n_working = int(np.count_nonzero(working))
        if n_working == 0:
            break
        hot = np.isin(states, hot_ids) & working
        cold = working & ~hot
        n_hot = int(np.count_nonzero(hot))
        shared_hits += n_hot
        global_hits += n_working - n_hot
        total_transitions += n_working
        if count_redundant is not None:
            redundant += int(np.count_nonzero(working & count_redundant))

        lane_working[:n_threads] = working
        lane_cold[:n_threads] = cold
        warp_active = lane_working.reshape(n_warps, ws).any(axis=1)
        warp_cold = lane_cold.reshape(n_warps, ws).sum(axis=1)
        mem_cost = np.where(
            warp_cold > 0,
            g0 + np.maximum(0, warp_cold - 1) * gi,
            np.where(warp_active, sh, 0.0),
        )
        per_warp_cycles += mem_cost
        per_warp_cycles += np.where(
            warp_active, compute + overhead + per_warp_fetch, 0.0
        )
        warp_hot_any = (lane_working & ~lane_cold).reshape(n_warps, ws).any(axis=1)
        divergent_warp_steps += int(np.count_nonzero((warp_cold > 0) & warp_hot_any))
        warp_steps += int(np.count_nonzero(warp_active))

        col = np.where(working, chunks[:, j], 0)
        nxt = table[states, col]
        states = np.where(working, nxt, states).astype(STATE_DTYPE, copy=False)

    if stats is not None:
        if device.concurrency_factor(n_warps) == 1.0:
            phase_cycles = float(per_warp_cycles.max())
        else:
            phase_cycles = float(per_warp_cycles.sum() / device.max_concurrent_warps)
        stats.charge(phase, phase_cycles)
        stats.transitions += total_transitions
        stats.redundant_transitions += redundant
        stats.shared_accesses += shared_hits
        stats.global_accesses += global_hits
        stats.warp_steps += warp_steps
        stats.divergent_warp_steps += divergent_warp_steps
    return states


LEDGER_FIELDS = (
    "transitions",
    "redundant_transitions",
    "shared_accesses",
    "global_accesses",
    "warp_steps",
    "divergent_warp_steps",
)


def assert_same_outcome(got, want):
    """``(ends, stats)`` of a run equal the reference's, bit for bit."""
    (ends, stats), (ref_ends, ref_stats) = got, want
    assert ends.dtype == ref_ends.dtype
    np.testing.assert_array_equal(ends, ref_ends)
    assert stats.phase_cycles == ref_stats.phase_cycles  # exact, not approx
    assert stats.cycles == ref_stats.cycles
    for name in LEDGER_FIELDS:
        assert getattr(stats, name) == getattr(ref_stats, name), name


def _assert_same(device, table, memory, chunks, starts, **kwargs):
    """Run the executor and the reference on fresh ledgers and compare: the
    executor's hot rows are its ids ``< hot_state_count``."""
    got, want = (KernelStats(device=device, n_threads=chunks.shape[0]) for _ in "ab")
    ends = LockstepExecutor(table, memory, device).run(
        chunks, starts, stats=got, phase="p", **kwargs
    )
    ref_ends = reference_run(
        table,
        np.arange(memory.hot_state_count),
        memory.per_step_overhead_cycles,
        device,
        chunks,
        starts,
        stats=want,
        phase="p",
        **kwargs,
    )
    assert_same_outcome((ends, got), (ref_ends, want))


#: Alphabet sizes: premultiplied states make ``m`` load-bearing in the hot
#: compare (``s·m < H·m``), in the division of the ends by ``m`` and in the
#: ends of stopped lanes, read back from the scaled trace.  1, a prime and
#: 256 (a full byte alphabet, so uint8 symbols skip the symbol scan) are
#: always in the draw.
alphabets = st.one_of(
    st.sampled_from([1, 7, 256]), st.integers(min_value=2, max_value=16)
)


def hot_counts(n_states):
    """No hot state, one, every state, or any count in between."""
    return st.one_of(
        st.sampled_from([0, 1, n_states]), st.integers(min_value=0, max_value=n_states)
    )


@st.composite
def batch(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    n_states = draw(st.integers(min_value=1, max_value=12))
    n_symbols = draw(alphabets)
    table = rng.integers(0, n_states, size=(n_states, n_symbols)).astype(np.int32)
    # Thread counts around the warp size (4): partial warps, several warps,
    # and enough warps to exceed the device's residency (4 warps).
    n_threads = draw(st.integers(min_value=1, max_value=23))
    chunk_len = draw(st.integers(min_value=0, max_value=12))
    symbol_dtype = draw(st.sampled_from([np.uint8, np.int64]))
    chunks = rng.integers(0, n_symbols, size=(n_threads, chunk_len)).astype(
        symbol_dtype
    )
    starts = rng.integers(0, n_states, size=n_threads)
    kwargs = {}
    if draw(st.booleans()):  # ragged, zero-length lanes included
        kwargs["lengths"] = rng.integers(0, chunk_len + 1, size=n_threads)
    if draw(st.booleans()):  # inactive lanes (possibly all of them)
        kwargs["active"] = rng.random(n_threads) < draw(
            st.sampled_from([0.0, 0.3, 0.8])
        )
    if draw(st.booleans()):  # lanes of one warp sharing a chunk's stream
        kwargs["chunk_ids"] = rng.integers(0, max(1, n_threads // 2), size=n_threads)
    if draw(st.booleans()):
        kwargs["count_redundant"] = rng.random(n_threads) < 0.5
    layout = draw(st.sampled_from(list(TableLayout)))
    hot = draw(hot_counts(n_states))
    memory = MemoryModel(device=DEV, hot_state_count=hot, layout=layout)
    return table, memory, chunks, starts, kwargs


@st.composite
def sparse_batch(draw):
    """A recovery-shaped batch whose activity has warp structure: whole
    idle warps, one active lane, only the last partial warp active, or all
    active lanes inside one warp."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    ws = DEV.warp_size
    pattern = draw(
        st.sampled_from(["idle_warps", "one_lane", "last_partial", "one_warp"])
    )
    if pattern == "last_partial":
        n_threads = ws * draw(st.integers(min_value=1, max_value=5)) + draw(
            st.integers(min_value=1, max_value=ws - 1)
        )
    else:
        n_threads = draw(st.integers(min_value=1, max_value=23))
    n_warps = -(-n_threads // ws)
    lane_warp = np.arange(n_threads) // ws
    if pattern == "idle_warps":
        busy = rng.random(n_warps) < 0.5
        busy[rng.integers(n_warps)] = False  # at least one idle warp
        active = busy[lane_warp] & (rng.random(n_threads) < 0.7)
    elif pattern == "one_lane":
        active = np.zeros(n_threads, dtype=bool)
        active[rng.integers(n_threads)] = True
    elif pattern == "last_partial":
        active = (lane_warp == n_warps - 1) & (rng.random(n_threads) < 0.8)
    else:
        warp = rng.integers(n_warps)
        active = (lane_warp == warp) & (rng.random(n_threads) < 0.6)
        active[min(warp * ws + rng.integers(ws), n_threads - 1)] = True
    n_states = draw(st.integers(min_value=1, max_value=12))
    n_symbols = draw(alphabets)
    table = rng.integers(0, n_states, size=(n_states, n_symbols)).astype(np.int32)
    chunk_len = draw(st.integers(min_value=1, max_value=12))
    chunks = rng.integers(0, n_symbols, size=(n_threads, chunk_len)).astype(np.uint8)
    starts = rng.integers(0, n_states, size=n_threads)
    kwargs = {"active": active}
    if draw(st.booleans()):
        kwargs["lengths"] = rng.integers(0, chunk_len + 1, size=n_threads)
    if draw(st.booleans()):
        kwargs["chunk_ids"] = rng.integers(0, max(1, n_threads // 2), size=n_threads)
    if draw(st.booleans()):
        kwargs["count_redundant"] = rng.random(n_threads) < 0.5
    layout = draw(st.sampled_from(list(TableLayout)))
    hot = draw(hot_counts(n_states))
    memory = MemoryModel(device=DEV, hot_state_count=hot, layout=layout)
    return table, memory, chunks, starts, kwargs


@settings(max_examples=200, deadline=None)
@given(sparse_batch())
def test_sparse_warp_structured_batches(case):
    """Warp-structured activity — the shape of an RR/NF recovery batch —
    matches the oracle's ledger, ``warp_steps`` and
    ``divergent_warp_steps`` exactly."""
    table, memory, chunks, starts, kwargs = case
    _assert_same(DEV, table, memory, chunks, starts, **kwargs)


@settings(max_examples=200, deadline=None)
@given(batch())
def test_two_pass_run_equals_per_position_loop(case):
    table, memory, chunks, starts, kwargs = case
    _assert_same(DEV, table, memory, chunks, starts, **kwargs)


@settings(max_examples=40, deadline=None)
@given(batch(), st.integers(min_value=1, max_value=40))
def test_block_budget_does_not_change_the_result(case, budget):
    """Any position-block size — down to one position a block — gives the
    reference ledger, warp steps and their divergence included; the budget
    only bounds memory."""
    table, memory, chunks, starts, kwargs = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor_module, "TRACE_BLOCK_ELEMENTS", budget)
        _assert_same(DEV, table, memory, chunks, starts, **kwargs)


@pytest.mark.parametrize("layout", list(TableLayout))
def test_wide_batch_spanning_several_position_blocks(layout):
    """At the shipped budget: 8 200 lanes × 100 positions on the RTX 3090
    model take several position blocks, with a partial last warp and
    ragged, inactive and stream-sharing lanes."""
    rng = np.random.default_rng(7)
    n_states, n_symbols, n_threads, chunk_len = 40, 16, 8200, 100
    width = -(-n_threads // RTX3090.warp_size) * RTX3090.warp_size
    assert chunk_len > 3 * (executor_module.TRACE_BLOCK_ELEMENTS // width)
    table = rng.integers(0, n_states, size=(n_states, n_symbols)).astype(np.int32)
    chunks = rng.integers(0, n_symbols, size=(n_threads, chunk_len)).astype(np.uint8)
    starts = rng.integers(0, n_states, size=n_threads)
    memory = MemoryModel(device=RTX3090, hot_state_count=12, layout=layout)
    _assert_same(
        RTX3090,
        table,
        memory,
        chunks,
        starts,
        lengths=rng.integers(0, chunk_len + 1, size=n_threads),
        active=rng.random(n_threads) < 0.9,
        chunk_ids=rng.integers(0, n_threads // 8, size=n_threads),
        count_redundant=rng.random(n_threads) < 0.3,
    )
    # ... and the rectangular, all-active form of the same batch.
    _assert_same(RTX3090, table, memory, chunks, starts)


@pytest.mark.parametrize("symbol_dtype", [np.uint8, np.int64])
@pytest.mark.parametrize("layout", list(TableLayout))
def test_suite_sized_table(layout, symbol_dtype):
    """The flat-index gather on a 6 144 × 256 table (the largest PowerEN
    member's shape): 256 lanes over two position blocks, the last ragged,
    with uint8 and int64 symbols up to 255."""
    rng = np.random.default_rng(11)
    n_states, n_symbols, n_threads, chunk_len = 6144, 256, 256, 300
    table = rng.integers(0, n_states, size=(n_states, n_symbols)).astype(np.int32)
    chunks = rng.integers(0, n_symbols, size=(n_threads, chunk_len)).astype(
        symbol_dtype
    )
    chunks[:, -1] = n_symbols - 1
    starts = rng.integers(0, n_states, size=n_threads)
    memory = MemoryModel(device=RTX3090, hot_state_count=700, layout=layout)
    _assert_same(
        RTX3090,
        table,
        memory,
        chunks,
        starts,
        lengths=rng.integers(0, chunk_len + 1, size=n_threads),
        active=rng.random(n_threads) < 0.7,
        chunk_ids=rng.integers(0, n_threads // 4, size=n_threads),
        count_redundant=rng.random(n_threads) < 0.3,
    )
    _assert_same(RTX3090, table, memory, chunks, starts)
