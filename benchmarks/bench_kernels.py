"""Micro-benchmarks (pytest-benchmark wall clock) of the core kernels.

These track the *simulator's* own performance — the lockstep executor's
throughput, the predictor, partitioning, and building the sim backend
(its rank-ordered table) — so regressions in the vectorized hot paths show
up in CI.
"""

import time

import numpy as np
import pytest

from repro.automata.dfa import run_lockstep
from repro.automata.properties import profile_state_frequencies
from repro.engine import FastBackend, SimBackend
from repro.gpu.device import RTX3090
from repro.gpu.executor import LockstepExecutor, distinct_chunks_per_warp
from repro.gpu.memory import MemoryModel
from repro.gpu.stats import KernelStats
from repro.speculation.chunks import partition_input
from repro.speculation.predictor import predict_start_states
from repro.workloads import classic


def _best_of(fn, repeats: int = 5) -> float:
    """Minimum wall-clock of ``repeats`` calls (noise-robust timing)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def dfa():
    return classic.divisibility(64, base=10)


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(0)
    return rng.integers(48, 58, size=262_144).astype(np.uint8)


def test_bench_run_lockstep(benchmark, dfa, stream):
    chunks = stream.reshape(256, -1)
    starts = np.zeros(256, dtype=np.int64)
    ends = benchmark(lambda: run_lockstep(dfa.table, chunks, starts))
    assert ends.shape == (256,)


def test_bench_executor_with_accounting(benchmark, dfa, stream):
    mm = MemoryModel.for_dfa(RTX3090, dfa.n_states, dfa.n_symbols)
    ex = LockstepExecutor(dfa.table, mm, RTX3090)
    chunks = stream.reshape(256, -1)
    starts = np.zeros(256, dtype=np.int64)

    def run():
        stats = KernelStats(device=RTX3090, n_threads=256)
        return ex.run(chunks, starts, stats=stats, phase="p")

    ends = benchmark(run)
    assert ends.shape == (256,)


def test_bench_partition(benchmark, stream):
    p = benchmark(lambda: partition_input(stream, 256))
    assert p.n_chunks == 256


def test_bench_predictor(benchmark, dfa, stream):
    partition = partition_input(stream, 256)
    pred = benchmark(lambda: predict_start_states(dfa, partition))
    assert pred.n_chunks == 256


def test_bench_sim_backend_construction(benchmark, dfa, stream):
    """Profile, rank the table's rows and build the executor: what a sim
    ``GpuSimulator`` does to load a DFA."""
    sim = benchmark(
        lambda: SimBackend(
            dfa, RTX3090, profile_state_frequencies(dfa, stream[:16_384]), True
        )
    )
    assert sim.executor.table.shape == dfa.table.shape


def test_bench_sequential_reference(benchmark, dfa, stream):
    short = stream[:16_384]
    end = benchmark(lambda: dfa.run(short))
    assert 0 <= end < dfa.n_states


def test_bench_fast_backend(benchmark, dfa, stream):
    """Wall clock of the answer-only backend on the N=256 lockstep batch."""
    fast = FastBackend(dfa.table)
    chunks = stream.reshape(256, -1)
    starts = np.zeros(256, dtype=np.int64)
    ends = benchmark(lambda: fast.run_batch(chunks, starts))
    assert ends.shape == (256,)


def test_accounting_overhead_guard(dfa, stream):
    """Acceptance bar: on the N=256 lockstep microbenchmark SimBackend, cycle
    ledger included, takes at most 1.3× the bare 2-D gather loop
    ``run_lockstep`` (it reads about 0.6×; 0.8–0.9× with a per-step
    multiply): the sim's position loop holds the trace store and one add
    and one gather on the premultiplied table, accounting is whole-array
    work afterwards.  FastBackend pins the answers here; it is the
    yardstick of ``test_guard_recovery_batch_vs_fast_backend``."""
    profile = profile_state_frequencies(dfa, stream[:16_384])
    sim = SimBackend(dfa, RTX3090, profile, True)
    chunks = stream.reshape(256, -1)
    starts = np.zeros(256, dtype=np.int64)

    def run_sim():
        stats = KernelStats(device=RTX3090, n_threads=256)
        return sim.run_batch(chunks, starts, stats=stats, phase="p")

    np.testing.assert_array_equal(
        run_sim(), FastBackend(dfa.table).run_batch(chunks, starts)
    )
    t_sim = _best_of(run_sim, repeats=3)
    t_ref = _best_of(lambda: run_lockstep(dfa.table, chunks, starts), repeats=3)
    ratio = t_sim / t_ref
    print(f"\nsim-vs-gather-loop lockstep (N=256): {ratio:.1f}x "
          f"(sim {t_sim * 1e3:.2f} ms, run_lockstep {t_ref * 1e3:.2f} ms)")
    assert ratio <= 1.3, f"accounting costs {ratio:.2f}x the bare gather loop"


def test_guard_fast_kernel_vs_reference():
    """The fast backend's stepping kernel (premultiplied table, time-major
    rows, prefix runs) against the reference position loop ``run_lockstep``:
    ≥ 2× on the gang shape (24 × 4 096 on a 256 × 256 table, every input
    check included) and ≥ 1.3× on a ragged + masked 8 × 36 recovery round,
    where set-up cost rather than the gather decides."""
    rng = np.random.default_rng(7)
    table = rng.integers(0, 256, size=(256, 256)).astype(np.int32)
    fast = FastBackend(table)

    chunks = rng.integers(0, 256, size=(24, 4096)).astype(np.uint8)
    starts = rng.integers(0, 256, size=24)
    lengths = np.full(24, 4096)
    np.testing.assert_array_equal(
        fast.run_streams(chunks, starts, lengths), run_lockstep(table, chunks, starts)
    )
    t_ref = _best_of(lambda: run_lockstep(table, chunks, starts))
    t_fast = _best_of(lambda: fast.run_streams(chunks, starts, lengths))
    gang = t_ref / t_fast

    small = rng.integers(0, 256, size=(8, 36)).astype(np.uint8)
    small_starts = rng.integers(0, 256, size=8)
    small_lengths = np.array([36, 30, 36, 36, 12, 36, 36, 0])
    active = np.array([1, 0, 1, 1, 1, 0, 1, 1], dtype=bool)
    expected = np.where(
        active, run_lockstep(table, small, small_starts, small_lengths), small_starts
    )
    np.testing.assert_array_equal(
        fast.run_batch(small, small_starts, lengths=small_lengths, active=active),
        expected,
    )

    calls = 200  # a call is ~0.1 ms: time a burst

    def many(fn):
        return lambda: [fn() for _ in range(calls)]

    t_small_ref = _best_of(
        many(lambda: run_lockstep(table, small, small_starts, small_lengths))
    )
    t_small_fast = _best_of(
        many(
            lambda: fast.run_batch(
                small, small_starts, lengths=small_lengths, active=active
            )
        )
    )
    masked = t_small_ref / t_small_fast
    print(f"\nfast kernel vs run_lockstep: gang 24x4096 {gang:.1f}x "
          f"({t_ref * 1e3:.2f} -> {t_fast * 1e3:.2f} ms), masked 8x36 {masked:.1f}x "
          f"({t_small_ref * 1e3 / calls:.3f} -> {t_small_fast * 1e3 / calls:.3f} "
          f"ms a call)")
    assert gang >= 2.0, f"gang shape only {gang:.2f}x the reference loop"
    assert masked >= 1.3, f"masked recovery round only {masked:.2f}x the reference"


def test_guard_predictor_vs_reference():
    """The lookback replay against the lane-per-state replay it replaced
    (``per_lane_queues``, kept in ``tests/speculation``): ≥ 2.5× at the
    largest PowerEN member's scale (6 144 states, ≥ 150 distinct windows
    over 256 chunks), where it replays state sets; at the small-feed shape
    (7 windows × 48 states, timed as a 200-call burst), where it replays
    one lane per state, no more than 1.1× the reference's time."""
    from tests.conftest import queue_lists
    from tests.speculation.test_predictor_reference import per_lane_queues
    from repro.workloads.suites import build_member

    def same(prediction, reference):
        return queue_lists(prediction) == reference

    member = build_member("poweren", 10)
    data = np.frombuffer(bytes(member.generate_input(65536, seed=0)), dtype=np.uint8)
    partition = partition_input(data, 256)
    windows = {tuple(partition.last_symbols_of(i, 2).tolist()) for i in range(255)}
    assert member.dfa.n_states == 6144 and len(windows) >= 150

    def new():
        return predict_start_states(member.dfa, partition)

    def ref():
        return per_lane_queues(member.dfa, partition, member.dfa.start, 2)

    assert same(new(), ref())
    t_ref, t_new = _best_of(ref), _best_of(new)
    large = t_ref / t_new

    rotator = classic.cyclic_rotator(48)
    rng = np.random.default_rng(3)
    small = partition_input(rng.integers(97, 123, size=288).astype(np.uint8), 8)
    assert same(
        predict_start_states(rotator, small), per_lane_queues(rotator, small, 0, 2)
    )
    calls = 200
    t_small_ref = _best_of(
        lambda: [per_lane_queues(rotator, small, 0, 2) for _ in range(calls)]
    )
    t_small_new = _best_of(
        lambda: [predict_start_states(rotator, small) for _ in range(calls)]
    )
    small_ratio = t_small_new / t_small_ref
    print(f"\npredictor vs per-lane reference: poweren10 x 256 chunks {large:.1f}x "
          f"({t_ref * 1e3:.2f} -> {t_new * 1e3:.2f} ms), small 7 x 48 "
          f"{small_ratio:.2f}x the reference's time "
          f"({t_small_ref * 1e6 / calls:.1f} -> {t_small_new * 1e6 / calls:.1f} us a call)")
    assert large >= 2.5, f"state-set replay only {large:.2f}x the reference"
    assert small_ratio <= 1.1, f"small replay takes {small_ratio:.2f}x the reference"


def _naive_distinct_chunks(lane_chunk, n_warps, ws):
    """The pre-vectorization per-warp np.unique loop, kept as reference."""
    out = np.zeros(n_warps, dtype=np.int64)
    for w in range(n_warps):
        lanes = lane_chunk[w * ws : (w + 1) * ws]
        out[w] = np.unique(lanes[lanes >= 0]).size
    return out


def test_fetch_coalescing_vectorization_guard():
    """The segmented fetch-coalescing pass must match the per-warp loop and
    beat it on a wide launch (N = 16384 threads ≥ the 512-thread bar)."""
    rng = np.random.default_rng(42)
    ws = RTX3090.warp_size
    n_threads = 16_384
    n_warps = n_threads // ws
    lane_chunk = rng.integers(-1, n_threads, size=n_warps * ws)

    np.testing.assert_array_equal(
        distinct_chunks_per_warp(lane_chunk, n_warps, ws),
        _naive_distinct_chunks(lane_chunk, n_warps, ws),
    )
    t_naive = _best_of(lambda: _naive_distinct_chunks(lane_chunk, n_warps, ws))
    t_vec = _best_of(lambda: distinct_chunks_per_warp(lane_chunk, n_warps, ws))
    speedup = t_naive / t_vec
    print(f"\nfetch-coalescing setup ({n_warps} warps): {speedup:.1f}x "
          f"({t_naive * 1e3:.2f} ms -> {t_vec * 1e3:.2f} ms)")
    assert speedup >= 3.0, f"vectorized pass barely beats the loop ({speedup:.2f}x)"


def test_guard_sparse_recovery_batch():
    """A recovery batch steps only its working lanes: on poweren10's table
    a 256-lane × 256-position batch with 96 active lanes in 6 of its 8
    warps takes at most 1.15× the same 96 lanes run as a dense batch (a
    full-width executor read 1.49–1.52×).  Both are timed in one process,
    so host drift cancels."""
    from repro.workloads.suites import build_member

    member = build_member("poweren", 10)
    table = member.dfa.table
    mm = MemoryModel.for_dfa(RTX3090, member.dfa.n_states, member.dfa.n_symbols)
    ex = LockstepExecutor(table, mm, RTX3090)
    data = np.frombuffer(bytes(member.generate_input(65536, seed=0)), dtype=np.uint8)
    chunks = data.reshape(256, 256)
    rng = np.random.default_rng(5)
    starts = rng.integers(0, member.dfa.n_states, size=256)
    ws = RTX3090.warp_size
    lanes = np.sort(
        np.concatenate(
            [w * ws + rng.choice(ws, size=16, replace=False) for w in range(6)]
        )
    )
    active = np.zeros(256, dtype=bool)
    active[lanes] = True
    dense_chunks = np.ascontiguousarray(chunks[lanes])
    dense_starts = starts[lanes]

    def sparse():
        stats = KernelStats(device=RTX3090, n_threads=256)
        return ex.run(chunks, starts, stats=stats, phase="p", active=active)

    def dense():
        stats = KernelStats(device=RTX3090, n_threads=lanes.size)
        return ex.run(dense_chunks, dense_starts, stats=stats, phase="p")

    ends = sparse()
    np.testing.assert_array_equal(ends[lanes], dense())
    np.testing.assert_array_equal(ends[~active], starts[~active])
    t_sparse = t_dense = float("inf")
    for _ in range(15):  # interleaved, so a slow spell hits both sides
        t_sparse = min(t_sparse, _best_of(sparse, repeats=1))
        t_dense = min(t_dense, _best_of(dense, repeats=1))
    ratio = t_sparse / t_dense
    print(f"\nsparse recovery batch (96 of 256 lanes, 6 of 8 warps): {ratio:.2f}x "
          f"the dense 96-lane batch ({t_dense * 1e3:.2f} -> {t_sparse * 1e3:.2f} ms)")
    assert ratio <= 1.15, f"idle lanes cost {ratio:.2f}x the working lanes' batch"


def test_guard_recovery_batch_vs_fast_backend():
    """The sim executor, ledger included, against the answer-only
    ``FastBackend.run_batch`` on one recovery-shaped batch: a random
    6 144 × 256 table (the largest PowerEN member's shape) sending 90 % of
    its transitions into the device's hot set, as a scanner's table does,
    256 lanes of which 97 are active, 256 positions, ``chunk_ids`` set.
    Both step a premultiplied table, ``x = pre[x + a]``; what the executor
    adds is the trace store and the cost pass, held to at most 2.7× the
    fast backend's time (it reads about 2.1×; a per-step multiply read
    2.8× here and 3.0× on captured poweren10 batches).  Both are timed in
    one process, interleaved, so host drift cancels."""
    rng = np.random.default_rng(11)
    n_states, n_symbols, n_lanes, width = 6144, 256, 256, 256
    mm = MemoryModel.for_dfa(RTX3090, n_states, n_symbols)
    table = np.where(
        rng.random((n_states, n_symbols)) < 0.9,
        rng.integers(0, mm.hot_state_count, size=(n_states, n_symbols)),
        rng.integers(0, n_states, size=(n_states, n_symbols)),
    ).astype(np.int32)
    ex = LockstepExecutor(table, mm, RTX3090)
    fast = FastBackend(table)
    chunks = rng.integers(0, n_symbols, size=(n_lanes, width)).astype(np.uint8)
    starts = rng.integers(0, n_states, size=n_lanes)
    active = np.zeros(n_lanes, dtype=bool)
    active[rng.choice(n_lanes, size=97, replace=False)] = True
    chunk_ids = rng.integers(0, n_lanes, size=n_lanes)
    batch = dict(active=active, chunk_ids=chunk_ids)

    def sim():
        stats = KernelStats(device=RTX3090, n_threads=n_lanes)
        return ex.run(chunks, starts, stats=stats, phase="p", **batch)

    def answer_only():
        return fast.run_batch(chunks, starts, **batch)

    np.testing.assert_array_equal(sim(), answer_only())
    t_sim = t_fast = float("inf")
    for _ in range(15):  # interleaved, so a slow spell hits both sides
        t_sim = min(t_sim, _best_of(sim, repeats=1))
        t_fast = min(t_fast, _best_of(answer_only, repeats=1))
    ratio = t_sim / t_fast
    print(f"\nrecovery batch (97 of 256 lanes, 6144 x 256 table): sim executor "
          f"{ratio:.2f}x FastBackend.run_batch ({t_fast * 1e3:.3f} -> "
          f"{t_sim * 1e3:.3f} ms)")
    assert ratio <= 2.7, f"sim executor costs {ratio:.2f}x the fast backend"


def test_guard_schedule_round():
    """RR's and NF's recovery schedule against the per-thread loops it
    restates (``rr_loop`` / ``nf_loop``, kept in ``tests/schemes``): on
    random 256-chunk rounds at f = 40, 128 and 200 it takes at most 0.6×
    their time.  Both are timed in one process, interleaved, so host drift
    cancels."""
    from tests.schemes.policy_reference import _context, nf_loop, rr_loop
    from repro.schemes.nf import NFScheme
    from repro.schemes.rr import RRScheme

    for name, schedule, loop in (
        ("rr", RRScheme.schedule, rr_loop),
        ("nf", NFScheme.schedule, nf_loop),
    ):
        for f in (40, 128, 200):
            rounds = [_context(seed, 256, f, 16, 60, 40) for seed in range(8)]
            cursors = [ctx.prediction.cursors.copy() for ctx in rounds]

            def run(fn):
                for ctx, start in zip(rounds, cursors):
                    ctx.prediction.cursors[:] = start
                t0 = time.perf_counter()
                out = [fn(ctx) for ctx in rounds]
                return out, time.perf_counter() - t0

            assert run(schedule)[0] == run(loop)[0]
            t_new = t_ref = float("inf")
            for _ in range(5):
                t_new = min(t_new, run(schedule)[1])
                t_ref = min(t_ref, run(loop)[1])
            ratio = t_new / t_ref
            print(f"\n{name} schedule at f = {f} of 256 chunks: {ratio:.2f}x the "
                  f"per-thread loop ({t_ref * 1e6 / len(rounds):.0f} -> "
                  f"{t_new * 1e6 / len(rounds):.0f} us a round)")
            assert ratio <= 0.6, f"{name} schedule takes {ratio:.2f}x the loop at f = {f}"
