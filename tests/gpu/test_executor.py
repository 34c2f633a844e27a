"""Lockstep-executor tests: functional equivalence + cost accounting."""

import numpy as np
import pytest

from repro.engine.sim import SimBackend
from repro.gpu.device import DeviceSpec
from repro.gpu.executor import LockstepExecutor, premultiplied_dtype
from repro.gpu.memory import MemoryModel, TableLayout
from repro.gpu.stats import KernelStats
from repro.errors import SimulationError


@pytest.fixture()
def dev():
    return DeviceSpec(warp_size=4, n_sms=4, max_resident_warps_per_sm=8)


@pytest.fixture()
def executor(div7, dev):
    mm = MemoryModel(device=dev, hot_state_count=3, layout=TableLayout.RANK)
    return LockstepExecutor(div7.table, mm, dev)


def make_chunks(rng, n, length):
    return rng.integers(48, 50, size=(n, length)).astype(np.uint8)


class TestFunctional:
    def test_matches_scalar_runs(self, executor, div7, rng):
        chunks = make_chunks(rng, 6, 30)
        starts = rng.integers(0, 7, size=6)
        ends = executor.run(chunks, starts)
        for t in range(6):
            assert ends[t] == div7.run(chunks[t], start=int(starts[t]))

    def test_inactive_lanes_keep_start(self, executor, rng):
        chunks = make_chunks(rng, 4, 10)
        starts = np.array([1, 2, 3, 4])
        active = np.array([True, False, True, False])
        ends = executor.run(chunks, starts, active=active)
        assert ends[1] == 2 and ends[3] == 4

    def test_lengths_truncate(self, executor, div7, rng):
        chunks = make_chunks(rng, 2, 20)
        starts = np.zeros(2, dtype=np.int64)
        lengths = np.array([5, 20])
        ends = executor.run(chunks, starts, lengths=lengths)
        assert ends[0] == div7.run(chunks[0, :5])
        assert ends[1] == div7.run(chunks[1])

    def test_run_gathered(self, div7, dev, rng):
        chunks = make_chunks(rng, 3, 15)
        cids = np.array([2, 0, 2])
        starts = np.array([0, 1, 3])
        ends = SimBackend(div7, dev, None, False).run_gathered(chunks, cids, starts)
        for t in range(3):
            assert ends[t] == div7.run(chunks[cids[t]], start=int(starts[t]))

    def test_zero_length_chunks(self, executor):
        ends = executor.run(np.zeros((3, 0), dtype=np.uint8), np.array([1, 2, 3]))
        assert ends.tolist() == [1, 2, 3]

    def test_bad_starts_shape(self, executor, rng):
        with pytest.raises(SimulationError):
            executor.run(make_chunks(rng, 3, 4), np.zeros(2, dtype=np.int64))

    def test_bad_lengths(self, executor, rng):
        with pytest.raises(SimulationError):
            executor.run(
                make_chunks(rng, 2, 4),
                np.zeros(2, dtype=np.int64),
                lengths=np.array([10, 2]),
            )


class TestAccounting:
    def test_transition_count(self, executor, dev, rng):
        chunks = make_chunks(rng, 4, 25)
        stats = KernelStats(device=dev, n_threads=4)
        executor.run(chunks, np.zeros(4, dtype=np.int64), stats=stats)
        assert stats.transitions == 4 * 25

    def test_hot_cold_split_sums(self, executor, dev, rng):
        chunks = make_chunks(rng, 4, 25)
        stats = KernelStats(device=dev, n_threads=4)
        executor.run(chunks, np.zeros(4, dtype=np.int64), stats=stats)
        assert stats.shared_accesses + stats.global_accesses == stats.transitions

    def test_all_hot_phase_cost(self, div7, dev, rng):
        mm = MemoryModel(device=dev, hot_state_count=7)  # whole DFA hot
        ex = LockstepExecutor(div7.table, mm, dev)
        stats = KernelStats(device=dev, n_threads=4)
        chunks = make_chunks(rng, 4, 10)
        ex.run(chunks, np.zeros(4, dtype=np.int64), stats=stats, phase="p")
        per_step = (
            dev.shared_cycles
            + dev.transition_compute_cycles
            # 4 distinct chunks in the warp: one stream + 3 extra issues
            + dev.input_fetch_cycles + 3 * dev.input_issue_cycles
        )
        assert stats.phase_cycles["p"] == pytest.approx(10 * per_step)
        assert stats.global_accesses == 0

    def test_all_cold_phase_cost(self, div7, dev, rng):
        mm = MemoryModel(device=dev, hot_state_count=0)
        ex = LockstepExecutor(div7.table, mm, dev)
        stats = KernelStats(device=dev, n_threads=4)
        chunks = make_chunks(rng, 4, 10)
        ex.run(chunks, np.zeros(4, dtype=np.int64), stats=stats, phase="p")
        per_step = (
            dev.global_cycles
            + 3 * dev.global_issue_cycles
            + dev.transition_compute_cycles
            + dev.input_fetch_cycles + 3 * dev.input_issue_cycles
        )
        assert stats.phase_cycles["p"] == pytest.approx(10 * per_step)
        assert stats.shared_accesses == 0

    def test_coalesced_input_fetch(self, div7, dev, rng):
        """Lanes sharing one chunk pay one input fetch (the NF effect)."""
        sim = SimBackend(div7, dev, None, False)  # the whole DFA is hot
        assert sim.memory.hot_state_count == 7
        chunks = make_chunks(rng, 4, 10)
        same = KernelStats(device=dev, n_threads=4)
        sim.run_gathered(
            chunks, np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64),
            stats=same, phase="p",
        )
        spread = KernelStats(device=dev, n_threads=4)
        sim.run_gathered(
            chunks, np.arange(4), np.zeros(4, dtype=np.int64),
            stats=spread, phase="p",
        )
        assert same.phase_cycles["p"] < spread.phase_cycles["p"]
        diff = spread.phase_cycles["p"] - same.phase_cycles["p"]
        assert diff == pytest.approx(10 * 3 * dev.input_issue_cycles)

    def test_hash_layout_overhead(self, div7, dev, rng):
        rank = LockstepExecutor(
            div7.table, MemoryModel(device=dev, hot_state_count=7), dev
        )
        hashed = LockstepExecutor(
            div7.table,
            MemoryModel(device=dev, hot_state_count=7, layout=TableLayout.HASH),
            dev,
        )
        chunks = make_chunks(rng, 4, 10)
        s1 = KernelStats(device=dev, n_threads=4)
        s2 = KernelStats(device=dev, n_threads=4)
        rank.run(chunks, np.zeros(4, dtype=np.int64), stats=s1, phase="p")
        hashed.run(chunks, np.zeros(4, dtype=np.int64), stats=s2, phase="p")
        expected_extra = 10 * (dev.shared_cycles + dev.hash_compute_cycles)
        assert s2.phase_cycles["p"] - s1.phase_cycles["p"] == pytest.approx(expected_extra)

    def test_redundant_counting(self, executor, dev, rng):
        chunks = make_chunks(rng, 4, 10)
        stats = KernelStats(device=dev, n_threads=4)
        mask = np.array([True, False, False, True])
        executor.run(
            chunks, np.zeros(4, dtype=np.int64), stats=stats, count_redundant=mask
        )
        assert stats.redundant_transitions == 2 * 10

    def test_idle_lanes_do_not_reduce_warp_time(self, div7, dev, rng):
        """One active lane in a warp costs as much as a full warp step-wise
        (idle lanes are wasted, not saved) — modulo divergent-load issue."""
        mm = MemoryModel(device=dev, hot_state_count=0)
        ex = LockstepExecutor(div7.table, mm, dev)
        chunks = make_chunks(rng, 4, 10)
        solo = KernelStats(device=dev, n_threads=4)
        ex.run(
            chunks,
            np.zeros(4, dtype=np.int64),
            stats=solo,
            active=np.array([True, False, False, False]),
            phase="p",
        )
        # Single active cold lane still pays the full global latency/step.
        assert solo.phase_cycles["p"] >= 10 * dev.global_cycles


class TestPremultipliedTable:
    """The executor's one resident table holds ``next_state · m``, in the
    dtype :func:`premultiplied_dtype` picks from the shape alone."""

    @pytest.mark.parametrize(
        "shape, dtype",
        [
            ((2**23, 256), np.int32),  # 2**31 entries: the last index is 2**31 - 1
            ((2**23 + 1, 256), np.int64),
            ((2**31, 1), np.int32),
            ((2**31 + 1, 1), np.int64),
            ((1, 2**31), np.int32),
            ((3, 2**30), np.int64),
            ((6144, 256), np.int32),  # the largest PowerEN member
            ((1, 1), np.int32),
        ],
    )
    def test_dtype_rule_at_the_int32_boundary(self, shape, dtype):
        """The largest flat index, ``n_states · n_symbols − 1``, must fit:
        int32 up to 2**31 entries, int64 beyond.  Shapes only; no table."""
        assert premultiplied_dtype(*shape) == np.dtype(dtype)

    def test_only_the_premultiplied_table_is_resident(self, div7, dev):
        memory = MemoryModel(device=dev, hot_state_count=3)
        ex = LockstepExecutor(div7.table, memory, dev)
        arrays = [v for v in vars(ex).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 1
        (pre,) = arrays
        assert pre.dtype == np.int32
        np.testing.assert_array_equal(pre, div7.table * div7.n_symbols)
        # ``table`` is derived on each read.
        np.testing.assert_array_equal(ex.table, div7.table)
        assert ex.table is not ex.table

    def test_premultiplied_constructor_checks_the_dtype(self, dev):
        memory = MemoryModel(device=dev, hot_state_count=1)
        table = np.array([[1, 0], [0, 1]])
        ex = LockstepExecutor.premultiplied((table * 2).astype(np.int32), memory, dev)
        np.testing.assert_array_equal(ex.table, table)
        with pytest.raises(SimulationError, match="int32"):
            LockstepExecutor.premultiplied(table * 2, memory, dev)  # int64
        with pytest.raises(SimulationError, match="2-D"):
            LockstepExecutor.premultiplied(np.zeros(4, dtype=np.int32), memory, dev)
