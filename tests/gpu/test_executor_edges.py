"""Lockstep-executor edge cases: degenerate shapes, masks, and monotonicity.

Complements ``test_executor.py`` with the boundaries schemes actually hit —
zero-length lanes inside otherwise busy batches, fully inactive recovery
rounds, single-symbol chunks — plus the coalescing ledger for explicit
``chunk_ids`` assignments and the "more active lanes never get cheaper"
monotonicity the recovery schedulers rely on.
"""

import numpy as np
import pytest

from repro.engine.sim import SimBackend
from repro.gpu.device import DeviceSpec
from repro.gpu.executor import LockstepExecutor
from repro.gpu.memory import MemoryModel, TableLayout
from repro.gpu.stats import KernelStats


@pytest.fixture()
def dev():
    return DeviceSpec(warp_size=4, n_sms=4, max_resident_warps_per_sm=8)


@pytest.fixture()
def executor(div7, dev):
    mm = MemoryModel(device=dev, hot_state_count=3, layout=TableLayout.RANK)
    return LockstepExecutor(div7.table, mm, dev)


def make_chunks(rng, n, length):
    return rng.integers(48, 50, size=(n, length)).astype(np.uint8)


class TestDegenerateLanes:
    def test_zero_length_lane_among_working_lanes(self, executor, div7, rng):
        """A lengths=0 lane keeps its start state and does no transitions."""
        chunks = make_chunks(rng, 4, 12)
        starts = np.array([3, 5, 0, 1])
        lengths = np.array([12, 0, 12, 0])
        stats = KernelStats(device=executor.device, n_threads=4)
        ends = executor.run(chunks, starts, stats=stats, lengths=lengths, phase="p")
        assert ends[1] == 5 and ends[3] == 1
        assert ends[0] == div7.run(chunks[0], start=3)
        assert ends[2] == div7.run(chunks[2], start=0)
        assert stats.transitions == 2 * 12

    def test_all_lengths_zero(self, executor):
        """All-zero lengths: functional no-op, zero transitions charged."""
        chunks = np.zeros((3, 8), dtype=np.uint8)
        starts = np.array([1, 2, 3])
        stats = KernelStats(device=executor.device, n_threads=3)
        ends = executor.run(
            chunks, starts, stats=stats, lengths=np.zeros(3, dtype=np.int64),
            phase="p",
        )
        assert ends.tolist() == [1, 2, 3]
        assert stats.transitions == 0
        assert stats.phase_cycles.get("p", 0.0) == 0.0

    def test_all_inactive_mask_is_free(self, executor, rng):
        """An all-inactive batch returns starts and charges nothing — the
        shape every drained recovery round takes."""
        chunks = make_chunks(rng, 4, 10)
        starts = np.array([4, 3, 2, 1])
        stats = KernelStats(device=executor.device, n_threads=4)
        ends = executor.run(
            chunks, starts, stats=stats, active=np.zeros(4, dtype=bool), phase="p"
        )
        assert ends.tolist() == [4, 3, 2, 1]
        assert stats.transitions == 0
        assert stats.warp_steps == stats.divergent_warp_steps == 0
        assert "p" not in stats.phase_cycles

    def test_single_symbol_chunks(self, executor, div7, rng):
        """chunk_len == 1: exactly one transition per lane."""
        chunks = make_chunks(rng, 6, 1)
        starts = rng.integers(0, 7, size=6)
        stats = KernelStats(device=executor.device, n_threads=6)
        ends = executor.run(chunks, starts, stats=stats, phase="p")
        for t in range(6):
            assert ends[t] == div7.run(chunks[t], start=int(starts[t]))
        assert stats.transitions == 6


class TestCoalescingAccounting:
    def test_chunk_ids_distinct_count_drives_fetch_cost(self, div7, dev, rng):
        """A warp pays one stream fetch plus one extra issue slot per
        *additional distinct* chunk among its active lanes."""
        sim = SimBackend(div7, dev, None, False)
        assert sim.memory.hot_state_count == 7  # all hot: isolate fetch
        chunks = make_chunks(rng, 4, 10)
        costs = {}
        for label, cids in {
            "one": np.array([2, 2, 2, 2]),
            "two": np.array([0, 0, 3, 3]),
            "four": np.array([0, 1, 2, 3]),
        }.items():
            stats = KernelStats(device=dev, n_threads=4)
            sim.run_gathered(
                chunks, cids, np.zeros(4, dtype=np.int64), stats=stats, phase="p"
            )
            costs[label] = stats.phase_cycles["p"]
        step = dev.input_issue_cycles * 10  # per extra distinct chunk, 10 steps
        assert costs["two"] - costs["one"] == pytest.approx(step)
        assert costs["four"] - costs["two"] == pytest.approx(2 * step)

    def test_inactive_lanes_do_not_count_distinct_chunks(self, div7, dev, rng):
        """Masked-off lanes must not inflate the distinct-chunk fetch bill."""
        mm = MemoryModel(device=dev, hot_state_count=7)
        ex = LockstepExecutor(div7.table, mm, dev)
        chunks = make_chunks(rng, 4, 10)
        active = np.array([True, True, False, False])
        masked = KernelStats(device=dev, n_threads=4)
        ex.run(
            chunks, np.zeros(4, dtype=np.int64), stats=masked, active=active,
            chunk_ids=np.array([0, 0, 1, 2]), phase="p",
        )
        baseline = KernelStats(device=dev, n_threads=4)
        ex.run(
            chunks, np.zeros(4, dtype=np.int64), stats=baseline, active=active,
            chunk_ids=np.array([0, 0, 0, 0]), phase="p",
        )
        # Lanes 2/3 are inactive, so both assignments see one distinct chunk.
        assert masked.phase_cycles["p"] == pytest.approx(baseline.phase_cycles["p"])


class TestMonotonicity:
    def test_cycles_monotone_in_active_lane_count(self, div7, dev, rng):
        """Growing a prefix-active mask never lowers the charged cycles
        (recovery schedulers assume adding work cannot be free)."""
        mm = MemoryModel(device=dev, hot_state_count=3)
        ex = LockstepExecutor(div7.table, mm, dev)
        n = 12  # three warps of four
        chunks = make_chunks(rng, n, 16)
        starts = np.zeros(n, dtype=np.int64)
        prev = 0.0
        for k in range(1, n + 1):
            active = np.zeros(n, dtype=bool)
            active[:k] = True
            stats = KernelStats(device=dev, n_threads=n)
            ex.run(chunks, starts, stats=stats, active=active, phase="p")
            cost = stats.phase_cycles["p"]
            assert cost >= prev, f"cost dropped when activating lane {k}"
            prev = cost
