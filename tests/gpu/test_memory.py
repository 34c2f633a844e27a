"""Memory-model tests: layouts, the hot lookups they charge, overheads."""

import numpy as np
import pytest

from repro.gpu.device import RTX3090
from repro.gpu.executor import LockstepExecutor
from repro.gpu.memory import MemoryModel, TableLayout
from repro.gpu.stats import KernelStats
from repro.errors import SimulationError


def test_hash_layout_pays_per_step_overhead():
    rank = MemoryModel(device=RTX3090, hot_state_count=4, layout=TableLayout.RANK)
    hashed = MemoryModel(device=RTX3090, hot_state_count=4, layout=TableLayout.HASH)
    assert rank.per_step_overhead_cycles == 0.0
    assert hashed.per_step_overhead_cycles == float(
        RTX3090.shared_cycles + RTX3090.hash_compute_cycles
    )


def test_for_dfa_sizes_hot_region():
    mm = MemoryModel.for_dfa(RTX3090, n_states=10, n_symbols=256)
    assert mm.hot_state_count == 10  # small DFA fits entirely
    big = MemoryModel.for_dfa(RTX3090, n_states=10**6, n_symbols=256)
    assert big.hot_state_count == RTX3090.shared_table_entries // 256


def test_negative_hot_count_rejected():
    with pytest.raises(SimulationError):
        MemoryModel(device=RTX3090, hot_state_count=-1)


@pytest.mark.parametrize("layout", list(TableLayout))
@pytest.mark.parametrize("n_symbols", [1, 7, 256])
@pytest.mark.parametrize("hot_count", [0, 1, 17, 100])
def test_shared_hits_are_the_rank_compare_on_both_layouts(
    layout, n_symbols, hot_count
):
    """Both layouts cache the ``hot_count`` hottest rows of a rank-ordered
    table, so a lookup hits shared memory exactly when it is made from a
    state ``< hot_count``, whatever the layout and the alphabet size (the
    executor compares premultiplied states, ``s·m < H·m``).  One lane per
    state steps once, and each lane's lookup is charged to the shared or
    the global count on its own ledger."""
    n_states = 100
    rng = np.random.default_rng(hot_count)
    table = rng.integers(0, n_states, size=(n_states, n_symbols))
    mm = MemoryModel(device=RTX3090, hot_state_count=hot_count, layout=layout)
    executor = LockstepExecutor(table, mm, RTX3090)
    chunks = rng.integers(0, n_symbols, size=(1, 1))
    hits = []
    for state in range(n_states):
        stats = KernelStats(device=RTX3090, n_threads=1)
        executor.run(chunks, [state], stats=stats)
        assert stats.shared_accesses + stats.global_accesses == 1
        hits.append(stats.shared_accesses == 1)
    assert hits == [state < hot_count for state in range(n_states)]
