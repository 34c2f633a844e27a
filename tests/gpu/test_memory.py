"""Memory-model tests: layouts, hot masks, overheads."""

import numpy as np
import pytest

from repro.gpu.device import RTX3090
from repro.gpu.memory import MemoryModel, TableLayout
from repro.errors import SimulationError


def test_rank_layout_hot_mask():
    mm = MemoryModel(device=RTX3090, hot_state_count=4, layout=TableLayout.RANK)
    states = np.array([0, 3, 4, 10])
    assert mm.hot_mask(states).tolist() == [True, True, False, False]


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
@pytest.mark.parametrize("hot_count", [0, 1, 17, 100])
def test_hot_mask_is_the_rank_compare_on_both_layouts(layout, hot_count):
    """Both layouts cache the ``hot_count`` hottest rows of a rank-ordered
    table, so hotness is ``state < hot_count`` whatever the layout."""
    mm = MemoryModel(device=RTX3090, hot_state_count=hot_count, layout=layout)
    rng = np.random.default_rng(hot_count)
    for shape in [(0,), (7,), (5, 64)]:
        states = rng.integers(0, 100, size=shape).astype(np.int32)
        got = mm.hot_mask(states)
        assert got.dtype == bool and got.shape == states.shape
        np.testing.assert_array_equal(got, states < hot_count)
