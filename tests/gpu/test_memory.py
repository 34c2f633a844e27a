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


def test_hash_layout_with_explicit_ids():
    mm = MemoryModel(
        device=RTX3090,
        hot_state_count=2,
        layout=TableLayout.HASH,
        hot_state_ids=frozenset({5, 9}),
    )
    states = np.array([0, 5, 9, 10])
    assert mm.hot_mask(states).tolist() == [False, True, True, False]


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


def test_empty_hash_set_all_cold():
    mm = MemoryModel(
        device=RTX3090,
        hot_state_count=4,
        layout=TableLayout.HASH,
        hot_state_ids=frozenset(),
    )
    assert not mm.hot_mask(np.arange(6)).any()


def _hot_mask_reference(mm, states):
    """``hot_mask`` as it was: the id array rebuilt and ``np.isin`` per call."""
    states = np.asarray(states)
    if mm.hot_state_count == 0:
        return np.zeros(states.shape, dtype=bool)
    if mm.layout is TableLayout.HASH and mm.hot_state_ids is not None:
        if len(mm.hot_state_ids) == 0:
            return np.zeros(states.shape, dtype=bool)
        ids = np.fromiter(mm.hot_state_ids, dtype=np.int64)
        return np.isin(states, ids)
    return states < mm.hot_state_count


@pytest.mark.parametrize(
    "layout, hot_count, ids",
    [
        (TableLayout.RANK, 0, None),
        (TableLayout.RANK, 17, None),
        (TableLayout.HASH, 17, None),  # ids < hot_state_count assumed
        (TableLayout.HASH, 17, frozenset()),  # an empty hot set
        (TableLayout.HASH, 0, frozenset({3})),
        (TableLayout.HASH, 4, frozenset({0, 5, 33, 80})),  # ids past the count
        (TableLayout.HASH, 3, frozenset({99})),  # the largest possible state
        (TableLayout.HASH, 40, frozenset(range(0, 100, 3))),
    ],
)
def test_hot_mask_equals_per_call_rebuild(layout, hot_count, ids):
    mm = MemoryModel(
        device=RTX3090, hot_state_count=hot_count, layout=layout, hot_state_ids=ids
    )
    rng = np.random.default_rng(hot_count)
    for shape in [(0,), (7,), (5, 64)]:
        states = rng.integers(0, 100, size=shape).astype(np.int32)
        got = mm.hot_mask(states)
        expected = _hot_mask_reference(mm, states)
        assert got.dtype == bool and got.shape == states.shape
        np.testing.assert_array_equal(got, expected)
    assert mm == MemoryModel(
        device=RTX3090, hot_state_count=hot_count, layout=layout, hot_state_ids=ids
    )
