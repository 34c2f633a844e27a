"""The state-set replay against the lane-per-state replay it replaced.

``per_lane_queues`` is the former ``predict_start_states``: distinct windows
found with a Python set, each replayed from *every* state in blocks of
``(windows × n_states)`` lanes, counted with one ``bincount`` and ranked
with one ``lexsort``.  It stays here as the oracle; the shipped replay —
either side of ``PER_LANE_REPLAY`` — must give the same queues, compared as
``(states, weights)`` in queue order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import DFA, STATE_DTYPE
from repro.speculation import predictor
from repro.speculation.chunks import partition_input
from repro.speculation.predictor import predict_start_states
from tests.conftest import queue_lists


def _rank_windows_per_lane(table, windows, block_elements=1 << 16):
    n_windows, width = windows.shape
    n_states = table.shape[0]
    block = max(1, block_elements // n_states)
    ranked = []
    for lo in range(0, n_windows, block):
        symbols = windows[lo : lo + block]
        n_rows = symbols.shape[0]
        if width == 0:
            ends = np.broadcast_to(
                np.arange(n_states, dtype=STATE_DTYPE), (n_rows, n_states)
            )
        else:
            first, which = np.unique(symbols[:, 0], return_inverse=True)
            ends = table[:, first].T[which]
        for k in range(1, width):
            ends = table[ends, symbols[:, k, None]]
        keys = ends + (np.arange(n_rows, dtype=np.int64) * n_states)[:, None]
        counts = np.bincount(keys.ravel(), minlength=n_rows * n_states)
        reached = np.flatnonzero(counts)
        row, states = np.divmod(reached, n_states)
        weights = counts[reached]
        order = np.lexsort((states, -weights, row))
        states, weights = states[order], weights[order]
        bounds = np.searchsorted(row, np.arange(n_rows + 1)).tolist()
        ranked.extend(
            (states[a:b], weights[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
        )
    return ranked


def per_lane_queues(dfa, partition, start_state, lookback):
    """Every chunk's ``(states, weights)`` the way the replay used to
    compute them (the reference)."""
    queues = [None] * partition.n_chunks
    queues[0] = ([start_state], [dfa.n_states])
    tails = np.minimum(np.asarray(partition.lengths[:-1], dtype=np.int64), lookback)
    for width in sorted(set(tails.tolist())):
        boundaries = np.flatnonzero(tails == width) + 1
        rows = boundaries - 1
        cols = (partition.lengths[rows] - width)[:, None] + np.arange(width)
        windows = [tuple(w) for w in partition.chunks[rows[:, None], cols].tolist()]
        distinct = sorted(set(windows))
        ranked = dict(
            zip(
                distinct,
                _rank_windows_per_lane(
                    dfa.table,
                    np.array(distinct, dtype=np.int64).reshape(len(distinct), width),
                ),
            )
        )
        for i, window in zip(boundaries.tolist(), windows):
            states, weights = ranked[window]
            queues[i] = (states.tolist(), weights.tolist())
    return queues


def _table(kind, n_states, n_symbols, rng):
    if kind == "permutation":  # every symbol a bijection: no convergence
        return np.stack([rng.permutation(n_states) for _ in range(n_symbols)], axis=1)
    table = rng.integers(0, n_states, size=(n_states, n_symbols))
    if kind == "sinks":  # a few absorbing states
        for s in rng.choice(n_states, size=min(3, n_states), replace=False):
            table[s] = s
    if kind == "converging":  # every column lands in a few states
        table %= max(1, n_states // 8)
    return table


@st.composite
def cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["random", "sinks", "permutation", "converging"]))
    n_states = draw(
        st.one_of(
            st.just(1),
            st.integers(min_value=2, max_value=40),
            st.integers(min_value=300, max_value=340),
        )
    )
    n_symbols = draw(st.sampled_from([1, 2, 5, 256]))
    dfa = DFA(table=_table(kind, n_states, n_symbols, rng), start=0)
    n_chunks = draw(st.integers(min_value=1, max_value=48))
    # From one symbol a chunk (windows shorter than the lookback) upward.
    size = draw(st.integers(min_value=n_chunks, max_value=n_chunks * 7))
    dtype = draw(st.sampled_from([np.uint8, np.int64]))
    data = rng.integers(0, n_symbols, size=size).astype(dtype)
    start = int(rng.integers(0, n_states))
    lookback = draw(st.sampled_from([0, 1, 2, 4]))
    return dfa, partition_input(data, n_chunks), start, lookback


def _assert_equals_reference(dfa, partition, start, lookback):
    pred = predict_start_states(dfa, partition, start_state=start, lookback=lookback)
    expected = per_lane_queues(dfa, partition, start, lookback)
    assert queue_lists(pred) == expected
    assert pred.states.dtype == np.int64 and pred.weights.dtype == np.int64
    assert pred.cursors.tolist() == [0] * partition.n_chunks


@pytest.mark.parametrize(
    "per_lane_replay", [0, predictor.PER_LANE_REPLAY, 1 << 40], ids=["sets", "shipped", "lanes"]
)
@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_replay_equals_per_lane_reference(per_lane_replay, case):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(predictor, "PER_LANE_REPLAY", per_lane_replay)
        _assert_equals_reference(*case)


@settings(max_examples=40, deadline=None)
@given(case=cases(), budget=st.sampled_from([1, 7, 300, 1 << 18]))
def test_column_block_budget_does_not_change_the_queues(case, budget):
    """The first symbol's columns counted one a block or all at once."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(predictor, "PER_LANE_REPLAY", 0)
        patch.setattr(predictor, "REPLAY_BLOCK_ELEMENTS", budget)
        _assert_equals_reference(*case)


@pytest.mark.parametrize("member", [1, 10])
def test_suite_member_at_suite_scale(member):
    """A PowerEN member at the benchmark's shape: 256 chunks of a 64 KiB
    feed (~190 distinct windows over up to 6 144 states)."""
    from repro.workloads.suites import build_member

    m = build_member("poweren", member)
    data = np.frombuffer(bytes(m.generate_input(65536, seed=5)), dtype=np.uint8)
    partition = partition_input(data, 256)
    assert 255 * m.dfa.n_states > predictor.PER_LANE_REPLAY
    _assert_equals_reference(m.dfa, partition, 3, 2)
