"""The batched adaptive predictor against the per-boundary loop it replaced.

Both sides run on the same partition with their own ledger; the states,
weights and bounds of every queue and the charged predict cycles must be
identical (``adaptive_reference`` holds the former loop).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.automata.minimize as minimize
from repro.automata.dfa import DFA
from repro.errors import SchemeError
from repro.gpu.device import RTX3090, DeviceSpec
from repro.gpu.stats import KernelStats
from repro.speculation import predictor
from repro.speculation.chunks import partition_input
from repro.speculation.predictor import predict_adaptive
from tests.speculation.adaptive_reference import reference_adaptive

#: Few lanes, so a replay of a few states takes several device rounds.
TINY_DEVICE = DeviceSpec(name="tiny", n_sms=1, cores_per_sm=4)


def _assert_equals_reference(dfa, partition, device=RTX3090, **kwargs):
    got_stats = KernelStats(device=device)
    want_stats = KernelStats(device=device)
    got = predict_adaptive(dfa, partition, stats=got_stats, **kwargs)
    want = reference_adaptive(dfa, partition, stats=want_stats, **kwargs)
    np.testing.assert_array_equal(got.bounds, want.bounds)
    np.testing.assert_array_equal(got.states, want.states)
    np.testing.assert_array_equal(got.weights, want.weights)
    assert got.states.dtype == got.weights.dtype == got.bounds.dtype == np.int64
    assert got_stats.phase_cycles == want_stats.phase_cycles
    assert got_stats.cycles == want_stats.cycles


@st.composite
def cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    n_states = draw(st.integers(min_value=1, max_value=24))
    n_symbols = draw(st.sampled_from([1, 2, 3, 7]))
    table = rng.integers(0, n_states, size=(n_states, n_symbols))
    if draw(st.booleans()):  # every column lands in a few states
        table %= max(1, n_states // 6)
    dfa = DFA(table=table, start=0)
    n_chunks = draw(st.integers(min_value=1, max_value=20))
    # From one symbol a chunk (every window cut short) upward.
    size = draw(st.integers(min_value=n_chunks, max_value=n_chunks * 40))
    data = rng.integers(0, n_symbols, size=size).astype(np.uint8)
    kwargs = dict(
        start_state=draw(st.sampled_from([None, int(rng.integers(0, n_states))])),
        target_candidates=draw(
            st.sampled_from([1, 2, 4, max(1, n_states - 1), n_states, n_states + 1])
        ),
        max_window=draw(st.sampled_from([1, 2, 3, 5, 8, 16, 33])),
        device=draw(st.sampled_from([RTX3090, TINY_DEVICE])),
    )
    return dfa, partition_input(data, n_chunks), kwargs


@pytest.mark.parametrize(
    "per_lane_replay", [0, predictor.PER_LANE_REPLAY], ids=["sets", "shipped"]
)
@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_adaptive_equals_per_boundary_reference(per_lane_replay, case):
    dfa, partition, kwargs = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(predictor, "PER_LANE_REPLAY", per_lane_replay)
        _assert_equals_reference(dfa, partition, **kwargs)


@pytest.mark.parametrize("collide", [False, True], ids=["hashed", "all-keys-collide"])
@pytest.mark.parametrize("n_chunks", [7, 128])
def test_distinct_window_replay_equals_reference(collide, n_chunks, monkeypatch):
    """A 64-state automaton over 128 chunks replays each distinct window
    once (past ``PER_LANE_REPLAY``); with every hash key colliding,
    ``group_rows`` takes its exact fallback and nothing changes."""
    rng = np.random.default_rng(n_chunks)
    table = rng.integers(0, 64, size=(64, 4))
    table[:, 0] %= 5  # symbol 0 converges onto five states
    dfa = DFA(table=table, start=0)
    data = rng.integers(0, 4, size=40 * n_chunks).astype(np.uint8)
    partition = partition_input(data, n_chunks)
    if collide:
        monkeypatch.setattr(minimize, "_hash_weights", lambda width: np.zeros(width, np.int64))
    for target, window in [(1, 16), (4, 16), (2, 1), (64, 4)]:
        _assert_equals_reference(
            dfa, partition, target_candidates=target, max_window=window
        )


def test_single_chunk_charges_nothing():
    dfa = DFA(table=np.array([[1, 0], [0, 1]]), start=0)
    _assert_equals_reference(dfa, partition_input(np.array([1, 0, 1], np.uint8), 1))


@pytest.mark.parametrize("bad", [dict(target_candidates=0), dict(max_window=0)])
def test_validation_matches_reference(bad):
    dfa = DFA(table=np.array([[1, 0], [0, 1]]), start=0)
    partition = partition_input(np.array([1, 0, 1, 1], np.uint8), 2)
    for fn in (predict_adaptive, reference_adaptive):
        with pytest.raises(SchemeError):
            fn(dfa, partition, **bad)
