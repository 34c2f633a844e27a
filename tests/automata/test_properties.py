"""Tests for FSM property profiling (frequencies, convergence)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import DFA
from repro.automata.properties import (
    convergence_profile,
    distinct_per_row,
    profile_state_frequencies,
    reachable_states,
    unique_states_after,
)
from repro.errors import AutomatonError
from repro.selector.features import reachable_width
from repro.workloads import classic


class TestFrequencies:
    def test_counts_sum_to_path_length(self, div7, rng):
        data = bytes(rng.integers(48, 50, size=500).astype(np.uint8))
        prof = profile_state_frequencies(div7, data)
        assert prof.counts.sum() == 501  # path includes the start state
        assert prof.sample_length == 500

    def test_order_is_hottest_first(self, div7, rng):
        data = bytes(rng.integers(48, 50, size=1000).astype(np.uint8))
        prof = profile_state_frequencies(div7, data)
        counts_in_order = prof.counts[prof.order]
        assert (np.diff(counts_in_order) <= 0).all()

    def test_frequencies_normalized(self, div7):
        prof = profile_state_frequencies(div7, b"1010")
        assert prof.frequencies.sum() == pytest.approx(1.0)

    def test_rank_inverts_order(self, div7):
        prof = profile_state_frequencies(div7, b"101101")
        rank = prof.rank_of()
        assert np.array_equal(np.argsort(rank), prof.order)

    def test_empty_sample(self, div7):
        prof = profile_state_frequencies(div7, b"")
        assert prof.counts.sum() == 1  # just the start state


class TestConvergence:
    def test_rotator_never_converges(self):
        rot = classic.cyclic_rotator(9, n_symbols=16)
        assert unique_states_after(rot, np.arange(10, dtype=np.uint8) % 16) == 9

    def test_scanner_converges(self):
        d = classic.keyword_scanner(b"abcdef")
        # On a window with no keyword progress all states funnel to root or
        # stay absorbed: exactly two survivors.
        window = b"zzzzzzzzzz"
        assert unique_states_after(d, window) == 2

    def test_steps_argument_truncates(self, div7):
        w = b"1111111111"
        full = unique_states_after(div7, w)
        assert unique_states_after(div7, w, steps=0) == 7
        assert full <= 7

    def test_convergence_profile_shape(self, div7, rng):
        data = bytes(rng.integers(48, 50, size=400).astype(np.uint8))
        prof = convergence_profile(div7, data, steps=10, n_windows=8)
        assert prof.shape == (8,)
        assert (prof >= 1).all() and (prof <= 7).all()

    def test_convergence_profile_deterministic(self, div7, rng):
        data = bytes(rng.integers(48, 50, size=400).astype(np.uint8))
        a = convergence_profile(div7, data, seed=3)
        b = convergence_profile(div7, data, seed=3)
        assert np.array_equal(a, b)

    def test_too_short_input_raises(self, div7):
        with pytest.raises(AutomatonError):
            convergence_profile(div7, b"101", steps=10)


def convergence_profile_reference(dfa, training_input, steps=10, n_windows=32, seed=0):
    """The per-window loop ``convergence_profile`` replaced."""
    symbols = np.asarray(training_input)
    offsets = np.random.default_rng(seed).integers(
        0, len(symbols) - steps + 1, size=n_windows
    )
    return np.array(
        [unique_states_after(dfa, symbols[off : off + steps]) for off in offsets],
        dtype=np.int64,
    )


def reachable_width_reference(dfa, training_input, *, window=64, n_windows=4):
    """The per-window loop ``reachable_width`` replaced."""
    symbols = np.asarray(training_input)
    if symbols.size == 0:
        return float(dfa.n_states)
    window = max(1, min(int(window), symbols.size))
    n_windows = max(1, int(n_windows))
    if symbols.size <= window:
        offsets = [0]
    else:
        step = max(1, (symbols.size - window) // n_windows)
        offsets = list(range(0, symbols.size - window + 1, step))[:n_windows]
    widths = []
    for off in offsets:
        states = np.arange(dfa.n_states, dtype=np.int64)
        for sym in symbols[off : off + window]:
            states = dfa.table[states, int(sym)]
        widths.append(int(np.unique(states).size))
    return float(np.mean(widths))


@st.composite
def dfa_and_slice(draw):
    """A random DFA (one state allowed) and a non-empty slice over its alphabet."""
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    dfa = DFA(table=rng.integers(0, n, size=(n, k)), start=int(rng.integers(n)))
    length = draw(st.integers(min_value=1, max_value=80))
    return dfa, rng.integers(0, k, size=length).astype(np.uint8)


class TestBatchedWindows:
    """All windows step as one plane; the counts equal the per-window loops."""

    @settings(max_examples=120, deadline=None)
    @given(
        dfa_and_slice(),
        st.integers(min_value=0, max_value=80),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=9),
    )
    def test_convergence_profile_matches_the_loop(self, case, steps, n_windows, seed):
        dfa, symbols = case
        steps = min(steps, symbols.size)
        got = convergence_profile(dfa, symbols, steps=steps, n_windows=n_windows, seed=seed)
        want = convergence_profile_reference(dfa, symbols, steps, n_windows, seed)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @settings(max_examples=120, deadline=None)
    @given(
        dfa_and_slice(),
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=1, max_value=8),
    )
    def test_reachable_width_matches_the_loop(self, case, window, n_windows):
        dfa, symbols = case
        got = reachable_width(dfa, symbols, window=window, n_windows=n_windows)
        want = reachable_width_reference(dfa, symbols, window=window, n_windows=n_windows)
        assert got == want

    @pytest.mark.parametrize("n_windows", [1, 5])
    def test_a_window_as_long_as_the_slice(self, rotator, scanner_dfa, rng, n_windows):
        for dfa in (rotator, scanner_dfa, classic.cyclic_rotator(1, n_symbols=4)):
            symbols = rng.integers(0, 4, size=30).astype(np.uint8)
            assert convergence_profile(
                dfa, symbols, steps=30, n_windows=n_windows
            ).tolist() == convergence_profile_reference(
                dfa, symbols, 30, n_windows
            ).tolist()
            assert reachable_width(
                dfa, symbols, window=30, n_windows=n_windows
            ) == reachable_width_reference(dfa, symbols, window=30, n_windows=n_windows)

    @pytest.mark.parametrize(
        "shape", [(1, 1), (7, 1), (1, 9), (12, 5), (40, 33), (3, 200)]
    )
    @pytest.mark.parametrize("high", [1, 2, 6, 1000])
    def test_distinct_per_row_matches_the_unique_loop(self, shape, high):
        """SFA's merge width once ran ``np.unique`` per mapping row; the
        row-sort count must give the same counts and the same width."""
        rng = np.random.default_rng(shape[0] * 1009 + shape[1] * 31 + high)
        mappings = rng.integers(0, high, size=shape).astype(np.int32)
        mappings[0] = mappings[0, 0]  # an all-equal row
        loop = [len(np.unique(row)) for row in mappings]
        counts = distinct_per_row(mappings)
        assert counts.tolist() == loop
        assert int(np.mean(counts)) == int(np.mean(loop))
        assert np.mean(counts) == np.mean(loop)


class TestStructure:
    def test_reachable_states_full(self, div7):
        assert reachable_states(div7).size == 7

    def test_reachable_states_partial(self):
        import numpy as np
        from repro.automata.dfa import DFA

        table = np.array([[0, 0], [1, 1]], dtype=np.int32)
        dfa = DFA(table=table, start=0)
        assert reachable_states(dfa).tolist() == [0]

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.0, max_value=0.9),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_reachable_states_matches_a_set_bfs(self, n, k, p_loop, seed):
        # Self-loops at rate p_loop leave some states unreachable.
        rng = np.random.default_rng(seed)
        targets = rng.integers(0, n, size=(n, k))
        loops = rng.random((n, k)) < p_loop
        table = np.where(loops, np.arange(n)[:, None], targets)
        start = int(rng.integers(0, n))
        seen, queue = {start}, [start]
        while queue:
            for t in table[queue.pop()].tolist():
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        got = reachable_states(DFA(table=table, start=start))
        assert got.tolist() == sorted(seen)
