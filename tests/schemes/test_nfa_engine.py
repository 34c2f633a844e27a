"""The state-parallel NFA engine against set-based NFA simulation.

The engine steps :func:`~repro.automata.nfa.pack_nfa`'s packed rows; these
properties pin its accepts to :meth:`NFA.accepts` and its per-step active
counts (read off the ledger) to ``|ε-closure(move(…))|``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.nfa import EPSILON, NFA, pack_nfa
from repro.automata.regex import regex_to_nfa
from repro.errors import SchemeError
from repro.schemes.nfa_engine import NFAEngine


def build_sample_nfa() -> NFA:
    nfa = NFA(n_symbols=4)
    s = [nfa.add_state() for _ in range(5)]
    nfa.start = s[0]
    nfa.add_transition(s[0], 0, s[1])
    nfa.add_transition(s[0], EPSILON, s[2])
    nfa.add_transition(s[1], 1, s[3])
    nfa.add_transition(s[2], 1, s[4])
    nfa.add_transition(s[4], EPSILON, s[3])
    nfa.accepting = {s[3]}
    return nfa


def step_counts(engine: NFAEngine, symbols) -> np.ndarray:
    """Active states before each symbol: the ledger's transition total
    grows by exactly that count per step, so prefix runs recover it."""
    symbols = list(symbols)
    totals = [
        engine.run(symbols[:k]).stats.transitions for k in range(len(symbols) + 1)
    ]
    return np.diff(totals)


def oracle_counts(nfa: NFA, symbols) -> list:
    """``|ε-closure(move(…))|`` after each prefix, by set simulation."""
    symbols = list(symbols)
    return [len(nfa.run(symbols[:j])) for j in range(len(symbols))]


class TestPackedRows:
    def test_epsilon_closure_in_start(self):
        start = pack_nfa(build_sample_nfa()).start
        bits = np.unpackbits(start, bitorder="little")
        assert set(np.flatnonzero(bits).tolist()) == {0, 2}

    def test_more_than_64_states(self):
        nfa = NFA(n_symbols=2)
        for _ in range(130):
            nfa.add_state()
        nfa.add_transition(0, 0, 129)
        nfa.accepting = {129}
        packed = pack_nfa(nfa)
        assert packed.start.shape == (17,)
        engine = NFAEngine(nfa)
        assert engine.run([0]).accepts
        assert not engine.run([1]).accepts
        assert step_counts(engine, [0, 0]).tolist() == [1, 1]  # {0}, then {129}

    def test_empty_nfa_rejected(self):
        with pytest.raises(SchemeError):
            NFAEngine(NFA(n_symbols=2))


class TestEquivalence:
    def test_accept_through_epsilon(self):
        # 0 -ε-> 2 -1-> 4 -ε-> 3 (accepting)
        assert NFAEngine(build_sample_nfa()).run([1]).accepts

    def test_matches_nfa_on_enumerated_inputs(self):
        nfa = build_sample_nfa()
        engine = NFAEngine(nfa)
        for length in range(4):
            for seq in itertools.product(range(4), repeat=length):
                assert engine.run(list(seq)).accepts == nfa.accepts(list(seq)), seq

    @pytest.mark.parametrize("pattern", ["a(b|c)*d", "(ab)+", "x?y{2,3}"])
    def test_matches_regex_nfa(self, pattern, rng):
        nfa = regex_to_nfa(pattern, n_symbols=128)
        engine = NFAEngine(nfa)
        for _ in range(100):
            s = rng.integers(97, 123, size=int(rng.integers(0, 12))).astype(np.uint8)
            assert engine.run(s).accepts == nfa.accepts(s), s

    def test_per_step_counts(self):
        nfa = build_sample_nfa()
        counts = step_counts(NFAEngine(nfa), [0, 1])
        assert counts.tolist() == [2, 1]  # {0, 2}, then {1}
        assert counts.tolist() == oracle_counts(nfa, [0, 1])

    def test_dead_input(self):
        engine = NFAEngine(build_sample_nfa())
        result = engine.run([3, 3])
        assert not result.accepts
        assert step_counts(engine, [3, 3]).tolist() == [2, 0]


def _random_nfa(n: int, rng) -> NFA:
    nfa = NFA(n_symbols=4)
    for _ in range(n):
        nfa.add_state()
    n_edges = int(rng.integers(0, 3 * n + 1))
    for _ in range(n_edges):
        src, dst = int(rng.integers(0, n)), int(rng.integers(0, n))
        sym = int(rng.integers(-1, 4))
        nfa.add_transition(src, EPSILON if sym < 0 else sym, dst)
    nfa.start = 0
    n_acc = int(rng.integers(0, n + 1))
    nfa.accepting = set(rng.choice(n, size=n_acc, replace=False).tolist())
    return nfa


@st.composite
def random_nfa(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return _random_nfa(n, np.random.default_rng(seed)), seed


@settings(max_examples=50, deadline=None)
@given(random_nfa())
def test_engine_equals_set_simulation(case):
    nfa, seed = case
    engine = NFAEngine(nfa)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        s = rng.integers(0, 4, size=int(rng.integers(0, 10))).astype(np.uint8)
        assert engine.run(s).accepts == nfa.accepts(s)
        assert step_counts(engine, s).tolist() == oracle_counts(nfa, s)


@pytest.mark.parametrize("n", [65, 130])
def test_wide_epsilon_nfa_equals_set_simulation(n):
    """Rows spanning several 64-bit words, with ε-edges."""
    rng = np.random.default_rng(n)
    nfa = _random_nfa(n, rng)
    engine = NFAEngine(nfa)
    for _ in range(5):
        s = rng.integers(0, 4, size=12).astype(np.uint8)
        assert engine.run(s).accepts == nfa.accepts(s)
        assert step_counts(engine, s).tolist() == oracle_counts(nfa, s)
