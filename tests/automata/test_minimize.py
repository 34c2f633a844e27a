"""Hopcroft minimization tests: language preservation and minimality."""

import numpy as np
import pytest

from repro.automata.dfa import DFA
from repro.automata.minimize import _restrict_to_reachable, minimize_dfa
from repro.automata.properties import reachable_states
from repro.automata.regex import compile_regex
from repro.workloads import classic


def language_equal(a: DFA, b: DFA, rng, samples: int = 300, max_len: int = 20) -> bool:
    lo, hi = (97, min(a.n_symbols, 123)) if a.n_symbols > 97 else (0, a.n_symbols)
    for _ in range(samples):
        s = rng.integers(lo, hi, size=int(rng.integers(0, max_len))).astype(np.uint8)
        if a.accepts(s) != b.accepts(s):
            return False
    return True


def test_already_minimal_is_fixed_point(div7, rng):
    m = minimize_dfa(div7)
    assert m.n_states == 7
    assert language_equal(m, div7, rng)


def test_removes_unreachable_states():
    # State 2 is unreachable.
    table = np.array([[1, 0], [0, 1], [2, 2]], dtype=np.int32)
    dfa = DFA(table=table, start=0, accepting={1})
    m = minimize_dfa(dfa)
    assert m.n_states == 2


@pytest.mark.parametrize(
    "make",
    [classic.div7, lambda: classic.keyword_scanner(b"abcab"),
     lambda: classic.cyclic_rotator(9, n_symbols=16)],
    ids=["div7", "keyword", "rotator"],
)
def test_restrict_to_reachable_drops_exactly_the_unreachable(make):
    """Junk states mixed into a reachable DFA (pointing anywhere, never
    pointed to) are dropped, and the reachable ones keep their order: the
    original DFA comes back bit for bit."""
    dfa = make()
    rng = np.random.default_rng(7)
    n, junk = dfa.n_states, 5
    order = rng.permutation(n + junk)  # order[new] = old id, junk >= n
    new_id = np.argsort(order)
    table = rng.integers(0, n + junk, size=(n + junk, dfa.n_symbols))
    real = order < n
    table[real] = new_id[dfa.table[order[real]]]
    mixed = DFA(
        table=table.astype(dfa.table.dtype),
        start=int(new_id[dfa.start]),
        accepting={int(new_id[s]) for s in dfa.accepting}
        | {int(new_id[n])},  # an unreachable accepting state
        name=dfa.name,
    )
    np.testing.assert_array_equal(reachable_states(mixed), np.sort(new_id[:n]))
    restricted = _restrict_to_reachable(mixed)
    back = order[np.sort(new_id[:n])]  # restricted id -> original id
    assert restricted.n_states == n
    np.testing.assert_array_equal(
        back[restricted.table][np.argsort(back)], dfa.table
    )
    assert int(back[restricted.start]) == dfa.start
    assert {int(back[s]) for s in restricted.accepting} == set(dfa.accepting)
    assert _restrict_to_reachable(dfa) is dfa


def test_merges_equivalent_states(rng):
    # Two copies of the same accepting sink are equivalent.
    table = np.array(
        [
            [1, 2],  # start: 'a'->sink1, 'b'->sink2
            [1, 1],
            [2, 2],
        ],
        dtype=np.int32,
    )
    dfa = DFA(table=table, start=0, accepting={1, 2})
    m = minimize_dfa(dfa)
    assert m.n_states == 2
    assert language_equal(m, dfa, rng, max_len=6)


def test_all_states_equivalent_collapses_to_one():
    table = np.array([[1, 1], [0, 0]], dtype=np.int32)
    dfa = DFA(table=table, start=0, accepting=frozenset())
    m = minimize_dfa(dfa)
    assert m.n_states == 1
    assert not m.accepting


def test_all_accepting_collapses_to_one():
    table = np.array([[1, 1], [0, 0]], dtype=np.int32)
    dfa = DFA(table=table, start=0, accepting={0, 1})
    m = minimize_dfa(dfa)
    assert m.n_states == 1
    assert m.accepting == frozenset({0})


def test_minimized_no_larger_and_language_preserved(rng):
    dfa = compile_regex("a(b|c){1,3}d", n_symbols=128, minimize=False)
    m = minimize_dfa(dfa)
    assert m.n_states <= dfa.n_states
    assert language_equal(m, dfa, rng)


def test_minimize_is_idempotent(rng):
    dfa = compile_regex("(ab|cd)+e", n_symbols=128, minimize=False)
    m1 = minimize_dfa(dfa)
    m2 = minimize_dfa(m1)
    assert m1.n_states == m2.n_states
    assert language_equal(m1, m2, rng)


def test_duplicate_columns_fast_path(rng):
    # A 256-symbol scanner: almost all columns identical — exercises the
    # distinct-column reduction path.
    dfa = classic.keyword_scanner(b"abc")
    m = minimize_dfa(dfa)
    assert m.n_symbols == dfa.n_symbols
    assert language_equal(m, dfa, rng)


def test_start_state_is_zero_after_minimize():
    dfa = compile_regex("ab", n_symbols=128, minimize=False)
    m = minimize_dfa(dfa)
    assert m.start == 0
