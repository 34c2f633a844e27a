"""Hopcroft minimization tests: language preservation and minimality."""

import numpy as np
import pytest

import repro.automata.minimize as minimize
from repro.automata.dfa import DFA
from repro.automata.minimize import (
    _restrict_to_reachable,
    canonical_fingerprint,
    canonical_form,
    minimize_dfa,
)
from repro.automata.properties import reachable_states
from repro.automata.regex import compile_regex
from repro.workloads import classic
from repro.workloads.suites import build_member


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


def test_every_hash_key_colliding_falls_back_to_exact_grouping(monkeypatch, rng):
    """Zero weights give every row the same key, so the column pass and each
    round's signature rows must take the exact ``np.unique(axis=0)``
    fallback; the canonical form stays byte-identical."""
    dfas = [
        classic.keyword_scanner(b"abc"),
        compile_regex("a(b|c){1,3}d", n_symbols=128, minimize=False),
    ] + [
        DFA(table=rng.integers(0, 12, size=(12, 4)), start=0, accepting={1, 5})
        for _ in range(4)
    ]
    expected = [canonical_form(dfa) for dfa in dfas]
    group_rows, calls = minimize.group_rows, []

    def spy(rows):
        first, inv = group_rows(rows)
        n_groups = np.unique(rows, axis=0).shape[0]
        assert first.size == n_groups
        np.testing.assert_array_equal(rows[first[inv]], rows)
        calls.append(n_groups > 1)  # the keys alone would give one group
        return first, inv

    monkeypatch.setattr(minimize, "_hash_weights", lambda width: np.zeros(width, np.int64))
    monkeypatch.setattr(minimize, "group_rows", spy)
    for dfa, want in zip(dfas, expected):
        calls.clear()
        got = canonical_form(dfa)
        assert got == want and got.fingerprint() == want.fingerprint()
        # The first call groups the columns, the rest are refinement rounds.
        assert len(calls) >= 2 and calls[0] and any(calls[1:])


# canonical_fingerprint at the commit before signature rows were hashed.
POWEREN_GOLDENS = {
    1: "23677520e3ec91a564e6e85f74a834048fe3fe39eb179c2baa01aea9b2e61413",
    2: "b698289df69ebc7e60a7b24a0fa48ca635a6f0dd6a1ce6c1176fbb7211c456f2",
    3: "d4c123bf5a4fad3ffdee871a7f80f066d713c6a836a65db110ed04c4343bae2f",
    4: "1bda572ed2b57978456665a58bc205f0b4622db9ee153f51a374d50144ea91c4",
    10: "61f015278b10fb0d0077b9de40adb9ad0666ea3a958a3f65cb451b1058b5229f",
}


@pytest.mark.parametrize("index", sorted(POWEREN_GOLDENS))
def test_canonical_fingerprint_goldens(index):
    dfa = build_member("poweren", index).dfa
    assert canonical_fingerprint(dfa) == POWEREN_GOLDENS[index]
