"""Property suite for the canonical-form layer.

Hypothesis-driven checks that the vectorized minimizer is a *canonical*
form: byte-level idempotent, invariant under state relabelling and
redundant-state inflation, differential against the reference Hopcroft
worklist implementation, and that :func:`are_equivalent` agrees with a
brute-force run-both-automata-on-random-strings oracle.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import DFA
from repro.automata.minimize import (
    _bfs_renumber,
    _minimize_reference,
    canonical_fingerprint,
    canonical_form,
    minimize_dfa,
)
from repro.automata.properties import are_equivalent

N_SYMBOLS = 5


@st.composite
def random_dfa(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    table = rng.integers(0, n, size=(n, N_SYMBOLS)).astype(np.int32)
    n_acc = draw(st.integers(min_value=0, max_value=n))
    accepting = frozenset(rng.choice(n, size=n_acc, replace=False).tolist())
    return DFA(table=table, start=0, accepting=accepting)


def _tables_identical(a: DFA, b: DFA) -> bool:
    return (
        a.n_states == b.n_states
        and a.start == b.start
        and a.accepting == b.accepting
        and np.array_equal(np.asarray(a.table), np.asarray(b.table))
    )


def _inflate(dfa: DFA, rng: np.random.Generator) -> DFA:
    """Language-preserving duplicate-state inflation (see scenarios.equivalent_variants)."""
    n, k = dfa.n_states, dfa.n_symbols
    s = int(rng.integers(0, n))
    table = np.vstack([np.asarray(dfa.table), dfa.table[s : s + 1]])
    body = table[:n]
    reroute = (body == s) & (rng.random((n, k)) < 0.5)
    body[reroute] = n
    accepting = set(dfa.accepting)
    if s in accepting:
        accepting.add(n)
    return DFA(table=table, start=dfa.start, accepting=frozenset(accepting))


@settings(max_examples=80, deadline=None)
@given(random_dfa())
def test_minimize_is_idempotent(dfa):
    """minimize(minimize(d)) is *byte-identical* to minimize(d)."""
    once = minimize_dfa(dfa)
    twice = minimize_dfa(once)
    assert _tables_identical(once, twice)
    assert once.fingerprint() == twice.fingerprint()


@settings(max_examples=80, deadline=None)
@given(random_dfa(), st.integers(min_value=0, max_value=2**31 - 1))
def test_canonical_form_invariant_under_relabelling(dfa, seed):
    """Any state permutation canonicalizes to bit-identical tables."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dfa.n_states)
    relabelled = dfa.renumbered(perm)
    a, b = canonical_form(dfa), canonical_form(relabelled)
    assert _tables_identical(a, b)
    assert canonical_fingerprint(dfa) == canonical_fingerprint(relabelled)


@settings(max_examples=60, deadline=None)
@given(random_dfa(), st.integers(min_value=0, max_value=2**31 - 1))
def test_canonical_form_invariant_under_inflation(dfa, seed):
    """Duplicating a state (same language, more states, different content
    fingerprint) leaves the canonical table bit-identical."""
    rng = np.random.default_rng(seed)
    inflated = _inflate(dfa, rng)
    assert _tables_identical(canonical_form(dfa), canonical_form(inflated))
    assert canonical_fingerprint(dfa) == canonical_fingerprint(inflated)


@settings(max_examples=80, deadline=None)
@given(random_dfa())
def test_vectorized_agrees_with_reference(dfa):
    """Differential: the vectorized minimizer and the reference Hopcroft
    worklist must agree on state count and language, and the canonical
    form must be the reference's quotient renumbered, byte for byte."""
    fast = minimize_dfa(dfa)
    ref = _minimize_reference(dfa)
    assert fast.n_states == ref.n_states
    assert are_equivalent(fast, ref)
    assert are_equivalent(fast, dfa)
    assert _tables_identical(canonical_form(dfa), _bfs_renumber(ref))


@settings(max_examples=60, deadline=None)
@given(random_dfa(), random_dfa(), st.integers(min_value=0, max_value=2**31 - 1))
def test_are_equivalent_agrees_with_string_oracle(a, b, seed):
    """are_equivalent vs. brute force: run both automata on random strings.

    If the product construction says "equivalent", every sampled string
    must agree; if it says "different", sampling may still miss a witness,
    so only the forward implication is asserted for random pairs."""
    rng = np.random.default_rng(seed)
    verdict = are_equivalent(a, b)
    disagreed = False
    for _ in range(40):
        s = rng.integers(0, N_SYMBOLS, size=int(rng.integers(0, 16)))
        s = s.astype(np.uint8)
        if a.accepts(s) != b.accepts(s):
            disagreed = True
            break
    if verdict:
        assert not disagreed
    if disagreed:
        assert not verdict


@settings(max_examples=40, deadline=None)
@given(random_dfa(), st.integers(min_value=0, max_value=2**31 - 1))
def test_are_equivalent_true_on_disguised_copies(dfa, seed):
    """Positive oracle: a relabelled + inflated copy is always judged
    equivalent, and a flipped-acceptance copy never is."""
    rng = np.random.default_rng(seed)
    disguised = _inflate(dfa.renumbered(rng.permutation(dfa.n_states)), rng)
    assert are_equivalent(dfa, disguised)
    flipped = DFA(
        table=np.asarray(dfa.table).copy(),
        start=dfa.start,
        accepting=frozenset(set(range(dfa.n_states)) - set(dfa.accepting)),
    )
    assert not are_equivalent(dfa, flipped)


def test_equivalence_rejects_alphabet_mismatch():
    one = DFA(table=np.zeros((1, 2), dtype=np.int32), start=0, accepting={0})
    two = DFA(table=np.zeros((1, 3), dtype=np.int32), start=0, accepting={0})
    assert not are_equivalent(one, two)
