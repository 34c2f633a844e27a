"""Property-based tests (hypothesis): scheme correctness and FSM invariants
over randomly generated automata and inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import DFA, run_lockstep
from repro.automata.minimize import minimize_dfa
from repro.schemes import NFScheme, PMScheme, RRScheme, SpecSequentialScheme, SREScheme
from repro.speculation.chunks import partition_input
from repro.speculation.predictor import predict_start_states, true_start_states
from tests.conftest import queue_lists

N_SYMBOLS = 8


@st.composite
def random_dfa(draw):
    """A random complete DFA over a small alphabet."""
    n_states = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    table = rng.integers(0, n_states, size=(n_states, N_SYMBOLS)).astype(np.int32)
    n_acc = draw(st.integers(min_value=0, max_value=n_states))
    accepting = frozenset(rng.choice(n_states, size=n_acc, replace=False).tolist())
    return DFA(table=table, start=0, accepting=accepting, name=f"rand{seed % 1000}")


@st.composite
def dfa_and_stream(draw, min_len=16, max_len=200):
    dfa = draw(random_dfa())
    length = draw(st.integers(min_value=min_len, max_value=max_len))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    data = rng.integers(0, N_SYMBOLS, size=length).astype(np.uint8)
    return dfa, data


@settings(max_examples=40, deadline=None)
@given(dfa_and_stream())
def test_lockstep_equals_scalar(case):
    dfa, data = case
    chunks = data[: len(data) // 4 * 4].reshape(4, -1)
    starts = np.arange(4) % dfa.n_states
    ends = run_lockstep(dfa.table, chunks, starts)
    for t in range(4):
        assert ends[t] == dfa.run(chunks[t], start=int(starts[t]))


@settings(max_examples=30, deadline=None)
@given(dfa_and_stream(min_len=32))
def test_minimization_preserves_membership(case):
    dfa, data = case
    m = minimize_dfa(dfa)
    assert m.n_states <= dfa.n_states
    assert m.accepts(data) == dfa.accepts(data)
    # Prefix invariance too (stronger than a single end check).
    for cut in (0, len(data) // 2, len(data)):
        assert m.accepts(data[:cut]) == dfa.accepts(data[:cut])


@settings(max_examples=25, deadline=None)
@given(dfa_and_stream(min_len=40))
def test_predictor_queue_always_contains_truth(case):
    """State convergence property: the true start state is always in QS_i."""
    dfa, data = case
    p = partition_input(data, 8)
    queues = queue_lists(predict_start_states(dfa, p))
    truth = true_start_states(dfa, p)
    for i in range(1, 8):
        assert int(truth[i]) in queues[i][0]


@settings(max_examples=20, deadline=None)
@given(dfa_and_stream(min_len=40))
def test_spec_seq_and_sre_match_sequential(case):
    dfa, data = case
    truth = dfa.run(data)
    training = data[: max(8, len(data) // 4)]
    for cls in (SpecSequentialScheme, SREScheme):
        scheme = cls.for_dfa(dfa, n_threads=8, training_input=training)
        assert scheme.run(data).end_state == truth


@settings(max_examples=20, deadline=None)
@given(dfa_and_stream(min_len=40))
def test_aggressive_schemes_match_sequential(case):
    dfa, data = case
    truth = dfa.run(data)
    training = data[: max(8, len(data) // 4)]
    for cls in (RRScheme, NFScheme, PMScheme):
        scheme = cls.for_dfa(dfa, n_threads=8, training_input=training)
        assert scheme.run(data).end_state == truth


@settings(max_examples=25, deadline=None)
@given(dfa_and_stream(min_len=16), st.integers(min_value=1, max_value=8))
def test_chunking_roundtrip(case, n_chunks):
    _, data = case
    if len(data) < n_chunks:
        return
    p = partition_input(data, n_chunks)
    rebuilt = np.concatenate([p.chunk(i) for i in range(n_chunks)])
    assert np.array_equal(rebuilt, data)


@settings(max_examples=25, deadline=None)
@given(dfa_and_stream(min_len=20))
def test_composition_property(case):
    """run(a ++ b) == run(b, start=run(a)) — the fact all chunk-parallel
    schemes rely on."""
    dfa, data = case
    cut = len(data) // 2
    mid = dfa.run(data[:cut])
    assert dfa.run(data) == dfa.run(data[cut:], start=mid)


@settings(max_examples=20, deadline=None)
@given(random_dfa(), st.integers(min_value=0, max_value=2**31 - 1))
def test_renumbering_preserves_language(dfa, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dfa.n_states)
    other = dfa.renumbered(perm)
    data = rng.integers(0, N_SYMBOLS, size=64).astype(np.uint8)
    assert other.accepts(data) == dfa.accepts(data)
