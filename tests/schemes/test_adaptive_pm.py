"""Adaptive spec-k extension tests (per-chunk path count)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.schemes import PMScheme
from repro.speculation.predictor import Prediction
from repro.workloads import classic
from repro.workloads.components import counter_component
from repro.automata.dfa import DFA
from repro.errors import SchemeError


@pytest.fixture(scope="module")
def easy_case():
    d = classic.keyword_scanner(b"token")
    rng = np.random.default_rng(1)
    data = bytes(rng.integers(97, 123, size=1600).astype(np.uint8))
    training = bytes(rng.integers(97, 123, size=400).astype(np.uint8))
    return d, data, training


@pytest.fixture(scope="module")
def hard_case():
    comp = counter_component(10, n_symbols=64, seed=4)
    d = DFA(table=comp.table, start=0, accepting=frozenset({0}))
    rng = np.random.default_rng(2)
    data = bytes(rng.integers(0, 64, size=1600).astype(np.uint8))
    training = bytes(rng.integers(0, 64, size=400).astype(np.uint8))
    return d, data, training


def run(case, **kw):
    dfa, data, training = case
    scheme = PMScheme.for_dfa(dfa, n_threads=16, training_input=training, **kw)
    result = scheme.run(data)
    assert result.end_state == dfa.run(data)
    return result


def test_adaptive_correct_on_both_cases(easy_case, hard_case):
    run(easy_case, k=4, adaptive=True)
    run(hard_case, k=4, adaptive=True)


def test_adaptive_cheaper_on_easy_fsm(easy_case):
    """Concentrated queues -> adaptive drops to ~1 path per chunk."""
    static = run(easy_case, k=4)
    adaptive = run(easy_case, k=4, adaptive=True)
    assert adaptive.stats.transitions <= static.stats.transitions


def test_adaptive_keeps_paths_on_hard_fsm(hard_case):
    """Uniform queues -> adaptive retains the full k coverage."""
    static = run(hard_case, k=4)
    adaptive = run(hard_case, k=4, adaptive=True)
    # Same speculative coverage: no accuracy regression.
    assert (
        adaptive.stats.runtime_speculation_accuracy
        >= static.stats.runtime_speculation_accuracy - 1e-9
    )


def paths_for_queue(weights, k, adaptive, mass):
    """How many top candidates one chunk runs, computed on that chunk's
    queue alone — the per-chunk rule ``PMScheme`` applied before it read
    every chunk's count off the CSR arrays at once (the reference)."""
    if not adaptive:
        return min(k, weights.size)
    total = float(weights.sum())
    if total <= 0:
        return min(k, weights.size)
    covered = np.cumsum(weights[:k].astype(np.float64)) / total
    needed = int(np.searchsorted(covered, mass) + 1)
    return min(max(1, min(k, needed)), weights.size)


@settings(max_examples=150, deadline=None)
@given(
    queues=st.lists(
        st.lists(st.integers(min_value=0, max_value=9), max_size=12),
        min_size=1,
        max_size=20,
    ),
    k=st.integers(min_value=1, max_value=6),
    adaptive=st.booleans(),
    mass=st.sampled_from([1e-9, 0.25, 0.5, 0.9, 1 / 3, 2 / 3, 1.0]),
)
@example(queues=[[1, 0, 0], [0, 0], [], [3, 3, 2], [5]], k=3, adaptive=True, mass=0.9)
def test_paths_run_equals_per_queue_rule(queues, k, adaptive, mass):
    """Vectorized path counts == the per-queue rule, on queues with ties,
    zero weights, all-zero and empty queues, and masses landing exactly on
    a cumulative share."""
    queues = [sorted(q, reverse=True) for q in queues]
    sizes = [len(q) for q in queues]
    prediction = Prediction.from_arrays(
        np.array([s for q in queues for s in range(len(q))], dtype=np.int64),
        np.array([w for q in queues for w in q], dtype=np.int64),
        np.concatenate(([0], np.cumsum(sizes))),
    )
    scheme = PMScheme.__new__(PMScheme)
    scheme.k, scheme.adaptive, scheme.adaptive_mass = k, adaptive, mass
    expected = [
        paths_for_queue(np.array(q, dtype=np.int64), k, adaptive, mass) for q in queues
    ]
    assert scheme._paths_run(prediction).tolist() == expected


def test_adaptive_name():
    from repro.workloads import classic

    d = classic.parity()
    scheme = PMScheme.for_dfa(d, n_threads=4, training_input=b"1100", adaptive=True)
    assert scheme.name == "pm-adaptive4"


def test_adaptive_mass_validation():
    d = classic.parity()
    with pytest.raises(SchemeError):
        PMScheme.for_dfa(d, n_threads=4, training_input=b"11", adaptive_mass=0.0)
