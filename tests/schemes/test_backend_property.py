"""Property-based cross-backend equivalence: random DFAs × random inputs.

For every scheme, the answer-only ``fast`` backend and the cycle-accurate
``sim`` backend must produce identical end states — and both must agree
with the plain sequential oracle (``DFA.run``).  Hypothesis drives the DFA
shape, the transition table, the accepting set, the input and the thread
count; shrinking therefore hands back a minimal (table, input) witness on
failure.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import DFA
from repro.schemes import (
    NFScheme,
    PMScheme,
    RRScheme,
    SequentialScheme,
    SFAScheme,
    SpecSequentialScheme,
    SREScheme,
)

ALL_SCHEMES = [
    SequentialScheme,
    SpecSequentialScheme,
    PMScheme,
    SREScheme,
    RRScheme,
    NFScheme,
    SFAScheme,
]


@st.composite
def dfa_and_input(draw):
    n_states = draw(st.integers(min_value=2, max_value=8))
    n_symbols = draw(st.integers(min_value=2, max_value=6))
    table = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=n_states - 1),
                min_size=n_symbols,
                max_size=n_symbols,
            ),
            min_size=n_states,
            max_size=n_states,
        )
    )
    accepting = draw(
        st.sets(
            st.integers(min_value=0, max_value=n_states - 1), min_size=1
        )
    )
    start = draw(st.integers(min_value=0, max_value=n_states - 1))
    n_threads = draw(st.integers(min_value=1, max_value=5))
    symbols = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_symbols - 1),
            min_size=n_threads,  # the partition needs one symbol per chunk
            max_size=96,
        )
    )
    dfa = DFA(
        table=np.asarray(table, dtype=np.int64),
        start=start,
        accepting=frozenset(accepting),
        name="hyp",
    )
    return dfa, np.asarray(symbols, dtype=np.uint8), n_threads


@settings(max_examples=30, deadline=None)
@given(case=dfa_and_input())
def test_fast_equals_sim_equals_oracle(case):
    dfa, symbols, n_threads = case
    truth = dfa.run(symbols)
    training = bytes(symbols[: max(1, symbols.size // 4)])
    for cls in ALL_SCHEMES:
        results = {}
        for backend in ("sim", "fast"):
            scheme = cls.for_dfa(
                dfa,
                n_threads=n_threads,
                training_input=training,
                backend=backend,
            )
            results[backend] = scheme.run(symbols)
        label = f"{cls.__name__} (N={n_threads})"
        assert results["sim"].end_state == truth, label
        assert results["fast"].end_state == truth, label
        assert results["fast"].accepts == results["sim"].accepts == (
            truth in dfa.accepting
        ), label
        sim_ends, fast_ends = (
            results["sim"].chunk_ends,
            results["fast"].chunk_ends,
        )
        assert (sim_ends is None) == (fast_ends is None), label
        if sim_ends is not None:
            np.testing.assert_array_equal(
                np.asarray(fast_ends), np.asarray(sim_ends), err_msg=label
            )


@settings(max_examples=15, deadline=None)
@given(case=dfa_and_input())
def test_untransformed_layouts_agree_too(case):
    """The same contract with the frequency transformation off (hash
    layout): the backend split must be orthogonal to the table layout."""
    dfa, symbols, n_threads = case
    truth = dfa.run(symbols)
    for cls in (SpecSequentialScheme, RRScheme, SFAScheme):
        for backend in ("sim", "fast"):
            scheme = cls.for_dfa(
                dfa,
                n_threads=n_threads,
                use_transformation=False,
                backend=backend,
            )
            assert scheme.run(symbols).end_state == truth, (
                cls.__name__,
                backend,
            )
