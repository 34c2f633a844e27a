"""Cross-validation: composed per-chunk ``Q -> Q`` functions against the
direct run."""

import numpy as np
import pytest

from repro.schemes import NFScheme, SFAScheme
from repro.speculation.chunks import partition_input
from repro.workloads.components import counter_component
from repro.automata.dfa import DFA


@pytest.fixture(scope="module")
def dfa():
    comp = counter_component(7, n_symbols=32, seed=11)
    return DFA(table=comp.table, start=0, accepting=frozenset({0}))


def test_chunk_function_composition_equals_direct_run(dfa, rng):
    """Composing per-chunk Q->Q functions equals running the whole stream —
    the algebraic identity SFA (and every speculative scheme's
    correctness) rests on."""
    data = rng.integers(0, 32, size=640).astype(np.uint8)
    p = partition_input(data, 8)
    # Chunk functions computed the slow way.
    fns = [dfa.run_all_states(p.chunk(i)) for i in range(8)]
    state = dfa.start
    for fn in fns:
        state = int(fn[state])
    assert state == dfa.run(data)


def test_enum_and_nf_agree(dfa, rng):
    """SFA's enumerated chunk functions and NF's speculate-and-recover
    reach the same end state."""
    data = bytes(rng.integers(0, 32, size=640).astype(np.uint8))
    training = bytes(rng.integers(0, 32, size=160).astype(np.uint8))
    sfa = SFAScheme.for_dfa(dfa, n_threads=8, training_input=training)
    nf = NFScheme.for_dfa(dfa, n_threads=8, training_input=training)
    assert sfa.run(data).end_state == nf.run(data).end_state
