"""Frequency-based DFA transformation tests (paper Fig. 4)."""

import numpy as np
import pytest

from repro.automata.properties import profile_state_frequencies
from repro.automata.transform import frequency_transform
from repro.errors import AutomatonError
from repro.workloads import classic


@pytest.fixture()
def transformed(div7, rng):
    data = bytes(rng.integers(48, 50, size=2000).astype(np.uint8))
    return data, frequency_transform(div7, profile_state_frequencies(div7, data))


def test_semantics_preserved(div7, transformed, rng):
    data, t = transformed
    test_data = bytes(rng.integers(48, 50, size=500).astype(np.uint8))
    assert t.dfa.accepts(test_data) == div7.accepts(test_data)


def test_state_zero_is_hottest(div7, transformed):
    data, t = transformed
    prof = profile_state_frequencies(div7, data)
    hottest_old = int(prof.order[0])
    assert t.to_new[hottest_old] == 0


def test_mapping_roundtrip(div7, transformed):
    _, t = transformed
    assert np.array_equal(t.to_new[t.to_old], np.arange(div7.n_states))
    assert np.array_equal(t.to_old[t.to_new], np.arange(div7.n_states))


def test_profile_state_count_mismatch(div7, rng):
    other = classic.parity()
    prof = profile_state_frequencies(other, b"11")
    with pytest.raises(AutomatonError):
        frequency_transform(div7, prof)


def test_paper_fig4_example():
    """The 4-state DFA of Fig. 4: states re-ranked by frequency."""
    from repro.automata.dfa import DFA

    # Symbols: 0='/', 1='*', 2='X' (comment-scanner flavour).
    table = np.array(
        [
            [1, 0, 0],  # S0
            [1, 2, 0],  # S1
            [2, 3, 2],  # S2
            [0, 3, 2],  # S3
        ],
        dtype=np.int32,
    )
    dfa = DFA(table=table, start=0, accepting={0}, name="fig4")
    # Frequencies from the paper: S0=4, S1=4, S2=2, S3=2 — feed a profile
    # that visits S0/S1 twice as often.
    from repro.automata.properties import StateFrequencyProfile

    counts = np.array([4, 4, 2, 2])
    order = np.lexsort((np.arange(4), -counts))
    prof = StateFrequencyProfile(counts=counts, order=order, sample_length=12)
    t = frequency_transform(dfa, prof)
    # S0 and S1 keep ranks 0 and 1 (already hottest).
    assert t.to_new[:2].tolist() == [0, 1]
    # Transformed semantics match on a sample.
    for stream in ([0, 1, 2], [1, 1, 0, 2], [0, 0, 0]):
        a = dfa.run(stream)
        b = t.dfa.run(stream)
        assert t.to_old[b] == a
