"""Feature-profiling tests."""

import dataclasses

import numpy as np
import pytest

from repro.selector.decision_tree import DecisionTreeSelector, SelectorThresholds
from repro.selector.features import profile_features
from repro.speculation.chunks import partition_input
from repro.speculation.predictor import predict_start_states, true_start_states
from repro.workloads import classic
from repro.workloads.components import counter_component
from repro.automata.dfa import DFA
from repro.errors import SchemeError


@pytest.fixture(scope="module")
def counter_dfa():
    comp = counter_component(9, n_symbols=64, seed=3)
    return DFA(table=comp.table, start=0, accepting=frozenset({0}))


def make_stream(rng, n, hi=64):
    return bytes(rng.integers(0, hi, size=n).astype(np.uint8))


def test_features_fields(counter_dfa, rng):
    f = profile_features(counter_dfa, make_stream(rng, 4000), n_chunks=32)
    assert f.n_states == 9
    assert 0.0 <= f.spec1_accuracy <= 1.0
    assert f.spec1_accuracy <= f.spec4_accuracy <= f.spec16_accuracy
    assert f.convergence_states >= 1.0
    assert f.profiling_seconds > 0


def test_counter_is_hard_to_predict(counter_dfa, rng):
    f = profile_features(counter_dfa, make_stream(rng, 4000), n_chunks=32)
    assert f.spec1_accuracy < 0.5
    assert f.convergence_states == pytest.approx(9.0)  # never converges


def test_scanner_is_easy(rng):
    d = classic.keyword_scanner(b"needle")
    data = bytes(rng.integers(97, 123, size=4000).astype(np.uint8))
    f = profile_features(d, data, n_chunks=32)
    assert f.spec1_accuracy > 0.9
    assert f.convergence_states < 4


def test_speculation_accuracy_topk_monotone(counter_dfa, rng):
    partition = partition_input(make_stream(rng, 3000), 64)
    prediction = predict_start_states(counter_dfa, partition)
    truth = true_start_states(counter_dfa, partition)
    a1 = prediction.accuracy_against(truth, k=1)
    a9 = prediction.accuracy_against(truth, k=9)
    assert a9 >= a1
    assert a9 == 1.0  # truth always inside the counter's full queue


def test_too_short_training_raises(counter_dfa):
    with pytest.raises(SchemeError):
        profile_features(counter_dfa, b"ab", n_chunks=64)


def test_as_dict_roundtrip(counter_dfa, rng):
    f = profile_features(counter_dfa, make_stream(rng, 2000), n_chunks=16)
    d = f.as_dict()
    assert d["n_states"] == 9
    assert set(d) >= {"spec1_accuracy", "sensitivity", "convergence_states"}


def test_input_sensitive_flag(counter_dfa, rng):
    """Table II's input-sensitive count uses the tree's own cut."""
    f = profile_features(counter_dfa, make_stream(rng, 2000), n_chunks=16)
    cut = SelectorThresholds().input_sensitive
    assert DecisionTreeSelector().is_input_sensitive(f) == (f.sensitivity >= cut)
    at_cut = dataclasses.replace(f, sensitivity=cut)
    assert DecisionTreeSelector().is_input_sensitive(at_cut)


def _chunk_walk(dfa, partition, start):
    """Every chunk's true start, one scalar ``DFA.run`` per chunk."""
    starts = [int(start)]
    for i in range(partition.n_chunks - 1):
        starts.append(dfa.run(partition.chunk(i), start=starts[-1]))
    return np.asarray(starts)


def _accuracies_reference(dfa, symbols, n_chunks, n_portions=4):
    """The accuracy and sensitivity half of ``profile_features`` as it was:
    a scalar ``DFA.run`` walk for the slice's truth, and per portion two
    walks to its start plus one more for its truth."""
    partition = partition_input(symbols, n_chunks)
    prediction = predict_start_states(dfa, partition)
    truth = _chunk_walk(dfa, partition, dfa.start)
    accs = [prediction.accuracy_against(truth, k=k) for k in (1, 4, 16)]
    portion_len = symbols.size // n_portions
    portion_accs = []
    chunks_per_portion = max(8, n_chunks // n_portions)
    for p in range(n_portions):
        piece = symbols[p * portion_len : (p + 1) * portion_len]
        if piece.size < chunks_per_portion:
            continue
        part = partition_input(piece, chunks_per_portion)
        pred = predict_start_states(dfa, part, start_state=dfa.run(symbols[: p * portion_len]))
        tru = _chunk_walk(dfa, part, dfa.run(symbols[: p * portion_len]))
        portion_accs.append(pred.accuracy_against(tru, k=1))
    sensitivity = float(np.std(portion_accs)) if len(portion_accs) > 1 else 0.0
    return accs, sensitivity


@pytest.mark.parametrize(
    "n_chunks, size",
    [
        (1, 5),  # portions shorter than chunks_per_portion: all skipped
        (1, 300),
        (4, 16),  # 4-symbol portions, none profiled
        (4, 37),  # ragged slice, 9-symbol portions
        (64, 256),  # 64-symbol portions over 16 chunks each
        (64, 4099),
    ],
)
@pytest.mark.parametrize("which", ["scanner", "counter"])
def test_one_walk_gives_the_reference_features(which, n_chunks, size, counter_dfa, rng):
    dfa = classic.keyword_scanner(b"abc") if which == "scanner" else counter_dfa
    hi = 123 if which == "scanner" else 64
    symbols = rng.integers(97 if which == "scanner" else 0, hi, size=size).astype(np.uint8)
    feats = profile_features(dfa, symbols, n_chunks=n_chunks)
    accs, sensitivity = _accuracies_reference(dfa, symbols, n_chunks)
    assert [feats.spec1_accuracy, feats.spec4_accuracy, feats.spec16_accuracy] == accs
    assert feats.sensitivity == sensitivity
