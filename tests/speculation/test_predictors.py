"""Alternative start-state predictor tests (lookback-w, adaptive, oracle,
uniform) and the schemes running under them."""

from functools import partial

import numpy as np
import pytest

import repro.schemes.base as scheme_base
from repro.schemes import NFScheme, SREScheme
from repro.speculation.chunks import partition_input
from repro.speculation.predictor import (
    predict_adaptive,
    predict_oracle,
    predict_start_states,
    predict_uniform,
    true_start_states,
)
from repro.workloads.components import counter_component
from repro.automata.dfa import DFA
from repro.errors import SchemeError
from tests.conftest import queue_lists


def lookback(w):
    return partial(predict_start_states, lookback=w)


PREDICTORS = {
    **{f"lookback-{w}": lookback(w) for w in (1, 2, 4, 8)},
    "adaptive": predict_adaptive,
    "oracle": predict_oracle,
    "uniform": predict_uniform,
}


@pytest.fixture(scope="module")
def dfa():
    comp = counter_component(9, n_symbols=64, sync_symbols=(5,), seed=7)
    return DFA(table=comp.table, start=0, accepting=frozenset({0}))


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(20)
    data = rng.integers(0, 64, size=1024).astype(np.uint8)
    syncs = rng.random(1024) < 0.05
    data[syncs] = 5
    return data


def accuracy(pred, dfa, partition, k=1):
    truth = true_start_states(dfa, partition)
    return pred.accuracy_against(truth, k=k)


class TestLookback:
    def test_matches_default_at_window_2(self, dfa, stream):
        p = partition_input(stream, 16)
        a = lookback(2)(dfa, p, dfa.start)
        b = predict_start_states(dfa, p)
        assert queue_lists(a) == queue_lists(b)

    def test_longer_window_no_worse(self, dfa, stream):
        p = partition_input(stream, 16)
        short = accuracy(lookback(1)(dfa, p, dfa.start), dfa, p)
        long = accuracy(lookback(8)(dfa, p, dfa.start), dfa, p)
        assert long >= short

    def test_truth_always_contained(self, dfa, stream):
        p = partition_input(stream, 16)
        queues = queue_lists(lookback(4)(dfa, p, dfa.start))
        truth = true_start_states(dfa, p)
        for i in range(1, 16):
            assert int(truth[i]) in queues[i][0]


class TestAdaptive:
    def test_validation(self, dfa, stream):
        p = partition_input(stream, 16)
        with pytest.raises(SchemeError):
            predict_adaptive(dfa, p, target_candidates=0)

    def test_truth_contained_and_queues_small_near_syncs(self, dfa, stream):
        p = partition_input(stream, 16)
        pred = predict_adaptive(dfa, p, dfa.start, target_candidates=3, max_window=32)
        queues = queue_lists(pred)
        truth = true_start_states(dfa, p)
        for i in range(1, 16):
            assert int(truth[i]) in queues[i][0]

    def test_at_least_as_accurate_as_fixed_2(self, dfa, stream):
        p = partition_input(stream, 16)
        fixed = accuracy(lookback(2)(dfa, p, dfa.start), dfa, p, k=2)
        adaptive = accuracy(
            predict_adaptive(dfa, p, dfa.start, target_candidates=2, max_window=32),
            dfa,
            p,
            k=2,
        )
        assert adaptive >= fixed - 1e-12


class TestBounds:
    def test_oracle_is_perfect(self, dfa, stream):
        p = partition_input(stream, 16)
        pred = predict_oracle(dfa, p, dfa.start)
        assert accuracy(pred, dfa, p, k=1) == 1.0

    def test_uniform_contains_everything(self, dfa, stream):
        p = partition_input(stream, 16)
        pred = predict_uniform(dfa, p, dfa.start)
        assert accuracy(pred, dfa, p, k=dfa.n_states) == 1.0
        assert pred.sizes[1] == dfa.n_states


@pytest.mark.parametrize("key", sorted(PREDICTORS))
class TestContract:
    """What a scheme relies on from any ``predictor=`` callable."""

    def test_one_queue_per_chunk_and_chunk_zero_is_the_start(self, key, dfa, stream):
        p = partition_input(stream, 16)
        pred = PREDICTORS[key](dfa, p, 3)
        assert pred.n_chunks == pred.sizes.size == pred.cursors.size == 16
        assert queue_lists(pred)[0][0] == [3]

    def test_queues_hold_distinct_states_ranked_by_weight(self, key, dfa, stream):
        p = partition_input(stream, 16)
        for states, weights in queue_lists(PREDICTORS[key](dfa, p, dfa.start)):
            assert len(states) >= 1
            assert len(set(states)) == len(states)
            assert all(0 <= s < dfa.n_states for s in states)
            assert (np.diff(weights) <= 0).all()

    def test_weights_count_every_start_lane(self, key, dfa, stream):
        p = partition_input(stream, 16)
        for _, weights in queue_lists(PREDICTORS[key](dfa, p, dfa.start)):
            assert sum(weights) == dfa.n_states

    def test_truth_contained_from_any_start(self, key, dfa, stream):
        p = partition_input(stream, 16)
        queues = queue_lists(PREDICTORS[key](dfa, p, 3))
        truth = true_start_states(dfa, p, start_state=3)
        for i in range(16):
            assert int(truth[i]) in queues[i][0], i


class TestSchemesUnderPredictors:
    @pytest.mark.parametrize("key", sorted(PREDICTORS))
    def test_correctness_under_every_predictor(self, key, dfa, stream):
        predictor = PREDICTORS[key]
        truth = dfa.run(stream)
        for cls in (SREScheme, NFScheme):
            scheme = cls.for_dfa(
                dfa,
                n_threads=8,
                training_input=bytes(stream[:128]),
                predictor=predictor,
            )
            assert scheme.run(stream).end_state == truth, (key, cls.__name__)

    def test_oracle_never_recovers(self, dfa, stream):
        scheme = SREScheme.for_dfa(
            dfa,
            n_threads=8,
            training_input=bytes(stream[:128]),
            predictor=predict_oracle,
        )
        result = scheme.run(stream)
        assert result.stats.recoveries_executed == 0

    def test_uniform_needs_more_recoveries_than_lookback(self, dfa, stream):
        """Under Algorithm 2 (sequential recovery), prediction quality maps
        directly to recovery count: the informed predictor must trigger no
        more recoveries than the uninformed one."""
        from repro.schemes import SpecSequentialScheme

        base = dict(n_threads=16, training_input=bytes(stream[:128]))
        look = SpecSequentialScheme.for_dfa(
            dfa, predictor=lookback(2), **base
        ).run(stream)
        uni = SpecSequentialScheme.for_dfa(
            dfa, predictor=predict_uniform, **base
        ).run(stream)
        assert look.stats.recoveries_executed <= uni.stats.recoveries_executed

    def test_default_predictor_is_looked_up_on_the_base_module(
        self, dfa, stream, monkeypatch
    ):
        """With no custom predictor a scheme calls the module global
        ``repro.schemes.base.predict_start_states`` at run time — the hook
        the end-to-end ``speculation.*`` layer metrics patch."""
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1].n_chunks)
            return predict_start_states(*args, **kwargs)

        monkeypatch.setattr(scheme_base, "predict_start_states", spy)
        scheme = SREScheme.for_dfa(dfa, n_threads=8, training_input=bytes(stream[:128]))
        assert scheme.run(stream).end_state == dfa.run(stream)
        assert calls == [8]
