"""All-state lookback-2 predictor tests."""

import numpy as np
import pytest

from repro.automata.dfa import DFA
from repro.gpu.device import RTX3090
from repro.gpu.stats import KernelStats
from repro.speculation.chunks import partition_input
from repro.speculation.predictor import (
    Prediction,
    predict_start_states,
    segment_positions,
    true_start_states,
)
from repro.workloads import classic
from repro.errors import SchemeError
from tests.conftest import queue_lists


class TestPrediction:
    def test_chunk0_queue_is_true_start(self, div7, rng):
        data = rng.integers(48, 50, size=200).astype(np.uint8)
        p = partition_input(data, 8)
        pred = predict_start_states(div7, p)
        assert pred.front_states()[0] == div7.start

    def test_truth_always_in_queue(self, div7, rng):
        """The convergence property guarantees the true start is in the
        produced end-state set."""
        data = rng.integers(48, 50, size=400).astype(np.uint8)
        p = partition_input(data, 16)
        pred = predict_start_states(div7, p)
        truth = true_start_states(div7, p)
        queues = queue_lists(pred)
        for i in range(1, 16):
            assert int(truth[i]) in queues[i][0]

    def test_queue_ranked_by_weight(self, scanner_dfa, rng):
        data = rng.integers(97, 123, size=600).astype(np.uint8)
        p = partition_input(data, 8)
        pred = predict_start_states(scanner_dfa, p)
        for _, weights in queue_lists(pred)[1:]:
            assert (np.diff(weights) <= 0).all()

    def test_weights_sum_to_state_count(self, div7, rng):
        data = rng.integers(48, 50, size=200).astype(np.uint8)
        p = partition_input(data, 4)
        pred = predict_start_states(div7, p)
        for _, weights in queue_lists(pred)[1:]:
            assert sum(weights) == div7.n_states

    def test_rotator_queue_is_single_state(self, rng):
        """A pure rotation maps all states 1:1: lookback-2 from all states
        yields all states — but each with weight 1, so the queue is wide."""
        rot = classic.cyclic_rotator(5, n_symbols=8)
        data = rng.integers(0, 8, size=50).astype(np.uint8)
        p = partition_input(data, 5)
        pred = predict_start_states(rot, p)
        assert pred.sizes[1:].tolist() == [5] * 4  # no convergence: everything possible

    def test_accuracy_against_perfect(self, div7, rng):
        data = rng.integers(48, 50, size=300).astype(np.uint8)
        p = partition_input(data, 8)
        pred = predict_start_states(div7, p)
        truth = true_start_states(div7, p)
        acc_all = pred.accuracy_against(truth, k=div7.n_states)
        assert acc_all == 1.0  # truth always somewhere in the queue

    def test_accuracy_monotone_in_k(self, scanner_dfa, rng):
        data = rng.integers(97, 123, size=800).astype(np.uint8)
        p = partition_input(data, 16)
        pred = predict_start_states(scanner_dfa, p)
        truth = true_start_states(scanner_dfa, p)
        accs = [pred.accuracy_against(truth, k=k) for k in (1, 2, 4, 16)]
        assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))

    def test_prediction_cost_charged(self, div7, rng):
        data = rng.integers(48, 50, size=200).astype(np.uint8)
        p = partition_input(data, 8)
        stats = KernelStats(device=RTX3090, n_threads=8)
        predict_start_states(div7, p, stats=stats)
        assert stats.phase_cycles.get("predict", 0) > 0

    def test_front_states_vector(self, div7, rng):
        data = rng.integers(48, 50, size=200).astype(np.uint8)
        p = partition_input(data, 4)
        pred = predict_start_states(div7, p)
        fronts = pred.front_states()
        assert fronts.shape == (4,)
        assert fronts[0] == div7.start


class TestTrueStarts:
    def test_chain_matches_full_run(self, div7, rng):
        data = rng.integers(48, 50, size=333).astype(np.uint8)
        p = partition_input(data, 8)
        truth = true_start_states(div7, p)
        assert truth[0] == div7.start
        # End of last chunk == full sequential run.
        end = div7.run(p.chunk(7), start=int(truth[7]))
        assert end == div7.run(data)

    def test_each_start_is_predecessor_end(self, div7, rng):
        data = rng.integers(48, 50, size=200).astype(np.uint8)
        p = partition_input(data, 5)
        truth = true_start_states(div7, p)
        for i in range(1, 5):
            assert truth[i] == div7.run(p.chunk(i - 1), start=int(truth[i - 1]))


def _per_boundary_queues(dfa, partition, lookback):
    """The per-boundary construction ``predict_start_states`` used to run:
    one all-state replay, ``np.unique`` and ``lexsort`` per chunk boundary.
    Kept as the reference for the batched replay."""
    queues = []
    for i in range(1, partition.n_chunks):
        ends = dfa.run_all_states(partition.last_symbols_of(i - 1, lookback))
        states, counts = np.unique(ends, return_counts=True)
        order = np.lexsort((states, -counts))
        queues.append((states[order].tolist(), counts[order].tolist()))
    return queues


class TestBatchedReplay:
    """Batched, window-sharing prediction == the per-boundary construction,
    compared as ``(states, weights)`` in queue order."""

    @staticmethod
    def _random_dfa(rng, n_states=23, n_symbols=5):
        # Few symbols → windows repeat across boundaries; a random table
        # → partial convergence, so frequency ties occur and matter.
        table = rng.integers(0, n_states, size=(n_states, n_symbols))
        return DFA(table=table, start=0)

    @staticmethod
    def _assert_batched_equals_reference(dfa, partition, lookback):
        pred = predict_start_states(dfa, partition, lookback=lookback)
        assert pred.n_chunks == partition.n_chunks
        queues = queue_lists(pred)
        assert queues[0] == ([dfa.start], [dfa.n_states])
        assert queues[1:] == _per_boundary_queues(dfa, partition, lookback)
        assert pred.states.dtype == np.int64 and pred.weights.dtype == np.int64

    @pytest.mark.parametrize("lookback", [0, 1, 2, 4])
    @pytest.mark.parametrize("symbol_dtype", [np.uint8, np.int64])
    def test_equals_per_boundary_construction(self, rng, lookback, symbol_dtype):
        dfa = self._random_dfa(rng)
        # 40 boundaries over 5**lookback possible windows: repeats for sure
        # at lookback 1 and 2, mostly distinct windows at 4.
        data = rng.integers(0, dfa.n_symbols, size=41 * 6 + 3).astype(symbol_dtype)
        partition = partition_input(data, 41)
        self._assert_batched_equals_reference(dfa, partition, lookback)

    @pytest.mark.parametrize("lookback", [1, 2, 4])
    @pytest.mark.parametrize("symbol_dtype", [np.uint8, np.int64])
    def test_predecessor_chunks_shorter_than_the_lookback(
        self, rng, lookback, symbol_dtype
    ):
        """13 symbols over 8 chunks is the balanced split 2,2,2,2,2,1,1,1:
        windows of one *and* two symbols in the same partition."""
        dfa = self._random_dfa(rng)
        data = rng.integers(0, dfa.n_symbols, size=13).astype(symbol_dtype)
        partition = partition_input(data, 8)
        assert sorted(set(partition.lengths.tolist())) == [1, 2]
        self._assert_batched_equals_reference(dfa, partition, lookback)

    @pytest.mark.parametrize("lookback", [0, 1, 2, 4])
    def test_state_set_replay_equals_per_boundary_construction(
        self, rng, lookback, monkeypatch
    ):
        """The same comparison with every window group replayed as state
        sets (these small cases otherwise run one lane per state), short
        predecessor chunks included."""
        from repro.speculation import predictor

        monkeypatch.setattr(predictor, "PER_LANE_REPLAY", 0)
        dfa = self._random_dfa(rng)
        for size, n_chunks in ((41 * 6 + 3, 41), (13, 8)):
            data = rng.integers(0, dfa.n_symbols, size=size).astype(np.uint8)
            partition = partition_input(data, n_chunks)
            self._assert_batched_equals_reference(dfa, partition, lookback)

    def test_boundaries_with_equal_windows_get_independent_queues(self, rng):
        dfa = self._random_dfa(rng)
        partition = partition_input(np.zeros(40, dtype=np.uint8), 8)
        pred = predict_start_states(dfa, partition)
        assert pred.states[pred.bounds[1]] == pred.states[pred.bounds[2]]
        pred.cursors[1] += 1  # dequeue chunk 1's front
        assert pred.cursors[2] == 0  # same window, own cursor

    def test_replay_block_budget_does_not_change_the_queues(self, rng, monkeypatch):
        """The state-set replay counting one first-symbol column a block,
        or three at once: same queues."""
        from repro.speculation import predictor

        dfa = self._random_dfa(rng)
        data = rng.integers(0, dfa.n_symbols, size=300).astype(np.uint8)
        partition = partition_input(data, 32)
        monkeypatch.setattr(predictor, "PER_LANE_REPLAY", 0)
        monkeypatch.setattr(predictor, "REPLAY_BLOCK_ELEMENTS", 1)
        self._assert_batched_equals_reference(dfa, partition, 2)
        monkeypatch.setattr(predictor, "REPLAY_BLOCK_ELEMENTS", 3 * dfa.n_states)
        self._assert_batched_equals_reference(dfa, partition, 2)


class TestSpeculationQueue:
    """One chunk's speculation queue ``QS_i``, read through the CSR arrays."""

    @staticmethod
    def _queue(states, weights):
        return Prediction.from_arrays(
            np.array(states), np.array(weights), np.array([0, len(states)])
        )

    def test_front_and_dequeue(self):
        pred = self._queue([3, 1, 2], [5, 2, 1])
        assert pred.front_states().tolist() == [3]
        assert pred.dequeue_fronts().tolist() == [3]
        assert pred.front_states().tolist() == [1]
        assert (pred.sizes - pred.cursors).tolist() == [2]  # candidates left

    def test_exhaustion_raises(self):
        pred = self._queue([1], [1])
        pred.dequeue_fronts()
        with pytest.raises(SchemeError):
            pred.front_states()

    def test_top_k_ignores_cursor(self):
        """Top-k accuracy ranks from the queue's head, dequeued candidates
        included: a dequeue does not shift which states count as top-k."""
        pred = Prediction.from_arrays(
            np.array([0, 3, 1, 2]), np.array([3, 5, 2, 1]), np.array([0, 1, 4])
        )
        pred.dequeue_fronts()
        assert pred.accuracy_against(np.array([0, 3]), k=1) == 1.0
        assert pred.accuracy_against(np.array([0, 1]), k=1) == 0.0
        assert pred.accuracy_against(np.array([0, 1]), k=2) == 1.0

    def test_top_k_truncates(self):
        pred = Prediction.from_arrays(
            np.array([0, 3]), np.array([1, 5]), np.array([0, 1, 2])
        )
        assert pred.accuracy_against(np.array([0, 3]), k=10) == 1.0
        assert pred.accuracy_against(np.array([0, 4]), k=10) == 0.0

    def test_shape_mismatch(self):
        pred = self._queue([3, 1], [5, 2])
        with pytest.raises(SchemeError):
            pred.accuracy_against(np.array([3, 1]))


class TestQueueLayout:
    """One CSR array per prediction, read and advanced as arrays."""

    @staticmethod
    def _packed():
        pred = Prediction.from_arrays(
            np.array([4, 2, 7, 1, 6, 0]),
            np.array([9, 5, 3, 1, 8, 1]),
            np.array([0, 1, 4, 4, 6]),
        )
        pred.cursors[1] = 1
        return pred

    def test_from_arrays_starts_every_cursor_at_zero(self):
        pred = Prediction.from_arrays(
            np.array([4, 2, 7]), np.array([9, 5, 3]), np.array([0, 1, 1, 3])
        )
        assert pred.n_chunks == 3
        assert pred.sizes.tolist() == [1, 0, 2]
        assert pred.cursors.tolist() == [0, 0, 0]
        assert pred.states.dtype == pred.weights.dtype == np.int64

    def test_segment_positions_lay_segments_end_to_end(self):
        """Segments ``[lo, lo + size)`` gathered in order, an empty one
        contributing nothing, each position tagged with its segment."""
        positions, owner = segment_positions(np.array([7, 2, 5, 0]), np.array([2, 3, 0, 1]))
        assert positions.tolist() == [7, 8, 2, 3, 4, 0]
        assert owner.tolist() == [0, 0, 1, 1, 1, 3]

    def test_dequeue_fronts_is_one_dequeue_per_queue(self, div7, rng):
        data = rng.integers(48, 50, size=200).astype(np.uint8)
        pred = predict_start_states(div7, partition_input(data, 8))
        expected = [states[0] for states, _ in queue_lists(pred)]
        assert pred.dequeue_fronts().tolist() == expected
        assert pred.cursors.tolist() == [1] * 8
        assert pred.cursors[0] == pred.sizes[0]  # chunk 0's queue is drained

    def test_front_states_read_past_the_cursors(self):
        pred = Prediction.from_arrays(
            np.array([4, 5, 2, 7, 1]), np.array([2, 1, 5, 3, 1]), np.array([0, 2, 5])
        )
        pred.cursors[1] = 1
        assert pred.front_states().tolist() == [4, 7]
        assert pred.dequeue_fronts().tolist() == [4, 7]
        assert pred.front_states().tolist() == [5, 1]

    def test_exhausted_front_raises(self):
        pred = self._packed()
        with pytest.raises(SchemeError):
            pred.front_states()  # chunk 2's queue is empty
        with pytest.raises(SchemeError):
            pred.dequeue_fronts()
        assert pred.cursors.tolist() == [0, 1, 0, 0]  # nothing popped

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_accuracy_counts_ranks_below_k(self, k):
        """Truth at rank 0, 1, 2 and absent: top-k holds the first k."""
        pred = Prediction.from_arrays(
            np.array([9] + [3, 1, 2] * 4),
            np.array([1] + [3, 2, 1] * 4),
            np.array([0, 1, 4, 7, 10, 13]),
        )
        truth = np.array([9, 3, 1, 2, 0])
        assert pred.accuracy_against(truth, k=k) == k / 4

    @pytest.mark.parametrize("k", [1, 2, 4, 16])
    def test_accuracy_equals_per_queue_top_k(self, scanner_dfa, rng, k):
        data = rng.integers(97, 123, size=800).astype(np.uint8)
        p = partition_input(data, 16)
        pred = predict_start_states(scanner_dfa, p)
        truth = true_start_states(scanner_dfa, p)
        truth[5] = (truth[5] + 1) % scanner_dfa.n_states  # some misses too
        queues = queue_lists(pred)
        hits = sum(int(truth[i]) in queues[i][0][:k] for i in range(1, 16))
        assert pred.accuracy_against(truth, k=k) == hits / 15
