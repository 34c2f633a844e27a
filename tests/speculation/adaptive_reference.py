"""The per-boundary adaptive predictor the batched one replaced.

``reference_adaptive`` is the former body of ``predict_adaptive``: every
chunk boundary deepens its own window 1, 2, 4, … with one
``DFA.run_all_states`` replay per width, counts the end states with
``np.unique`` and ranks them with its own ``lexsort``.  It stays here as
the oracle — the shipped predictor, which ranks every undecided boundary
of one width with one ``rank_queues`` call, must give the same states,
weights, bounds and charged predict cycles.
"""

import numpy as np

from repro.errors import SchemeError
from repro.speculation.predictor import Prediction


def reference_adaptive(
    dfa,
    partition,
    start_state=None,
    *,
    stats=None,
    device=None,
    target_candidates=4,
    max_window=16,
):
    """Window deepening one boundary at a time (the reference)."""
    if target_candidates < 1 or max_window < 1:
        raise SchemeError("target_candidates and max_window must be >= 1")
    if start_state is None:
        start_state = dfa.start
    states = [np.asarray([start_state])]
    weights = [np.asarray([dfa.n_states])]
    replay_steps = 0
    for i in range(1, partition.n_chunks):
        window = 1
        while True:
            syms = partition.last_symbols_of(i - 1, window)
            ends = dfa.run_all_states(syms)
            replay_steps += len(syms)
            candidates, counts = np.unique(ends, return_counts=True)
            if candidates.size <= target_candidates or window >= max_window:
                break
            window = min(max_window, window * 2)
        order = np.lexsort((candidates, -counts))
        states.append(candidates[order])
        weights.append(counts[order])
    if stats is not None:
        dev = device if device is not None else stats.device
        rounds = -(-dfa.n_states // (dev.n_sms * dev.cores_per_sm))
        cost = rounds * replay_steps * (dev.shared_cycles + dev.transition_compute_cycles)
        stats.charge("predict", float(cost))
    bounds = np.zeros(len(states) + 1, dtype=np.int64)
    np.cumsum([s.size for s in states], out=bounds[1:])
    return Prediction.from_arrays(np.concatenate(states), np.concatenate(weights), bounds)
