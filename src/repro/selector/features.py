"""Offline FSM/input profiling: the features that drive scheme selection.

The paper's selector consumes (Fig. 6, Table II):

* **speculation accuracy** for spec-1 and spec-k, measured by running the
  all-state lookback-2 predictor over a small training slice and comparing
  against the true chunk start states;
* **input sensitivity** — whether speculation quality varies strongly across
  different portions of the training input ("the similarity of speculation
  results over different portions");
* **state convergence** — the mean number of unique states surviving 10
  transitions from all states (``#uniqStates(10 trans.)``);
* basic structure — state count, and the wall-clock profiling cost the paper
  reports in Table II's last column.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.automata.dfa import DFA, _as_symbol_array
from repro.automata.properties import convergence_profile
from repro.speculation.chunks import partition_input
from repro.speculation.predictor import predict_start_states, true_start_states
from repro.errors import SchemeError


@dataclass(frozen=True)
class FSMFeatures:
    """Profiled characteristics of one FSM on one training input.

    All accuracies are in ``[0, 1]``; ``convergence_states`` is the Table II
    ``#uniqStates(10 trans.)`` statistic (lower = faster convergence);
    ``sensitivity`` is the standard deviation of per-portion spec-1 accuracy
    (higher = more input-sensitive speculation).
    """

    name: str
    n_states: int
    spec1_accuracy: float
    spec4_accuracy: float
    spec16_accuracy: float
    sensitivity: float
    convergence_states: float
    profiling_seconds: float
    #: mean image size of the *full* state set after running sample windows
    #: of the training input — the active-state count SFA's mapping
    #: construction actually pays for (defaults to 0.0 = unprofiled, which
    #: the cost model reads as "assume all n_states survive").
    reachable_width: float = 0.0
    #: live speculation accuracy the vector was last revised from
    #: (-1.0 = never revised; profiled anchors are untouched), and the
    #: number of verified chunk boundaries behind that measurement.  Both
    #: default so v2 plan artifacts load unchanged.
    live_accuracy: float = -1.0
    live_samples: int = 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "n_states": self.n_states,
            "spec1_accuracy": self.spec1_accuracy,
            "spec4_accuracy": self.spec4_accuracy,
            "spec16_accuracy": self.spec16_accuracy,
            "sensitivity": self.sensitivity,
            "convergence_states": self.convergence_states,
            "profiling_seconds": self.profiling_seconds,
            "reachable_width": self.reachable_width,
            "live_accuracy": self.live_accuracy,
            "live_samples": self.live_samples,
        }

    def accuracy_at(self, k: int) -> float:
        """Spec-``k`` accuracy on the profiled curve.

        The profiler measures the lookback-2 predictor at depths 1, 4 and
        16, which this returns exactly.  Accuracy is roughly linear in
        queue *depth* (``log2 k``), so any other ``k`` is interpolated
        piecewise-linearly between the anchors; depths beyond 16 clamp to
        the deepest profile, and a depth of zero means no speculation and
        no accuracy.  The cost model (Eqs. 2–4), the drift anchor and
        :meth:`update_from_observations` all read this one curve.
        """
        k = int(k)
        if k <= 0:
            return 0.0
        anchors = (
            (0.0, self.spec1_accuracy),  # log2(1)
            (2.0, self.spec4_accuracy),  # log2(4)
            (4.0, self.spec16_accuracy),  # log2(16)
        )
        x = min(math.log2(k), anchors[-1][0])
        for (x0, y0), (x1, y1) in zip(anchors, anchors[1:]):
            if x == x0:
                return y0
            if x < x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return anchors[-1][1]

    def update_from_observations(self, observations, *, spec_k=None) -> "FSMFeatures":
        """Fold live evidence into the vector: re-anchor the accuracy family.

        The live measurement fixes the accuracy at one queue depth; the
        other depths are scaled by the same live/anchor ratio (clipped to
        ``[0, 1]``) — the lookback-2 image structure is a property of the
        FSM, so when the truth's *rank* distribution shifts, all depths
        shift together.  Convergence, sensitivity and reachable width are
        structural and stay profiled.  Returns ``self`` unchanged when the
        observations carry no boundary evidence (e.g. an SFA-only window).
        """
        if observations is None or observations.boundary_samples == 0:
            return self
        k = int(spec_k if spec_k is not None else observations.spec_k)
        live = float(observations.spec_accuracy)
        ratio = live / max(self.accuracy_at(k), 1e-9)

        def scaled(value: float) -> float:
            return float(min(1.0, max(0.0, value * ratio)))

        return dataclasses.replace(
            self,
            spec1_accuracy=scaled(self.spec1_accuracy),
            spec4_accuracy=scaled(self.spec4_accuracy),
            spec16_accuracy=scaled(self.spec16_accuracy),
            live_accuracy=live,
            live_samples=int(observations.boundary_samples),
        )


def speculation_accuracy(
    dfa: DFA,
    training_input,
    *,
    n_chunks: int = 64,
    k: int = 1,
) -> float:
    """Top-k speculation accuracy of the lookback-2 predictor on a slice."""
    partition = partition_input(training_input, n_chunks)
    prediction = predict_start_states(dfa, partition)
    truth = true_start_states(dfa, partition)
    return prediction.accuracy_against(truth, k=k)


def reachable_width(
    dfa: DFA,
    training_input,
    *,
    window: int = 64,
    n_windows: int = 4,
) -> float:
    """Mean image size of the full state set over sample input windows.

    Runs *every* state through ``n_windows`` evenly spaced windows of the
    training input (vectorized: one ``table[states, sym]`` gather per
    position) and averages how many distinct states survive — the number
    of mapping rows SFA's state→state construction actually has to keep
    distinct, i.e. the active-state count of Eq. 1's mapping term.
    """
    symbols = _as_symbol_array(training_input)
    if symbols.size == 0:
        return float(dfa.n_states)
    table = dfa.table
    window = max(1, min(int(window), symbols.size))
    n_windows = max(1, int(n_windows))
    if symbols.size <= window:
        offsets = [0]
    else:
        step = max(1, (symbols.size - window) // n_windows)
        offsets = list(range(0, symbols.size - window + 1, step))[:n_windows]
    widths = []
    for off in offsets:
        states = np.arange(dfa.n_states, dtype=np.int64)
        for sym in symbols[off : off + window]:
            states = table[states, int(sym)]
        widths.append(int(np.unique(states).size))
    return float(np.mean(widths))


def profile_features(
    dfa: DFA,
    training_input,
    *,
    n_chunks: int = 64,
    n_portions: int = 4,
    convergence_steps: int = 10,
    seed: int = 0,
) -> FSMFeatures:
    """Collect the full feature vector on ``training_input``.

    The training slice is split into ``n_portions`` equal portions; spec-1
    accuracy is measured on each to quantify input sensitivity, and on the
    whole slice (with ``n_chunks`` chunks) for the headline accuracies.
    """
    symbols = _as_symbol_array(training_input)
    # A single chunk has no boundary to speculate across, so any non-empty
    # slice profiles; several chunks need four symbols each.
    if n_chunks > 1 and symbols.size < n_chunks * 4:
        raise SchemeError(
            f"training input too short: {symbols.size} symbols for {n_chunks} chunks"
        )
    t0 = time.perf_counter()
    # One sequential walk of the slice gives every true start state below:
    # path[i] is the state after the first i symbols.
    path = dfa.run_path(symbols)

    partition = partition_input(symbols, n_chunks)
    prediction = predict_start_states(dfa, partition)
    truth = path[partition.offsets]
    acc1 = prediction.accuracy_against(truth, k=1)
    acc4 = prediction.accuracy_against(truth, k=4)
    acc16 = prediction.accuracy_against(truth, k=16)

    # Input sensitivity: spec-1 accuracy variance across portions.
    portion_len = symbols.size // n_portions
    portion_accs = []
    chunks_per_portion = max(8, n_chunks // n_portions)
    for p in range(n_portions):
        lo = p * portion_len
        piece = symbols[lo : lo + portion_len]
        if piece.size < chunks_per_portion:
            continue
        part = partition_input(piece, chunks_per_portion)
        pred = predict_start_states(dfa, part, start_state=int(path[lo]))
        portion_accs.append(pred.accuracy_against(path[lo + part.offsets], k=1))
    sensitivity = float(np.std(portion_accs)) if len(portion_accs) > 1 else 0.0

    conv = convergence_profile(
        dfa, symbols, steps=min(convergence_steps, symbols.size), seed=seed
    )
    width = reachable_width(dfa, symbols)
    elapsed = time.perf_counter() - t0
    return FSMFeatures(
        name=dfa.name,
        n_states=dfa.n_states,
        spec1_accuracy=float(acc1),
        spec4_accuracy=float(acc4),
        spec16_accuracy=float(acc16),
        sensitivity=sensitivity,
        convergence_states=float(conv.mean()),
        profiling_seconds=float(elapsed),
        reachable_width=width,
    )
