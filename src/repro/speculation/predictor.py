"""The *all-state lookback-2* start-state predictor (paper §IV-A).

For every chunk boundary the predictor runs the DFA from **all** states over
the last two symbols of the predecessor chunk.  The state-convergence
property guarantees the true start state of the chunk is inside the produced
end-state set; ranking the set by how often each end state is produced gives
the speculation queue ``QS_i`` — most likely state first.

The queues drive every scheme: spec-1 takes ``QS_i.front()``, PM's spec-k
takes the top-k, and the RR/NF heuristics dequeue further candidates when
scheduling speculative recoveries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.automata.dfa import DFA, STATE_DTYPE
from repro.gpu.device import DeviceSpec
from repro.gpu.stats import KernelStats
from repro.speculation.chunks import Partition
from repro.errors import SchemeError

#: The paper's lookback window (symbols of the predecessor chunk replayed).
LOOKBACK = 2

#: Most ``windows × n_states`` replay lanes processed at once; bounds the
#: predictor's working memory on large automata / wide partitions.
REPLAY_BLOCK_ELEMENTS = 1 << 16


@dataclass
class SpeculationQueue:
    """Ranked candidate start states for one chunk (``QS_i`` in Table I).

    ``states`` are ordered most-likely-first; ``weights`` are the appearance
    counts from the all-state replay.  ``dequeue`` pops the front — the
    concurrent-queue semantics the heuristics rely on (our simulator is
    single-threaded, so a plain cursor suffices for thread-safety).
    """

    states: np.ndarray
    weights: np.ndarray
    _cursor: int = 0

    def __post_init__(self) -> None:
        self.states = np.asarray(self.states, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.int64)
        if self.states.shape != self.weights.shape:
            raise SchemeError("queue states/weights must align")

    @property
    def size(self) -> int:
        """Remaining (not yet dequeued) candidates."""
        return max(0, int(self.states.size - self._cursor))

    def front(self) -> int:
        """Most likely remaining candidate (raises when exhausted)."""
        if self.size == 0:
            raise SchemeError("speculation queue exhausted")
        return int(self.states[self._cursor])

    def dequeue(self) -> int:
        """Pop and return the front candidate."""
        state = self.front()
        self._cursor += 1
        return state

    def top_k(self, k: int) -> np.ndarray:
        """The first ``k`` candidates (fewer if the queue is shorter) —
        regardless of the cursor; used by spec-k which reads, not consumes."""
        return self.states[: min(k, self.states.size)].copy()

    def rank_of(self, state: int) -> Optional[int]:
        """Position of ``state`` in the ranked queue (None if absent)."""
        hits = np.flatnonzero(self.states == state)
        return int(hits[0]) if hits.size else None

    def reset(self) -> None:
        """Rewind the dequeue cursor (used between scheme runs)."""
        self._cursor = 0


@dataclass
class Prediction:
    """Output of the predictor: one queue per chunk.

    ``queues[0]`` is the degenerate queue containing only the real start
    state (chunk 0 never speculates).
    """

    queues: List[SpeculationQueue]

    @property
    def n_chunks(self) -> int:
        return len(self.queues)

    def front_states(self) -> np.ndarray:
        """spec-1 start state for every chunk."""
        return np.asarray([q.front() for q in self.queues], dtype=np.int64)

    def reset(self) -> None:
        for q in self.queues:
            q.reset()

    def accuracy_against(self, true_starts: np.ndarray, k: int = 1) -> float:
        """Fraction of speculated chunks whose true start is in the top-k.

        Chunk 0 is excluded (it is never speculated), matching the paper's
        ``accuracy(spec-k)`` definition in Table II.
        """
        true_starts = np.asarray(true_starts)
        if len(self.queues) != true_starts.size:
            raise SchemeError("true_starts must have one entry per chunk")
        if len(self.queues) <= 1:
            return 1.0
        hits = 0
        for i in range(1, len(self.queues)):
            if true_starts[i] in self.queues[i].top_k(k):
                hits += 1
        return hits / (len(self.queues) - 1)


def predict_start_states(
    dfa: DFA,
    partition: Partition,
    start_state: Optional[int] = None,
    *,
    lookback: int = LOOKBACK,
    stats: Optional[KernelStats] = None,
    device: Optional[DeviceSpec] = None,
    tie_break=None,
) -> Prediction:
    """Run all-state lookback prediction over every chunk boundary.

    Parameters
    ----------
    dfa:
        The automaton (in the same state space the schemes will execute in).
    partition:
        Chunked input.
    start_state:
        Real start state for chunk 0 (defaults to ``dfa.start``).
    lookback:
        Window length (2 in the paper).
    stats / device:
        When given, the (constant) prediction cost ``C`` is charged: the
        replay runs ``lookback`` lockstep steps for ``n_states`` lanes per
        boundary, spread over the whole device.
    tie_break:
        Optional vectorized mapping applied to candidate state ids before
        breaking frequency ties.  Schemes pass the exec→original translation
        here so queue order is invariant under the frequency transformation
        (otherwise the memory-layout ablation would silently change the
        speculation order too).
    """
    if start_state is None:
        start_state = dfa.start
    queues: List[Optional[SpeculationQueue]] = [None] * partition.n_chunks
    queues[0] = SpeculationQueue(
        states=np.asarray([start_state]),
        weights=np.asarray([dfa.n_states]),
    )
    # The window of boundary i is the tail of chunk i-1: ``lookback``
    # symbols, fewer only when that chunk is shorter.  Boundaries are
    # grouped by window length (one group unless some chunk is that short);
    # within a group each *distinct* window is replayed and ranked once and
    # boundaries with equal windows share the ranked arrays.
    tails = np.minimum(np.asarray(partition.lengths[:-1], dtype=np.int64), lookback)
    for width in sorted(set(tails.tolist())):
        boundaries = np.flatnonzero(tails == width) + 1
        rows = boundaries - 1
        cols = (partition.lengths[rows] - width)[:, None] + np.arange(width)
        windows = [tuple(w) for w in partition.chunks[rows[:, None], cols].tolist()]
        # Sorted, so windows opening with the same symbol sit together.
        distinct = sorted(set(windows))
        ranked = dict(
            zip(
                distinct,
                _rank_windows(
                    dfa.table,
                    np.array(distinct, dtype=np.int64).reshape(len(distinct), width),
                    tie_break,
                ),
            )
        )
        for i, window in zip(boundaries.tolist(), windows):
            states, weights = ranked[window]
            queues[i] = SpeculationQueue(states=states, weights=weights)

    if stats is not None:
        dev = device if device is not None else stats.device
        lanes = dfa.n_states * max(0, partition.n_chunks - 1)
        total_lanes = dev.n_sms * dev.cores_per_sm
        rounds = -(-lanes // total_lanes) if lanes else 0
        # Each replay step is a (mostly-hot) table lookup; charge shared
        # latency — the prediction cost is the constant C of Eq. 1.
        cost = rounds * lookback * (dev.shared_cycles + dev.transition_compute_cycles)
        stats.charge("predict", float(cost))
    return Prediction(queues=queues)


def _rank_windows(table: np.ndarray, windows: np.ndarray, tie_break) -> list:
    """All-state replay of every row of ``windows``; per row the ranked
    ``(states, weights)`` of its end-state set.

    One ``(windows × n_states)`` gather per window symbol replays a whole
    block of windows; the end states are counted with one ``bincount`` over
    ``(window, state)`` keys and ordered with one ``lexsort`` — most frequent
    first, ties broken by the (translated) state id for determinism and
    layout invariance.  Blocks hold at most :data:`REPLAY_BLOCK_ELEMENTS`
    lanes, so memory does not grow with ``n_chunks × n_states``.
    """
    n_windows, width = windows.shape
    n_states = table.shape[0]
    block = max(1, REPLAY_BLOCK_ELEMENTS // n_states)
    ranked = []
    for lo in range(0, n_windows, block):
        symbols = windows[lo : lo + block]
        n_rows = symbols.shape[0]
        if width == 0:
            ends = np.broadcast_to(
                np.arange(n_states, dtype=STATE_DTYPE), (n_rows, n_states)
            )
        else:
            # First symbol from every state is a table column: fetch each
            # distinct symbol's column once (a strided read of the table)
            # and hand it to its windows, instead of gathering it per lane.
            first, which = np.unique(symbols[:, 0], return_inverse=True)
            ends = table[:, first].T[which]
        for k in range(1, width):
            ends = table[ends, symbols[:, k, None]]
        keys = ends + (np.arange(n_rows, dtype=np.int64) * n_states)[:, None]
        counts = np.bincount(keys.ravel(), minlength=n_rows * n_states)
        reached = np.flatnonzero(counts)
        row, states = np.divmod(reached, n_states)
        weights = counts[reached]
        tie_keys = tie_break(states) if tie_break is not None else states
        order = np.lexsort((tie_keys, -weights, row))
        states, weights = states[order], weights[order]
        # ``row`` is already sorted and lexsort keeps it so: slice per row.
        bounds = np.searchsorted(row, np.arange(n_rows + 1)).tolist()
        ranked.extend(
            (states[a:b], weights[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
        )
    return ranked


def true_start_states(dfa: DFA, partition: Partition, start_state: Optional[int] = None) -> np.ndarray:
    """Ground-truth start state of every chunk (sequential reference run)."""
    if start_state is None:
        start_state = dfa.start
    starts = np.empty(partition.n_chunks, dtype=np.int64)
    state = int(start_state)
    for i in range(partition.n_chunks):
        starts[i] = state
        state = dfa.run(partition.chunk(i), start=state)
    return starts
