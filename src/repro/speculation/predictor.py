"""The *all-state lookback-2* start-state predictor (paper §IV-A).

For every chunk boundary the predictor runs the DFA from **all** states over
the last two symbols of the predecessor chunk.  The state-convergence
property guarantees the true start state of the chunk is inside the produced
end-state set; ranking the set by how often each end state is produced gives
the speculation queue ``QS_i`` — most likely state first.

The queues drive every scheme: spec-1 takes ``QS_i.front()``, PM's spec-k
takes the top-k, and the RR/NF heuristics dequeue further candidates when
scheduling speculative recoveries.

How the replay is computed.  A run from all ``n_states`` states collapses
within a symbol or two onto a small state *set* (Sin'ya & Matsuzaki's
simultaneous automata rest on the same fact), so the replay carries that
set with multiplicities instead of one lane per start state: the first
window symbol is a table column, counted once per distinct first symbol
with one ``bincount``; every further symbol gathers only the support, and
duplicate ``(window, state)`` pairs merge with summed weights.  The weights
are exactly the per-lane appearance counts, so the ranking — count
descending, then the state id — is the one a lane-per-state replay
produces.  Each *distinct* window (grouped by
:func:`~repro.automata.minimize.group_rows`) is replayed once and
boundaries with equal windows share its ranked segment.

The queues of all chunks live in one CSR layout (:class:`Prediction`) and
are read only through it: chunk ``i``'s queue is the segment
``states[bounds[i]:bounds[i + 1]]`` and ``cursors[i]`` counts its dequeued
candidates, so the recovery schedulers read and advance every cursor with
array operations and the sequential loops index the same arrays.

The paper leaves the accuracy/overhead trade-off open, so three alternative
predictors with :func:`predict_start_states`' signature bracket it (a
scheme takes any of them as ``predictor=``; lookback-``w`` is
``functools.partial(predict_start_states, lookback=w)``):

* :func:`predict_adaptive` — window deepening until each boundary's
  candidate set is small, one :func:`rank_queues` call per window width;
* :func:`predict_oracle` — the true starts, charged nothing: the upper bound;
* :func:`predict_uniform` — every state, equal weight: the lower bound.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.automata.dfa import DFA
from repro.automata.minimize import group_rows
from repro.gpu.device import DeviceSpec
from repro.gpu.stats import KernelStats
from repro.speculation.chunks import Partition
from repro.errors import SchemeError

#: The paper's lookback window (symbols of the predecessor chunk replayed).
LOOKBACK = 2

#: Most ``n_states × first symbols`` column elements counted in one
#: ``bincount``; bounds the replay's working memory on large automata.
REPLAY_BLOCK_ELEMENTS = 1 << 18

#: Up to this many ``boundaries × n_states`` replay lanes a window group is
#: replayed one lane per start state and boundary (fewer numpy calls win on
#: small automata and few chunks); above it, each distinct window once, as
#: a state set with multiplicities.  Both produce identical queues.
PER_LANE_REPLAY = 1 << 12


class Prediction:
    """Output of the predictor: the ranked speculation queue ``QS_i``
    (Table I) of every chunk, as one CSR array.

    Chunk ``i``'s candidates are ``states[bounds[i]:bounds[i + 1]]``, most
    likely first, with their appearance counts from the all-state replay in
    ``weights`` alike; ``cursors[i]`` says how many of them have been
    dequeued (the queue's front is ``states[bounds[i] + cursors[i]]``).
    Chunk 0's queue holds only the real start state (chunk 0 never
    speculates).
    """

    @classmethod
    def from_arrays(
        cls, states: np.ndarray, weights: np.ndarray, bounds: np.ndarray
    ) -> "Prediction":
        """A prediction over ready CSR arrays, every cursor at 0."""
        self = cls.__new__(cls)
        self.states = np.asarray(states, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.int64)
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.cursors = np.zeros(self.bounds.size - 1, dtype=np.int64)
        return self

    @property
    def n_chunks(self) -> int:
        return int(self.bounds.size - 1)

    @property
    def sizes(self) -> np.ndarray:
        """``(n_chunks,)`` queue lengths, dequeued candidates included."""
        return np.diff(self.bounds)

    def front_states(self) -> np.ndarray:
        """spec-1 start state for every chunk (raises when a queue is
        exhausted)."""
        if (self.cursors >= self.sizes).any():
            raise SchemeError("speculation queue exhausted")
        return self.states[self.bounds[:-1] + self.cursors]

    def dequeue_fronts(self) -> np.ndarray:
        """Pop every chunk's front candidate; returns them (spec-1 starts)."""
        fronts = self.front_states()
        self.cursors += 1
        return fronts

    def accuracy_against(self, true_starts: np.ndarray, k: int = 1) -> float:
        """Fraction of speculated chunks whose true start is in the top-k.

        Chunk 0 is excluded (it is never speculated), matching the paper's
        ``accuracy(spec-k)`` definition in Table II.
        """
        true_starts = np.asarray(true_starts)
        n = self.n_chunks
        if n != true_starts.size:
            raise SchemeError("true_starts must have one entry per chunk")
        if n <= 1:
            return 1.0
        sizes = self.sizes
        owner = np.repeat(np.arange(n), sizes)
        rank = np.arange(self.states.size) - self.bounds[owner]
        hit = (rank < k) & (self.states == true_starts[owner])
        hits = np.count_nonzero(np.bincount(owner[hit], minlength=n)[1:])
        return hits / (n - 1)


def segment_positions(
    lo: np.ndarray, sizes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat positions of the segments ``[lo[j], lo[j] + sizes[j])`` laid end
    to end, and the segment each position belongs to."""
    owner = np.repeat(np.arange(sizes.size), sizes)
    starts = np.cumsum(sizes) - sizes
    return np.arange(owner.size) + (lo - starts)[owner], owner


def predict_start_states(
    dfa: DFA,
    partition: Partition,
    start_state: Optional[int] = None,
    *,
    lookback: int = LOOKBACK,
    stats: Optional[KernelStats] = None,
    device: Optional[DeviceSpec] = None,
) -> Prediction:
    """Run all-state lookback prediction over every chunk boundary.

    Parameters
    ----------
    dfa:
        The automaton.
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

    Frequency ties break by state id.
    """
    if start_state is None:
        start_state = dfa.start
    n = partition.n_chunks
    # Chunk 0's queue is the real start state; every later chunk's comes
    # from the replay of its predecessor's tail.
    queues = rank_queues(dfa.table, partition, np.arange(1, n), lookback)
    if stats is not None:
        dev = device if device is not None else stats.device
        lanes = dfa.n_states * max(0, n - 1)
        total_lanes = dev.n_sms * dev.cores_per_sm
        rounds = -(-lanes // total_lanes) if lanes else 0
        # Each replay step is a (mostly-hot) table lookup; charge shared
        # latency — the prediction cost is the constant C of Eq. 1.
        cost = rounds * lookback * (dev.shared_cycles + dev.transition_compute_cycles)
        stats.charge("predict", float(cost))
    return _after_start(start_state, dfa.n_states, *queues)


def _after_start(start_state, n_states, states, weights, bounds) -> Prediction:
    """The prediction whose chunk 0 queue is the real start state and whose
    later queues are the boundary CSR ``(states, weights, bounds)``."""
    return Prediction.from_arrays(
        np.concatenate(([start_state], states)),
        np.concatenate(([n_states], weights)),
        np.concatenate(([0], bounds + 1)),
    )


def rank_queues(
    table: np.ndarray,
    partition: Partition,
    boundaries: np.ndarray,
    lookback: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ranked CSR ``(states, weights, bounds)`` with segment ``j`` the queue
    of chunk ``boundaries[j]`` (each ``>= 1``): the all-state replay of its
    window, the last ``lookback`` symbols of the chunk before it — fewer
    only when that chunk is shorter.  Boundaries are grouped by window
    length; with one group (no chunk that short) its CSR is the answer."""
    rows = boundaries - 1
    tails = np.minimum(np.asarray(partition.lengths[rows], dtype=np.int64), lookback)
    widths = sorted(set(tails.tolist()))
    if len(widths) == 1:
        return _rank_boundaries(table, _windows(partition, rows, widths[0]))
    parts = []
    for width in widths:
        members = np.flatnonzero(tails == width)
        states, weights, bounds = _rank_boundaries(
            table, _windows(partition, rows[members], width)
        )
        parts.append((members, states, weights, np.diff(bounds)))
    return _interleave(rows.size, parts)


def _windows(partition: Partition, rows: np.ndarray, width: int) -> np.ndarray:
    """The last ``width`` symbols of each chunk in ``rows``, one row each."""
    cols = (partition.lengths[rows] - width)[:, None] + np.arange(width)
    return partition.chunks[rows[:, None], cols]


def _interleave(n: int, parts) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One CSR ``(states, weights, bounds)`` over ``n`` segments from parts
    ``(segments, states, weights, sizes)``: each part holds, laid end to
    end, the ``sizes[j]`` entries of segment ``segments[j]``."""
    sizes = np.zeros(n, dtype=np.int64)
    for segments, _, _, part_sizes in parts:
        sizes[segments] = part_sizes
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    states = np.empty(int(bounds[-1]), dtype=np.int64)
    weights = np.empty_like(states)
    for segments, part_states, part_weights, part_sizes in parts:
        dst, _ = segment_positions(bounds[segments], part_sizes)
        states[dst] = part_states
        weights[dst] = part_weights
    return states, weights, bounds


def _rank_boundaries(
    table: np.ndarray, windows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ranked CSR ``(states, weights, bounds)`` with one segment per row of
    ``windows`` (per boundary).  A small replay runs one lane per start
    state and boundary; a large one replays each distinct window once as a
    state set and hands its segment to every boundary with that window."""
    if windows.shape[0] * table.shape[0] <= PER_LANE_REPLAY:
        return _rank_windows_per_lane(table, windows)
    first, which = group_rows(windows)
    states, weights, bounds = _rank_windows(table, windows[first])
    sizes = np.diff(bounds)[which]
    src, _ = segment_positions(bounds[which], sizes)
    out = np.zeros(which.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return states[src], weights[src], out


def _rank_windows(
    table: np.ndarray, windows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All-state replay of every row of ``windows``, as ranked CSR arrays
    ``(states, weights, bounds)``: row ``r``'s end-state set is
    ``states[bounds[r]:bounds[r + 1]]``, most frequent first.

    The replay carries ``(row, state, weight)`` triples — the states a row's
    all-state run currently occupies and how many start states sit on each
    — rather than ``n_states`` lanes a row; see the module docstring.
    """
    n_rows, width = windows.shape
    n_states = table.shape[0]
    if width == 0:
        row = np.repeat(np.arange(n_rows, dtype=np.int64), n_states)
        states = np.tile(np.arange(n_states, dtype=np.int64), n_rows)
        weights = np.ones(row.size, dtype=np.int64)
    else:
        # First symbol: the image of all states is a table column; count
        # each distinct symbol's column once (a strided read of the table),
        # a block of columns per bincount.
        first, which = np.unique(windows[:, 0], return_inverse=True)
        block = max(1, REPLAY_BLOCK_ELEMENTS // n_states)
        supports, multiplicities = [], []
        for lo in range(0, first.size, block):
            columns = first[lo : lo + block]
            offsets = np.arange(0, columns.size * n_states, n_states)
            counts = np.bincount(
                (np.take(table, columns, axis=1) + offsets).ravel(),
                minlength=columns.size * n_states,
            )
            support = np.flatnonzero(counts > 0)
            supports.append(support + lo * n_states)
            multiplicities.append(counts[support])
        support = np.concatenate(supports)
        symbol, column_states = np.divmod(support, n_states)
        edges = np.searchsorted(symbol, np.arange(first.size + 1))
        src, row = segment_positions(edges[which], np.diff(edges)[which])
        states = column_states[src]
        weights = np.concatenate(multiplicities)[src]
        for k in range(1, width):
            states = table[states, windows[row, k]]
            # Merge the start states that met on one state.
            keys = row * n_states + states
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            head = np.ones(keys.size, dtype=bool)
            head[1:] = keys[1:] != keys[:-1]
            heads = np.flatnonzero(head)
            weights = np.add.reduceat(weights[order], heads)
            row, states = np.divmod(keys[heads], n_states)
    return _ranked(row, states, weights, n_rows)


def _rank_windows_per_lane(
    table: np.ndarray, windows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_rank_windows` with one lane per ``(row, start state)``: one
    ``(rows × n_states)`` gather per window symbol, counted with one
    ``bincount``.  Fewer numpy calls than the support replay, so it is the
    faster one while the whole replay is small (:data:`PER_LANE_REPLAY`)."""
    n_rows, width = windows.shape
    n_states = table.shape[0]
    if width == 0:
        ends = np.broadcast_to(np.arange(n_states), (n_rows, n_states))
    else:
        first, which = np.unique(windows[:, 0], return_inverse=True)
        ends = table[:, first].T[which]
    for k in range(1, width):
        ends = table[ends, windows[:, k, None]]
    keys = ends + (np.arange(n_rows, dtype=np.int64) * n_states)[:, None]
    counts = np.bincount(keys.ravel(), minlength=n_rows * n_states)
    reached = np.flatnonzero(counts)
    row, states = np.divmod(reached, n_states)
    return _ranked(row, states, counts[reached], n_rows)


def _ranked(row, states, weights, n_rows: int):
    """CSR ``(states, weights, bounds)`` of ``(row, state, weight)`` triples
    given in ``(row, state)`` order: per row count descending, then the
    state id."""
    order = np.lexsort((states, -weights, row))
    bounds = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n_rows), out=bounds[1:])
    return states[order], weights[order], bounds


def predict_adaptive(
    dfa: DFA,
    partition: Partition,
    start_state: Optional[int] = None,
    *,
    stats: Optional[KernelStats] = None,
    device: Optional[DeviceSpec] = None,
    target_candidates: int = 4,
    max_window: int = 16,
) -> Prediction:
    """Deepen the replay window per boundary until the queue is small.

    Each boundary replays 1, 2, 4, … symbols from all states until at most
    ``target_candidates`` end states survive or the window reaches
    ``max_window`` (the cost ceiling): sharper queues on converging regions,
    bounded extra cost elsewhere.  Every window width is one
    :func:`rank_queues` call over the boundaries still undecided.
    ``stats`` is charged every replayed step.
    """
    if target_candidates < 1 or max_window < 1:
        raise SchemeError("target_candidates and max_window must be >= 1")
    if start_state is None:
        start_state = dfa.start
    n = partition.n_chunks
    lengths = np.asarray(partition.lengths, dtype=np.int64)
    parts = []
    pending = np.arange(1, n)
    replay_steps, window = 0, 1
    while pending.size:
        states, weights, bounds = rank_queues(dfa.table, partition, pending, window)
        replay_steps += int(np.minimum(lengths[pending - 1], window).sum())
        sizes = np.diff(bounds)
        done = (sizes <= target_candidates) | (window >= max_window)
        src, _ = segment_positions(bounds[:-1][done], sizes[done])
        parts.append((pending[done] - 1, states[src], weights[src], sizes[done]))
        pending = pending[~done]
        window = min(max_window, window * 2)
    if stats is not None:
        dev = device if device is not None else stats.device
        rounds = -(-dfa.n_states // (dev.n_sms * dev.cores_per_sm))
        cost = rounds * replay_steps * (dev.shared_cycles + dev.transition_compute_cycles)
        stats.charge("predict", float(cost))
    return _after_start(start_state, dfa.n_states, *_interleave(n - 1, parts))


def predict_oracle(
    dfa: DFA,
    partition: Partition,
    start_state: Optional[int] = None,
    *,
    stats: Optional[KernelStats] = None,
    device: Optional[DeviceSpec] = None,
) -> Prediction:
    """Perfect prediction, the ablation upper bound: each queue is the true
    start alone, found by a sequential pass the ledger is never charged for
    (deliberately unbuildable hardware)."""
    truth = true_start_states(dfa, partition, start_state=start_state)
    n = truth.size
    return Prediction.from_arrays(
        truth, np.full(n, dfa.n_states), np.arange(n + 1, dtype=np.int64)
    )


def predict_uniform(
    dfa: DFA,
    partition: Partition,
    start_state: Optional[int] = None,
    *,
    stats: Optional[KernelStats] = None,
    device: Optional[DeviceSpec] = None,
) -> Prediction:
    """No information, the ablation lower bound: every speculated chunk's
    queue holds all states with equal weight, in state id order."""
    if start_state is None:
        start_state = dfa.start
    n, n_states = partition.n_chunks, dfa.n_states
    states = np.concatenate(([start_state], np.tile(np.arange(n_states), n - 1)))
    weights = np.concatenate(([n_states], np.ones(n_states * (n - 1), dtype=np.int64)))
    bounds = np.concatenate(([0], 1 + n_states * np.arange(n, dtype=np.int64)))
    return Prediction.from_arrays(states, weights, bounds)


def true_start_states(dfa: DFA, partition: Partition, start_state: Optional[int] = None) -> np.ndarray:
    """Ground-truth start state of every chunk: one sequential walk of the
    stream (the reference run), read at the chunk offsets."""
    path = dfa.run_path(partition.symbols, start=start_state)
    return path[partition.offsets].astype(np.int64)
