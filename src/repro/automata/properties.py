"""FSM property profiling used by the transformation and the scheme selector.

Three families of properties drive GSpecPal's decisions:

* **state frequency** — which states the DFA actually visits on realistic
  input; the frequency-based transformation (Fig. 4) promotes the hottest
  states' rows into (simulated) shared memory;
* **state convergence** — how quickly runs started from *all* states collapse
  onto few states (``#uniqStates(10 trans.)`` in Table II); fast convergence
  is what makes end-state forwarding (SRE) effective;
* **reachability** — sanity structure used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.automata.dfa import DFA, _as_symbol_array
from repro.errors import AutomatonError


@dataclass(frozen=True)
class StateFrequencyProfile:
    """Result of profiling state-visit frequencies on a training input.

    Attributes
    ----------
    counts:
        ``(n_states,)`` visit counts.
    order:
        State ids sorted hottest-first (ties broken by state id so the
        profile is deterministic).
    sample_length:
        Number of input symbols the profile was collected over.
    """

    counts: np.ndarray
    order: np.ndarray
    sample_length: int

    @property
    def frequencies(self) -> np.ndarray:
        """Visit frequencies normalized to sum to 1 (zeros if empty sample)."""
        total = self.counts.sum()
        if total == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts / float(total)

    def rank_of(self) -> np.ndarray:
        """``rank[q]`` = hotness rank of state ``q`` (0 = hottest)."""
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(self.order.size)
        return rank

    def check_fits(self, n_states: int) -> None:
        """Raise :class:`~repro.errors.AutomatonError` unless this profile
        counts and orders exactly the ``n_states`` states of the DFA it is
        applied to."""
        if self.counts.shape != (n_states,):
            raise AutomatonError(
                "profile was collected on a DFA with a different state count"
            )
        order = np.asarray(self.order)
        if order.shape != (n_states,) or not np.array_equal(
            np.sort(order), np.arange(n_states)
        ):
            raise AutomatonError("profile order is not a permutation of the states")


def profile_state_frequencies(
    dfa: DFA,
    training_input,
    start: Optional[int] = None,
    *,
    path: Optional[np.ndarray] = None,
) -> StateFrequencyProfile:
    """Count state visits while running ``dfa`` over ``training_input``.

    This is the paper's offline profiling pass: "an offline profiling is
    applied to count the frequency of each state in the original transition
    table" using a small slice (0.5%) of representative input.  ``path``
    is ``dfa.run_path(training_input, start=start)`` when the caller has
    already walked the slice; without it the walk happens here.
    """
    symbols = _as_symbol_array(training_input)
    if path is None:
        path = dfa.run_path(symbols, start=start)
    counts = np.bincount(path, minlength=dfa.n_states).astype(np.int64)
    # Hottest first; break frequency ties by state id for determinism.
    order = np.lexsort((np.arange(dfa.n_states), -counts))
    return StateFrequencyProfile(counts=counts, order=order, sample_length=len(symbols))


def unique_states_after(dfa: DFA, window, steps: Optional[int] = None) -> int:
    """Number of distinct end states after running ``window`` from all states.

    ``#uniqStates(10 trans.)`` in Table II is this quantity with a 10-symbol
    window.  A small number means the FSM converges quickly, i.e. forwarding
    the predecessor's end state is likely to be correct.
    """
    symbols = _as_symbol_array(window)
    if steps is not None:
        symbols = symbols[:steps]
    ends = dfa.run_all_states(symbols)
    return int(np.unique(ends).size)


def image_sizes(dfa: DFA, windows: np.ndarray) -> np.ndarray:
    """:func:`unique_states_after` for every row of ``windows`` at once.

    ``windows`` is an ``(n_windows, length)`` symbol matrix.  All rows run
    from every state together as one ``(n_windows, n_states)`` plane, one
    gather per symbol position (a flat ``take`` of ``state * n_symbols +
    symbol``); each row's distinct count then comes from
    :func:`distinct_per_row`.
    """
    n_windows, length = windows.shape
    flat = dfa.table.ravel()
    plane = np.broadcast_to(
        np.arange(dfa.n_states, dtype=flat.dtype), (n_windows, dfa.n_states)
    )
    for j in range(length):
        plane = flat.take(plane * dfa.n_symbols + windows[:, j, None])
    return distinct_per_row(plane)


def distinct_per_row(plane: np.ndarray) -> np.ndarray:
    """Number of distinct values in each row of a 2-D array with at least
    one column: one row-wise sort, then a count of adjacent changes."""
    ordered = np.sort(plane, axis=1)
    return 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)


def convergence_profile(
    dfa: DFA,
    training_input,
    steps: int = 10,
    n_windows: int = 32,
    seed: int = 0,
) -> np.ndarray:
    """Sample ``n_windows`` windows of ``steps`` symbols and report the number
    of unique surviving states for each.

    The mean of this vector is the convergence statistic the selector
    consumes ("counting the number of unique states after running 10 steps of
    transitions starting from all states").
    """
    symbols = _as_symbol_array(training_input)
    if len(symbols) < steps:
        raise AutomatonError(
            f"training input too short for convergence profiling "
            f"({len(symbols)} < {steps} symbols)"
        )
    rng = np.random.default_rng(seed)
    max_offset = len(symbols) - steps
    offsets = rng.integers(0, max_offset + 1, size=n_windows)
    return image_sizes(dfa, symbols[offsets[:, None] + np.arange(steps)])


def reachable_states(dfa: DFA) -> np.ndarray:
    """State ids reachable from the start state (sorted)."""
    seen = np.zeros(dfa.n_states, dtype=bool)
    seen[dfa.start] = True
    frontier = np.array([dfa.start], dtype=np.int64)
    while frontier.size:
        succ = dfa.table[frontier].ravel()
        frontier = np.unique(succ[~seen[succ]])
        seen[frontier] = True
    return np.flatnonzero(seen)


def are_equivalent(a: DFA, b: DFA) -> bool:
    """True iff ``a`` and ``b`` accept the same language.

    Breadth-first search over the product automaton, vectorized one wave at
    a time: each reachable pair ``(qa, qb)`` is a single int64 key
    ``qa * b.n_states + qb``; a wave's successors on *all* symbols come from
    two table gathers, and the acceptance-agreement check is one mask
    comparison per wave.  Runs in ``O(|reachable product| × n_symbols)``.

    DFAs over different alphabet sizes are never equivalent (the language is
    a set of strings over a fixed alphabet).
    """
    if a.n_symbols != b.n_symbols:
        return False
    acc_a = a.accepting_mask
    acc_b = b.accepting_mask
    nb = b.n_states
    seen = {int(a.start) * nb + int(b.start)}
    pairs_a = np.array([a.start], dtype=np.int64)
    pairs_b = np.array([b.start], dtype=np.int64)
    while pairs_a.size:
        if not np.array_equal(acc_a[pairs_a], acc_b[pairs_b]):
            return False
        succ_a = a.table[pairs_a].astype(np.int64).ravel()
        succ_b = b.table[pairs_b].astype(np.int64).ravel()
        keys = np.unique(succ_a * nb + succ_b)
        fresh = np.array(
            [k for k in keys.tolist() if k not in seen], dtype=np.int64
        )
        seen.update(fresh.tolist())
        pairs_a, pairs_b = fresh // nb, fresh % nb
    return True
