"""Non-deterministic finite automata and the subset construction.

The NFA here is the Thompson-construction target of the regex compiler: a set
of states with symbol transitions and ε-transitions.  ``nfa_to_dfa`` performs
the classic subset construction to produce the dense-table :class:`DFA` the
rest of the library operates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set

import numpy as np

from repro.automata.dfa import DFA, STATE_DTYPE
from repro.errors import AutomatonError

EPSILON = -1  # sentinel symbol id for ε-transitions


@dataclass
class NFA:
    """A non-deterministic finite automaton over integer symbols.

    Transitions are stored as a list-of-dicts: ``transitions[q][a]`` is the
    set of states reachable from ``q`` on symbol ``a`` (``a == EPSILON`` for
    ε-moves).  This sparse layout matches Thompson construction output where
    most states have one or two outgoing edges.
    """

    n_symbols: int
    transitions: List[Dict[int, Set[int]]] = field(default_factory=list)
    start: int = 0
    accepting: Set[int] = field(default_factory=set)
    name: str = "nfa"

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_state(self) -> int:
        """Add a fresh state and return its id."""
        self.transitions.append({})
        return len(self.transitions) - 1

    def add_transition(self, src: int, symbol: int, dst: int) -> None:
        """Add ``src --symbol--> dst`` (``symbol`` may be :data:`EPSILON`)."""
        self._check_state(src)
        self._check_state(dst)
        if symbol != EPSILON and not (0 <= symbol < self.n_symbols):
            raise AutomatonError(f"symbol {symbol} out of range [0, {self.n_symbols})")
        self.transitions[src].setdefault(symbol, set()).add(dst)

    def add_transitions(self, src: int, symbols: Iterable[int], dst: int) -> None:
        """Add ``src --a--> dst`` for every ``a`` in ``symbols``."""
        for sym in symbols:
            self.add_transition(src, sym, dst)

    def _check_state(self, state: int) -> None:
        if not (0 <= state < len(self.transitions)):
            raise AutomatonError(f"state {state} out of range [0, {len(self.transitions)})")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def epsilon_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        """All states reachable from ``states`` via ε-moves (inclusive)."""
        stack = list(states)
        closure: Set[int] = set(stack)
        while stack:
            q = stack.pop()
            for nxt in self.transitions[q].get(EPSILON, ()):
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        return frozenset(closure)

    def move(self, states: Iterable[int], symbol: int) -> Set[int]:
        """States reachable from ``states`` on one ``symbol`` edge (no ε)."""
        out: Set[int] = set()
        for q in states:
            out |= self.transitions[q].get(symbol, set())
        return out

    def run(self, data: Iterable[int]) -> FrozenSet[int]:
        """Simulate the NFA over ``data`` and return the active state set."""
        active = self.epsilon_closure([self.start])
        for sym in data:
            active = self.epsilon_closure(self.move(active, int(sym)))
            if not active:
                break
        return frozenset(active)

    def accepts(self, data: Iterable[int]) -> bool:
        """True iff some accepting state is active after consuming ``data``."""
        return bool(self.run(data) & self.accepting)

    def make_accepting_sticky(self) -> None:
        """Give every accepting state a self-loop on the whole alphabet.

        Turns a "match the whole input" automaton into a "has a prefix that
        matched" scanner, which is the semantics pattern-matching workloads
        (Snort/ClamAV rules) use: once a signature fires the stream stays
        flagged.
        """
        for q in self.accepting:
            for sym in range(self.n_symbols):
                self.add_transition(q, sym, q)


def symbol_classes(nfa: NFA) -> List[List[int]]:
    """Partition the alphabet into behaviourally identical symbol classes.

    Two symbols are equivalent when every NFA state has exactly the same
    outgoing targets on both.  Rule-set NFAs touch only a handful of bytes
    explicitly, so the 256-symbol alphabet typically collapses to a few
    dozen classes — a large constant-factor win for determinization, with
    identical results.
    """
    signatures: Dict[int, list] = {sym: [] for sym in range(nfa.n_symbols)}
    for q, edges in enumerate(nfa.transitions):
        for sym, dsts in edges.items():
            if sym == EPSILON:
                continue
            signatures[sym].append((q, tuple(sorted(dsts))))
    groups: Dict[tuple, List[int]] = {}
    for sym in range(nfa.n_symbols):
        groups.setdefault(tuple(signatures[sym]), []).append(sym)
    return list(groups.values())


def _epsilon_closure_matrix(nfa: NFA, n_bytes: int) -> np.ndarray:
    """``(n_states, n_bytes)`` packed boolean matrix of per-state ε-closures.

    Computed as a vectorized fixpoint over the static ε-edge list: every
    iteration ORs each state's successors' closure rows into its own
    (``np.bitwise_or.reduceat`` over the edge-sorted gather), so one pass
    costs O(ε-edges × n_bytes) with no per-state python work.  Convergence
    takes at most the ε-diameter iterations — small for Thompson NFAs.
    """
    n = nfa.n_states
    closure = np.zeros((n, n_bytes), dtype=np.uint8)
    closure[np.arange(n), np.arange(n) // 8] = 1 << (np.arange(n) % 8).astype(np.uint8)

    srcs: List[int] = []
    dsts: List[int] = []
    for q, edges in enumerate(nfa.transitions):
        for d in edges.get(EPSILON, ()):
            srcs.append(q)
            dsts.append(d)
    if not srcs:
        return closure
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    group_src = src[np.concatenate(([0], np.flatnonzero(np.diff(src)) + 1))]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(src)) + 1))

    while True:
        contrib = np.bitwise_or.reduceat(closure[dst], starts, axis=0)
        updated = closure[group_src] | contrib
        if np.array_equal(updated, closure[group_src]):
            return closure
        closure[group_src] = updated


def _grouped_or(rows: np.ndarray, counts: np.ndarray, width: int) -> np.ndarray:
    """OR-reduce consecutive ``counts[i]``-sized row groups of ``rows``.

    Vectorized segmented reduction: empty groups yield all-zero rows.  Only
    non-empty groups participate in the ``np.bitwise_or.reduceat`` call —
    their start offsets are strictly increasing, which sidesteps reduceat's
    empty-segment quirks entirely.
    """
    n_groups = counts.size
    out = np.zeros((n_groups, width), dtype=np.uint8)
    nonempty = np.flatnonzero(counts)
    if rows.shape[0] == 0 or nonempty.size == 0:
        return out
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))[nonempty]
    out[nonempty] = np.bitwise_or.reduceat(rows, starts, axis=0)
    return out


class PackedNFA(NamedTuple):
    """An NFA's ε-closed moves as packed uint8 bitset rows (bit ``q`` is bit
    ``q % 8`` of byte ``q // 8``): the subset construction's building blocks
    and the rows the state-parallel NFA engine steps."""

    symbol_class: np.ndarray  # (n_symbols,) class id (see symbol_classes)
    start: np.ndarray  # (n_bytes,) ε-closure of the start state
    accepting: np.ndarray  # (n_bytes,) the accepting states
    moves: np.ndarray  # (n_states, n_classes, n_bytes): ε-closure(move(q, c))


def pack_nfa(nfa: NFA) -> PackedNFA:
    """Build ``nfa``'s :class:`PackedNFA`.

    ε-closures come from :func:`_epsilon_closure_matrix` (a vectorized
    fixpoint); the closed moves from one gather of the destination closures
    and one segmented OR over the ``(state, class)``-sorted edge list.
    """
    classes = symbol_classes(nfa)
    n_classes = len(classes)
    n = nfa.n_states
    n_bytes = (n + 7) // 8
    closure = _epsilon_closure_matrix(nfa, n_bytes)

    symbol_class = np.empty(nfa.n_symbols, dtype=np.int64)
    for ci, cls in enumerate(classes):
        symbol_class[cls] = ci
    rep_class = {cls[0]: ci for ci, cls in enumerate(classes)}
    e_src: List[int] = []
    e_cls: List[int] = []
    e_dst: List[int] = []
    for q, edges in enumerate(nfa.transitions):
        for sym, targets in edges.items():
            ci = rep_class.get(sym)
            if ci is None:
                continue
            for d in targets:
                e_src.append(q)
                e_cls.append(ci)
                e_dst.append(d)
    moves = np.zeros((n, n_classes, n_bytes), dtype=np.uint8)
    if e_src:
        src = np.asarray(e_src, dtype=np.int64)
        cls_arr = np.asarray(e_cls, dtype=np.int64)
        dst = np.asarray(e_dst, dtype=np.int64)
        key = src * n_classes + cls_arr
        order = np.argsort(key, kind="stable")
        key, dst = key[order], dst[order]
        boundaries = np.concatenate(([0], np.flatnonzero(np.diff(key)) + 1))
        merged = np.bitwise_or.reduceat(closure[dst], boundaries, axis=0)
        group_keys = key[boundaries]
        moves[group_keys // n_classes, group_keys % n_classes] = merged

    accepting = np.zeros(n_bytes * 8, dtype=bool)
    accepting[list(nfa.accepting)] = True
    accepting = np.packbits(accepting, bitorder="little")
    return PackedNFA(symbol_class, closure[nfa.start], accepting, moves)


def nfa_to_dfa(nfa: NFA, name: Optional[str] = None, max_states: int = 100_000) -> DFA:
    """Determinize ``nfa`` via a vectorized bitset subset construction.

    The resulting DFA is *complete*: a dead state is materialized for subsets
    with no outgoing transition so that the dense table has no holes.  The
    construction runs over symbol equivalence classes (see
    :func:`symbol_classes`) and expands the full-width table at the end.

    State sets are packed uint8 bitset rows.  The per-state closed moves
    come from :func:`pack_nfa`, and the frontier is expanded **one wave at
    a time**: a whole wave of subsets is unpacked to a boolean membership
    matrix, its class targets computed by a single segmented OR-reduction,
    and new subsets deduplicated with ``np.unique`` over packed rows — no
    per-subset python inner loops.

    Parameters
    ----------
    max_states:
        Safety valve against exponential blow-up; raises a structured
        :class:`AutomatonError` (carrying ``state_count`` and ``limit``)
        when exceeded.
    """
    packed = pack_nfa(nfa)
    n = nfa.n_states
    n_classes = packed.moves.shape[1]
    n_bytes = packed.start.size
    closed_move_flat = packed.moves.reshape(n, n_classes * n_bytes)

    subset_ids: Dict[bytes, int] = {packed.start.tobytes(): 0}
    accepting: Set[int] = set()
    table_rows: List[np.ndarray] = []
    frontier = packed.start[None, :]  # (wave_size, n_bytes)

    while frontier.shape[0]:
        wave = frontier.shape[0]
        hits = (frontier & packed.accepting).any(axis=1)
        base_id = sum(t.shape[0] for t in table_rows)
        accepting.update(int(base_id + i) for i in np.flatnonzero(hits))

        members = np.unpackbits(frontier, axis=1, bitorder="little")[:, :n]
        counts = members.sum(axis=1).astype(np.int64)
        _, states = np.nonzero(members)  # row-major: grouped by wave row
        targets = _grouped_or(
            closed_move_flat[states], counts, n_classes * n_bytes
        ).reshape(wave * n_classes, n_bytes)

        # Dedupe the wave's targets and assign ids to genuinely new subsets.
        uniq, inverse = np.unique(targets, axis=0, return_inverse=True)
        uniq_ids = np.empty(uniq.shape[0], dtype=np.int64)
        fresh_rows: List[np.ndarray] = []
        for u in range(uniq.shape[0]):
            row_key = uniq[u].tobytes()
            sid = subset_ids.get(row_key)
            if sid is None:
                sid = len(subset_ids)
                if sid >= max_states:
                    raise AutomatonError(
                        f"subset construction for {nfa.name!r} exceeded "
                        f"max_states: reached {sid + 1} states "
                        f"(limit {max_states})",
                        state_count=sid + 1,
                        limit=max_states,
                        automaton=nfa.name,
                    )
                subset_ids[row_key] = sid
                fresh_rows.append(uniq[u])
            uniq_ids[u] = sid
        table_rows.append(
            uniq_ids[np.ravel(inverse)].reshape(wave, n_classes).astype(STATE_DTYPE)
        )
        frontier = (
            np.stack(fresh_rows)
            if fresh_rows
            else np.empty((0, n_bytes), dtype=np.uint8)
        )

    class_table = np.concatenate(table_rows, axis=0)
    return DFA(
        table=class_table[:, packed.symbol_class],
        start=0,
        accepting=frozenset(accepting),
        name=name if name is not None else nfa.name,
    )


def union_nfas(nfas: List[NFA], name: str = "union") -> NFA:
    """Disjunction of several NFAs: a new start ε-branches to each operand.

    This is how the paper builds each benchmark FSM — "a disjunction of
    multiple randomly selected regular expressions".
    """
    if not nfas:
        raise AutomatonError("union_nfas requires at least one NFA")
    n_symbols = nfas[0].n_symbols
    for n in nfas:
        if n.n_symbols != n_symbols:
            raise AutomatonError("all NFAs in a union must share an alphabet")
    out = NFA(n_symbols=n_symbols, name=name)
    new_start = out.add_state()
    out.start = new_start
    for nfa in nfas:
        offset = out.n_states
        for _ in range(nfa.n_states):
            out.add_state()
        for q, edges in enumerate(nfa.transitions):
            for sym, dsts in edges.items():
                for d in dsts:
                    out.add_transition(q + offset, sym, d + offset)
        out.add_transition(new_start, EPSILON, nfa.start + offset)
        out.accepting |= {q + offset for q in nfa.accepting}
    return out
