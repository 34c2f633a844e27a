"""DFA minimization and canonical forms via vectorized partition refinement.

Minimization keeps the benchmark DFAs at the canonical sizes that the paper's
Table II reports, and guarantees that property profiling (state frequencies,
convergence) is not polluted by unreachable or duplicate states.

:func:`minimize_dfa` is a vectorized *incremental* Moore/Valmari-style
refinement: the partition lives in a flat colour array and each round
recolours only the dirty frontier — states with a successor whose colour
changed last round — from their ``(colour, successor colours)`` signature
rows, instead of walking a Python worklist of splitter sets.  Refinement
needs those rows grouped, not ordered, so :func:`group_rows` groups them
by hashed 64-bit keys with exact verification.  When a block whose
members are all dirty splits, its largest group keeps the block's id: any
one group would yield the same minimal DFA, and the largest re-dirties the
fewest states.  The pre-refactor Hopcroft worklist implementation is kept
as :func:`_minimize_reference` — it is the differential oracle for the
fuzzer and the baseline for ``benchmarks/bench_compile.py``.

On top of minimization this module defines the *canonical form*: minimize,
then breadth-first renumber states from the start state in symbol order.
Two DFAs accept the same language iff their canonical forms are
bit-identical, which is what :func:`canonical_fingerprint` hashes and what
the plan cache keys language-equivalence aliasing on.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.automata.dfa import DFA, STATE_DTYPE
from repro.automata.properties import reachable_states


def _restrict_to_reachable(dfa: DFA) -> DFA:
    """Drop states not reachable from the start state."""
    old_ids = reachable_states(dfa)
    if old_ids.size == dfa.n_states:
        return dfa
    remap = -np.ones(dfa.n_states, dtype=np.int64)
    remap[old_ids] = np.arange(old_ids.size)
    table = remap[dfa.table[old_ids]]
    return DFA(
        table=table.astype(STATE_DTYPE),
        start=int(remap[dfa.start]),
        accepting=frozenset(int(remap[s]) for s in dfa.accepting if remap[s] >= 0),
        name=dfa.name,
    )


def _bfs_renumber(dfa: DFA) -> DFA:
    """Renumber states breadth-first from the start state in symbol order.

    The visit order is fully determined by the transition structure (state 0
    is the start; successors are discovered symbol-by-symbol within each
    frontier wave), so any two isomorphic DFAs renumber to bit-identical
    tables.  Assumes every state is reachable — callers minimize first.
    """
    n, k = dfa.n_states, dfa.n_symbols
    remap = np.full(n, -1, dtype=np.int64)
    remap[dfa.start] = 0
    assigned = 1
    frontier = np.array([dfa.start], dtype=np.int64)
    while frontier.size and assigned < n:
        succ = dfa.table[frontier].ravel()  # row-major = symbol order per state
        succ = succ[remap[succ] < 0]
        uniq, first = np.unique(succ, return_index=True)
        new_states = uniq[np.argsort(first)]
        remap[new_states] = assigned + np.arange(new_states.size)
        assigned += new_states.size
        frontier = new_states
    table = np.empty_like(dfa.table)
    table[remap] = remap[dfa.table].astype(STATE_DTYPE)
    return DFA(
        table=table,
        start=0,
        accepting=frozenset(int(remap[s]) for s in dfa.accepting),
        name=dfa.name,
    )


@functools.lru_cache(maxsize=64)
def _hash_weights(width: int) -> np.ndarray:
    """Fixed odd 64-bit weights, one per row entry, for :func:`group_rows`:
    the splitmix64 finalizer of ``1..width`` (cheaper than seeding a
    generator on every call).  Cached read-only per width: on the few
    short rows of a feed's lookback windows, deriving them costs as much
    as grouping."""
    x = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    weights = (x | np.uint64(1)).view(np.int64)
    weights.flags.writeable = False
    return weights


def group_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of ``rows``: ``(first, inv)``.

    ``first[g]`` is the index of group ``g``'s first row and ``inv[i]`` the
    group of row ``i``.  Each row is hashed to one 64-bit key (a matmul
    against :func:`_hash_weights`, wrapping), the keys are grouped by a 1-D
    ``np.unique``, and every row is then checked exactly against its
    group's first row; on any collision the rows are grouped by the exact
    lexicographic ``np.unique(axis=0)`` instead.  Groups come in key order,
    not row order: callers need the rows grouped, not sorted.  SFA's chunk
    dedupe and the predictor's distinct lookback windows group through it.
    """
    keys = rows @ _hash_weights(rows.shape[1])
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    if not np.array_equal(rows[first[inv]], rows):
        _, first, inv = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return first, np.ravel(inv)


def _distinct_columns(table: np.ndarray) -> np.ndarray:
    """The distinct columns of ``table``, in :func:`group_rows` order.

    Refinement only needs the distinct column *set*, so hashing the columns
    replaces ``np.unique(table, axis=1)``'s lexicographic column sort.  The
    columns are grouped as contiguous rows of the transpose: hashing and
    verifying a strided view reads the table column by column.
    """
    if table.shape[1] <= 1:
        return table
    first, _ = group_rows(np.ascontiguousarray(table.T))
    return table[:, first]


def minimize_dfa(dfa: DFA, name: Optional[str] = None) -> DFA:
    """Return the minimal DFA equivalent to ``dfa``.

    Vectorized *incremental* Moore/Valmari-style partition refinement: the
    partition lives in a flat colour array, and each round recolours only
    the **dirty** states — those with at least one successor whose colour
    changed in the previous round — from their ``(colour, successor
    colours)`` signature rows.  That makes the per-round cost proportional
    to the active refinement frontier instead of ``n_states × n_symbols``,
    which is what lets deep, chain-like automata (keyword scanners, bounded
    gaps, counters) minimize in milliseconds rather than paying a full
    table pass per distinguishing-depth level.  Signature rows are grouped
    by hashed keys with exact verification (:func:`group_rows`).

    Colour ids are stable: when a block splits, one part keeps the old id
    and the rest get fresh never-before-used ids, so dirtiness propagates
    exactly along real colour changes.  A dirty state whose signature
    changed can never rejoin the clean remainder of its block (its
    signature now contains a fresh id the clean members' cannot), so blocks
    with clean members send every dirty sub-group to fresh ids.  A
    fully-dirty block lets one group keep the id: its largest (the first in
    key order among equals), as Hopcroft keeps the larger half.  Any single
    group is correct there (Valmari): the states that keep the id are
    exactly those whose colour did not change, and the ones that moved
    re-dirty every predecessor that could tell them apart.  The largest
    group only keeps the next frontier smallest.

    The result is in *canonical numbering* (breadth-first from the start
    state in symbol order, see :func:`_bfs_renumber`), which makes
    minimization idempotent at the byte level and gives language-equivalent
    inputs bit-identical minimal tables whichever group kept each id.
    """
    dfa = _restrict_to_reachable(dfa)
    n = dfa.n_states

    # Refine over distinct table columns only: symbols with identical
    # columns produce identical signature entries and cannot split blocks
    # the representative column does not already split.
    unique_cols = _distinct_columns(dfa.table)
    k_red = unique_cols.shape[1]

    # Reverse-edge CSR over the reduced table (built once): edge e runs
    # from state e // k_red to dst[e]; pred_sorted holds edge sources
    # grouped by target, indptr[t]:indptr[t+1] spans the predecessors of
    # state t.  Sorting the narrowest unsigned dtype lets numpy radix-sort.
    dst = unique_cols.ravel()
    edge_order = np.argsort(dst.astype(np.min_scalar_type(n - 1)), kind="stable")
    pred_sorted = edge_order // k_red
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n), out=indptr[1:])

    # Initial partition: accepting / non-accepting as 0-based colours
    # (all-accepting and none-accepting DFAs start with one colour).
    mask = dfa.accepting_mask
    colour = (mask != mask[0]).astype(np.int64)
    next_id = int(colour.max()) + 1

    dirty = np.arange(n, dtype=np.int64)
    while dirty.size:
        sig = np.concatenate(
            [colour[dirty, None], colour[unique_cols[dirty]]], axis=1
        )
        first, inv = group_rows(sig)
        block = sig[first, 0]

        # A block with clean (non-dirty) members keeps its id for them and
        # every dirty group splits to a fresh id; a fully-dirty block keeps
        # the id for its largest group only (ties: first in key order), so
        # the fewest states change colour and re-dirty their predecessors.
        sizes = np.bincount(colour, minlength=next_id)
        dirty_counts = np.bincount(colour[dirty], minlength=next_id)
        block_has_clean = (sizes - dirty_counts) > 0
        by_block = np.lexsort((-np.bincount(inv), block))
        heads = np.ones(by_block.size, dtype=bool)
        heads[1:] = block[by_block[1:]] != block[by_block[:-1]]
        keeps = np.zeros(first.size, dtype=bool)
        keeps[by_block[heads]] = True
        keeps &= ~block_has_clean[block]

        fresh = ~keeps
        new_ids = np.where(keeps, block, 0)
        n_fresh = int(fresh.sum())
        new_ids[fresh] = next_id + np.arange(n_fresh)
        next_id += n_fresh

        changed = dirty[fresh[inv]]
        colour[dirty] = new_ids[inv]

        # Next frontier: predecessors of every state whose colour changed,
        # marked and read back in state order.
        starts = indptr[changed]
        counts = indptr[changed + 1] - starts
        offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        marked = np.zeros(n, dtype=bool)
        marked[pred_sorted[offsets + np.arange(offsets.size)]] = True
        dirty = np.flatnonzero(marked)

    # Quotient: one representative state per colour (any member will do:
    # the partition is stable, so members agree on successor colours), with
    # the sparse stable ids densified to 0-based colours in id order.
    present = np.zeros(next_id, dtype=bool)
    present[colour] = True
    dense = np.cumsum(present) - 1
    reps = np.empty(next_id, dtype=np.int64)
    reps[colour] = np.arange(n)
    colour = dense[colour]
    table = colour[dfa.table[reps[present]]].astype(STATE_DTYPE)
    quotient = DFA(
        table=table,
        start=int(colour[dfa.start]),
        accepting=frozenset(colour[mask].tolist()),
        name=name if name is not None else dfa.name,
    )
    return _bfs_renumber(quotient)


def canonical_form(dfa: DFA, name: Optional[str] = None) -> DFA:
    """The canonical representative of ``dfa``'s language class.

    Minimize, then breadth-first renumber from the start state in symbol
    order.  Complete DFAs accepting the same language map to bit-identical
    canonical tables (Myhill–Nerode: the minimal complete DFA is unique up
    to isomorphism, and the BFS numbering fixes the isomorphism).
    """
    return minimize_dfa(dfa, name=name)


def canonical_fingerprint(dfa: DFA) -> str:
    """Content fingerprint of ``dfa``'s canonical form.

    Identical for all language-equivalent DFAs over the same alphabet; this
    is the key the serving tier dedupes compiled plans on.
    """
    return canonical_form(dfa).fingerprint()


def _minimize_reference(dfa: DFA, name: Optional[str] = None) -> DFA:
    """Pre-refactor Hopcroft worklist minimization (differential oracle).

    Kept verbatim as the baseline for the fuzzer's differential gate and
    for ``benchmarks/bench_compile.py``'s speedup guard.  Produces the same
    minimal DFA as :func:`minimize_dfa` up to state renumbering.
    """
    dfa = _restrict_to_reachable(dfa)
    full_k = dfa.n_symbols

    # Work on distinct table columns only: symbols with identical columns
    # are behaviourally identical and refine partitions identically.
    unique_cols, col_of_symbol = np.unique(dfa.table, axis=1, return_inverse=True)
    reduced = DFA(
        table=unique_cols,
        start=dfa.start,
        accepting=dfa.accepting,
        name=dfa.name,
    )
    if unique_cols.shape[1] != full_k:
        minimized = _minimize_reference(reduced, name=name)
        table = minimized.table[:, col_of_symbol]
        return DFA(
            table=table,
            start=minimized.start,
            accepting=minimized.accepting,
            name=minimized.name,
        )

    n, k = dfa.n_states, dfa.n_symbols

    accepting = dfa.accepting_mask
    # Initial partition: accepting / non-accepting (skip empty blocks).
    block_of = np.zeros(n, dtype=np.int64)
    blocks: List[Set[int]] = []
    non_acc = set(np.flatnonzero(~accepting).tolist())
    acc = set(np.flatnonzero(accepting).tolist())
    for group in (non_acc, acc):
        if group:
            bid = len(blocks)
            blocks.append(group)
            for q in group:
                block_of[q] = bid
    if len(blocks) <= 1:
        # All states equivalent: single-state DFA.
        table = np.zeros((1, k), dtype=STATE_DTYPE)
        return DFA(
            table=table,
            start=0,
            accepting=frozenset({0}) if dfa.accepting else frozenset(),
            name=name if name is not None else dfa.name,
        )

    # preds[a] maps each state to the list of its predecessors on symbol a.
    preds: List[Dict[int, List[int]]] = []
    for a in range(k):
        col = dfa.table[:, a]
        d: Dict[int, List[int]] = {}
        order = np.argsort(col, kind="stable")
        sorted_targets = col[order]
        boundaries = np.flatnonzero(np.diff(sorted_targets)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))
        for s, e in zip(starts, ends):
            d[int(sorted_targets[s])] = order[s:e].tolist()
        preds.append(d)

    # Worklist: smaller of the two initial blocks, for every symbol.
    smaller = 0 if len(blocks[0]) <= len(blocks[1]) else 1
    worklist: Set = {(smaller, a) for a in range(k)}

    while worklist:
        bid, a = worklist.pop()
        splitter = blocks[bid]
        pred_map = preds[a]
        # X = states whose a-transition lands in the splitter block.
        x: Set[int] = set()
        for q in splitter:
            x.update(pred_map.get(q, ()))
        if not x:
            continue
        # Refine every block intersecting X.
        touched: Dict[int, Set[int]] = {}
        for q in x:
            touched.setdefault(int(block_of[q]), set()).add(q)
        for tb, inter in touched.items():
            block = blocks[tb]
            if len(inter) == len(block):
                continue  # block fully inside X: no split
            rest = block - inter
            # Keep the larger part in place, spin off the smaller one.
            if len(inter) <= len(rest):
                new_set, old_set = inter, rest
            else:
                new_set, old_set = rest, inter
            blocks[tb] = old_set
            new_bid = len(blocks)
            blocks.append(new_set)
            for q in new_set:
                block_of[q] = new_bid
            for sym in range(k):
                if (tb, sym) in worklist:
                    worklist.add((new_bid, sym))
                else:
                    # Add the smaller of the two pieces.
                    if len(new_set) <= len(old_set):
                        worklist.add((new_bid, sym))
                    else:
                        worklist.add((tb, sym))

    # Build the quotient automaton. Renumber blocks so the start block is 0
    # and ids follow first-visit order for determinism.
    order: List[int] = []
    seen_blocks = set()
    stack = [int(block_of[dfa.start])]
    rep = {bid: min(b) for bid, b in enumerate(blocks) if b}
    while stack:
        bid = stack.pop()
        if bid in seen_blocks:
            continue
        seen_blocks.add(bid)
        order.append(bid)
        r = rep[bid]
        for a in range(k):
            stack.append(int(block_of[dfa.table[r, a]]))
    new_id = {bid: i for i, bid in enumerate(order)}

    m = len(order)
    table = np.zeros((m, k), dtype=STATE_DTYPE)
    new_accepting = set()
    for bid in order:
        i = new_id[bid]
        r = rep[bid]
        for a in range(k):
            table[i, a] = new_id[int(block_of[dfa.table[r, a]])]
        if r in dfa.accepting:
            new_accepting.add(i)
    return DFA(
        table=table,
        start=new_id[int(block_of[dfa.start])],
        accepting=frozenset(new_accepting),
        name=name if name is not None else dfa.name,
    )
