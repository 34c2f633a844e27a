"""Dense-table deterministic finite automata.

The DFA is the central data structure of the whole reproduction: every
parallelization scheme ultimately executes ``state = table[state, symbol]``
loops over chunks of the input, exactly as ``FSM_Processing`` in Algorithm 1
of the paper.  The transition table is stored as a C-contiguous
``(n_states, n_symbols)`` ``int32`` numpy array so that the lockstep executor
can run one gather per input position for *all* simulated GPU threads at once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AutomatonError

#: numpy dtype used for state identifiers throughout the library.
STATE_DTYPE = np.int32


def _as_symbol_array(data: "bytes | bytearray | memoryview | np.ndarray | Sequence[int]") -> np.ndarray:
    """Normalize an input stream to a 1-D uint8/int array of symbol indices.

    An array in non-native byte order (``np.frombuffer(buf, ">u2")``) comes
    back in native order: memoryviews, which the scalar walks step, iterate
    native formats only."""
    if isinstance(data, np.ndarray):
        arr = data
        if arr.ndim != 1:
            raise AutomatonError(f"input stream must be 1-D, got shape {arr.shape}")
        if not arr.dtype.isnative:
            arr = arr.astype(arr.dtype.newbyteorder("="))
        return np.ascontiguousarray(arr)
    if isinstance(data, (bytes, bytearray, memoryview)):
        return np.frombuffer(bytes(data), dtype=np.uint8)
    return np.asarray(list(data), dtype=np.int64)


@dataclass(frozen=True)
class DFA:
    """A deterministic finite automaton over an integer symbol alphabet.

    Parameters
    ----------
    table:
        ``(n_states, n_symbols)`` integer array; ``table[q, a]`` is the state
        reached from ``q`` on symbol ``a``.
    start:
        Initial state ``q0``.
    accepting:
        Frozenset of accepting state ids (``F`` in the paper's tuple).
    name:
        Optional human-readable label used in reports and benchmarks.

    The table is owned and read-only.  The constructor adopts a C-contiguous
    ``int32`` array that owns its data and copies anything else (a view, a
    wider dtype, a list), so no one can write through a view's base; it then
    clears the array's ``writeable`` flag.  A caller must not keep writing
    through views of an adopted array made before construction.  Because
    the table cannot change, :meth:`fingerprint` hashes it at most once.
    Every other way of making a DFA — pickling, :mod:`copy`,
    :func:`dataclasses.replace` — goes back through the constructor and so
    starts without a digest.
    """

    table: np.ndarray
    start: int
    accepting: frozenset = field(default_factory=frozenset)
    name: str = "dfa"

    def __post_init__(self) -> None:
        wide = np.asarray(self.table)
        table = np.ascontiguousarray(wide, dtype=STATE_DTYPE)
        if not table.flags.owndata:
            table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        if table.ndim != 2:
            raise AutomatonError(f"transition table must be 2-D, got shape {table.shape}")
        n_states, _ = table.shape
        if n_states == 0:
            raise AutomatonError("a DFA needs at least one state")
        if not (0 <= self.start < n_states):
            raise AutomatonError(f"start state {self.start} out of range [0, {n_states})")
        # Checked as given: narrowing to STATE_DTYPE wraps modulo 2**32, so
        # an entry of 2**32 would read as state 0 after the cast.
        if table.size and (wide.min() < 0 or wide.max() >= n_states):
            raise AutomatonError("transition table references states out of range")
        acc = frozenset(int(s) for s in self.accepting)
        for s in acc:
            if not (0 <= s < n_states):
                raise AutomatonError(f"accepting state {s} out of range [0, {n_states})")
        object.__setattr__(self, "accepting", acc)

    def __reduce__(self):
        # Rebuild through the constructor: the copy gets a read-only table
        # of its own and no memoized digest.
        return (type(self), (self.table, self.start, self.accepting, self.name))

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def n_states(self) -> int:
        """Number of states ``|Q|``."""
        return int(self.table.shape[0])

    @property
    def n_symbols(self) -> int:
        """Alphabet size ``|Σ|``."""
        return int(self.table.shape[1])

    @property
    def accepting_mask(self) -> np.ndarray:
        """Boolean vector, ``mask[q]`` is True iff ``q`` is accepting."""
        mask = np.zeros(self.n_states, dtype=bool)
        if self.accepting:
            mask[np.fromiter(self.accepting, dtype=np.int64)] = True
        return mask

    # ------------------------------------------------------------------
    # sequential execution (the "embarrassingly sequential" reference)
    # ------------------------------------------------------------------
    def step(self, state: int, symbol: int) -> int:
        """Single transition ``δ(state, symbol)``."""
        return int(self.table[state, symbol])

    def run(self, data, start: Optional[int] = None) -> int:
        """Run the DFA over ``data`` and return the end state.

        This is the scalar reference implementation of ``FSM_Processing``;
        every speculative scheme must agree with it.
        """
        state = self.start if start is None else int(start)
        table = memoryview(self.table)
        for sym in memoryview(_as_symbol_array(data)):
            state = table[state, sym]
        return state

    def run_path(self, data, start: Optional[int] = None) -> np.ndarray:
        """Return the full state trajectory (length ``len(data) + 1``).

        Like :meth:`run`, the walk steps Python ints through memoryviews
        of the symbols and the table, not numpy scalars.
        """
        state = self.start if start is None else int(start)
        table = memoryview(self.table)
        path = [state]
        visit = path.append
        for sym in memoryview(_as_symbol_array(data)):
            state = table[state, sym]
            visit(state)
        return np.array(path, dtype=STATE_DTYPE)

    def accepts(self, data, start: Optional[int] = None) -> bool:
        """True iff running over ``data`` ends in an accepting state."""
        return self.run(data, start=start) in self.accepting

    # ------------------------------------------------------------------
    # vectorized execution helpers
    # ------------------------------------------------------------------
    def run_many(self, data, starts: Iterable[int]) -> np.ndarray:
        """Run the *same* input from many start states in lockstep.

        Used by the all-state lookback predictor (run the last two symbols of
        the predecessor chunk from every state) and by enumerative schemes.
        """
        symbols = _as_symbol_array(data)
        if isinstance(starts, (np.ndarray, range, list, tuple)):
            states = np.array(starts, dtype=STATE_DTYPE)
        else:  # any other iterable, generators included
            states = np.fromiter(starts, dtype=STATE_DTYPE)
        table = self.table
        for sym in symbols:
            states = table[states, sym]
        return states

    def run_all_states(self, data) -> np.ndarray:
        """Vector ``v`` with ``v[q]`` = end state of running ``data`` from ``q``.

        Equivalent to composing the per-symbol transition functions; the
        result is the column-function of the input viewed as a mapping
        ``Q → Q`` (the algebraic object enumerative parallelization exploits).
        """
        return self.run_many(data, np.arange(self.n_states, dtype=STATE_DTYPE))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def successors(self, state: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(symbol, next_state)`` pairs for ``state``."""
        row = self.table[state]
        for sym in range(self.n_symbols):
            yield sym, int(row[sym])

    def renumbered(self, permutation: np.ndarray, name: Optional[str] = None) -> "DFA":
        """Return an isomorphic DFA with states relabelled by ``permutation``.

        ``permutation[q]`` is the new id of old state ``q``.  Builds the
        renumbered twins of scenario documents and the differential
        fuzzer; the sim backend's Fig. 4 table is this relabelling by
        hotness rank (:class:`~repro.engine.sim.SimBackend` builds it
        in place, without a DFA).
        """
        perm = np.asarray(permutation, dtype=np.int64)
        n = self.n_states
        if perm.shape != (n,):
            raise AutomatonError("permutation must have one entry per state")
        # n entries mark all n states only if each is in range and distinct.
        hit = np.zeros(n, dtype=bool)
        hit[perm[(perm >= 0) & (perm < n)]] = True
        if not hit.all():
            raise AutomatonError("permutation must be a bijection on states")
        new_table = np.empty_like(self.table)
        # new_table[perm[q], a] = perm[table[q, a]]
        new_table[perm, :] = perm[self.table]
        return DFA(
            table=new_table,
            start=int(perm[self.start]),
            accepting=frozenset(int(perm[s]) for s in self.accepting),
            name=name if name is not None else self.name,
        )

    def fingerprint(self) -> str:
        """Content hash identifying this automaton's *behaviour*.

        Covers the transition table (shape and bytes), the start state and
        the accepting set — everything execution depends on — but not the
        cosmetic ``name``.  Used as the cache/validation key for compiled
        plans: two DFAs with equal fingerprints are interchangeable at
        execution time.  The table is read-only, so the digest is computed
        on first call and memoized.
        """
        digest = self.__dict__.get("_fingerprint")
        if digest is None:
            h = hashlib.sha256()
            h.update(f"dfa/v1:{self.n_states}x{self.n_symbols}:{self.start}:".encode())
            h.update(",".join(str(s) for s in sorted(self.accepting)).encode())
            h.update(self.table.data)
            digest = h.hexdigest()
            object.__setattr__(self, "_fingerprint", digest)
        return digest

    def canonical_fingerprint(self) -> str:
        """Content hash identifying this automaton's *language*.

        The fingerprint of the canonical form (minimize, then BFS-renumber
        from the start state in symbol order — see
        :func:`repro.automata.minimize.canonical_form`), so it is identical
        for every DFA accepting the same language over the same alphabet.
        Used by the plan cache to dedupe compiles across language-equivalent
        submissions; strictly coarser than :meth:`fingerprint`.
        """
        from repro.automata.minimize import canonical_fingerprint

        return canonical_fingerprint(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DFA):
            return NotImplemented
        return (
            self.start == other.start
            and self.accepting == other.accepting
            and self.table.shape == other.table.shape
            and bool(np.array_equal(self.table, other.table))
        )

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DFA(name={self.name!r}, n_states={self.n_states}, "
            f"n_symbols={self.n_symbols}, start={self.start}, "
            f"n_accepting={len(self.accepting)})"
        )

    # ------------------------------------------------------------------
    # presentation (Fig. 1 style)
    # ------------------------------------------------------------------
    def format_table(self, symbols: Optional[Sequence[int]] = None) -> str:
        """Render the transition table like the paper's Fig. 1(b).

        ``symbols`` restricts (and orders) the columns — useful for byte
        alphabets where only a few symbols matter.  Accepting states are
        starred; the start state carries an arrow.
        """
        if symbols is None:
            symbols = list(range(min(self.n_symbols, 16)))
        headers = ["state"] + [
            chr(s) if 32 <= s < 127 else f"\\x{s:02x}" for s in symbols
        ]
        widths = [len(h) for h in headers]
        rows = []
        for q in range(self.n_states):
            label = f"{'->' if q == self.start else '  '}s{q}" + (
                "*" if q in self.accepting else ""
            )
            row = [label] + [f"s{self.table[q, s]}" for s in symbols]
            rows.append(row)
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.append("-+-".join("-" * w for w in widths))
        for row in rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_dot(self, symbols: Optional[Sequence[int]] = None) -> str:
        """Graphviz DOT source for the transition graph (Fig. 1(a) style).

        Parallel edges between the same state pair are merged with their
        symbols comma-joined.  ``symbols`` restricts the edge alphabet.
        """
        if symbols is None:
            symbols = list(range(self.n_symbols))
        lines = [
            "digraph dfa {",
            "  rankdir=LR;",
            '  __start [shape=point, label=""];',
        ]
        for q in range(self.n_states):
            shape = "doublecircle" if q in self.accepting else "circle"
            lines.append(f'  s{q} [shape={shape}, label="s{q}"];')
        lines.append(f"  __start -> s{self.start};")
        merged: dict = {}
        for q in range(self.n_states):
            for s in symbols:
                dst = int(self.table[q, s])
                label = chr(s) if 32 <= s < 127 else f"\\\\x{s:02x}"
                merged.setdefault((q, dst), []).append(label)
        for (src, dst), labels in sorted(merged.items()):
            text = ",".join(labels[:6]) + (",…" if len(labels) > 6 else "")
            lines.append(f'  s{src} -> s{dst} [label="{text}"];')
        lines.append("}")
        return "\n".join(lines)


def run_lockstep(
    table: np.ndarray,
    chunks: np.ndarray,
    starts: np.ndarray,
    lengths: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Execute many (chunk, start-state) pairs in SIMT lockstep.

    Parameters
    ----------
    table:
        ``(n_states, n_symbols)`` transition table.
    chunks:
        ``(n_threads, chunk_len)`` symbol matrix; row ``t`` is the chunk
        thread ``t`` processes.
    starts:
        ``(n_threads,)`` start states.
    lengths:
        Optional per-thread effective lengths (for a ragged final chunk);
        positions beyond a thread's length leave its state unchanged.

    Returns
    -------
    ``(n_threads,)`` array of end states.

    Notes
    -----
    This mirrors how a warp executes the transition loop on a real GPU: one
    gather per input position, all lanes in lockstep.  The python loop runs
    over chunk *positions* only; all thread-level work is vectorized.
    """
    chunks = np.asarray(chunks)
    if chunks.ndim != 2:
        raise AutomatonError(f"chunks must be (n_threads, chunk_len), got {chunks.shape}")
    states = np.asarray(starts, dtype=STATE_DTYPE).copy()
    if states.shape != (chunks.shape[0],):
        raise AutomatonError("starts must have one entry per thread")
    n_threads, chunk_len = chunks.shape
    if lengths is None:
        for j in range(chunk_len):
            states = table[states, chunks[:, j]]
    else:
        lengths = np.asarray(lengths)
        for j in range(chunk_len):
            nxt = table[states, chunks[:, j]]
            states = np.where(j < lengths, nxt, states)
    return states
