"""The fast backend's one stepping kernel, pinned to the reference loops.

``FastBackend.run_batch`` / ``run_gathered`` / ``run_streams`` must equal
:func:`repro.automata.dfa.run_lockstep` and ``run_mappings`` must equal
row-wise :meth:`DFA.run_all_states`, over random tables (1 state, 1 symbol,
non-power-of-two alphabets, 300+ states), degenerate shapes (0 lanes,
1 lane, 0 positions), ragged lengths with zeros and ties, every kind of
``active`` mask, unsorted lengths, and arbitrary garbage in cells no lane
executes.  Hypothesis draws the shapes and a seed; numpy fills the arrays
(a 300 × 256 table drawn element-wise would dominate the run).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import DFA, STATE_DTYPE, run_lockstep
from repro.engine.fast import FastBackend
from repro.engine.fused import FusedBatchEngine
from repro.errors import SimulationError

GARBAGE = np.array([-7, -1, 1 << 40, np.iinfo(np.int64).max], dtype=np.int64)


@st.composite
def batches(draw, max_lanes=9, max_width=40):
    """(table, chunks, starts, lengths | None, active | None) with garbage
    written into every cell that no lane executes."""
    n_states = draw(st.one_of(st.integers(1, 8), st.integers(300, 330)))
    n_symbols = draw(st.sampled_from([1, 2, 3, 5, 7, 200, 256]))
    n_lanes = draw(st.integers(0, max_lanes))
    width = draw(st.integers(0, max_width))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.integers(0, n_states, size=(n_states, n_symbols))
    chunks = rng.integers(0, n_symbols, size=(n_lanes, width))
    starts = rng.integers(0, n_states, size=n_lanes)

    lengths = None
    kind = draw(st.sampled_from(["none", "full", "ragged", "ties", "zeros"]))
    if kind == "full":
        lengths = np.full(n_lanes, width, dtype=np.int64)
    elif kind != "none":
        pool = {
            "ragged": np.arange(width + 1),
            "ties": np.array([width, width // 2]),
            "zeros": np.array([0, 0, width]),
        }[kind]
        lengths = rng.choice(pool, size=n_lanes).astype(np.int64)

    active = None
    mask = draw(st.sampled_from(["none", "all", "nobody", "single", "mixed"]))
    if mask == "all":
        active = np.ones(n_lanes, dtype=bool)
    elif mask == "nobody":
        active = np.zeros(n_lanes, dtype=bool)
    elif mask == "single":
        active = np.zeros(n_lanes, dtype=bool)
        active[: min(n_lanes, 1)] = True
        rng.shuffle(active)
    elif mask == "mixed":
        active = rng.integers(0, 2, size=n_lanes).astype(bool)

    idle = ~_executed(chunks.shape, lengths, active)
    chunks[idle] = rng.choice(GARBAGE, size=int(idle.sum()))
    return table, chunks, starts, lengths, active


def _executed(shape, lengths, active) -> np.ndarray:
    n_lanes, width = shape
    executed = np.ones(shape, dtype=bool)
    if lengths is not None:
        executed &= np.arange(width)[None, :] < lengths[:, None]
    if active is not None:
        executed &= active[:, None]
    return executed


def _reference(table, chunks, starts, lengths=None, active=None) -> np.ndarray:
    """``run_lockstep`` over a copy with the never-executed cells zeroed
    (the reference loop gathers at every position, then discards)."""
    clean = np.where(_executed(chunks.shape, lengths, active), chunks, 0)
    ends = run_lockstep(table.astype(STATE_DTYPE), clean, starts, lengths)
    if active is not None:
        ends = np.where(active, ends, starts)
    return ends


def _frozen(*arrays):
    return [None if a is None else a.copy() for a in arrays]


# ----------------------------------------------------------------------
# the four entry points against the references
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(case=batches())
def test_run_batch_equals_lockstep(case):
    table, chunks, starts, lengths, active = case
    before = _frozen(chunks, starts, lengths, active)
    ends = FastBackend(table).run_batch(
        chunks, starts, lengths=lengths, active=active
    )
    assert ends.dtype == STATE_DTYPE and ends.shape == starts.shape
    assert np.array_equal(ends, _reference(table, chunks, starts, lengths, active))
    for now, then in zip((chunks, starts, lengths, active), before):
        assert then is None or np.array_equal(now, then)  # inputs untouched


@settings(max_examples=60, deadline=None)
@given(case=batches(), data=st.data())
def test_run_gathered_equals_lockstep(case, data):
    table, pool, _, _, _ = case
    pool = pool % table.shape[1]  # garbage-free: any pooled chunk may be executed
    n_threads = data.draw(st.integers(0, 7)) if pool.shape[0] else 0
    rng = np.random.default_rng(n_threads)
    chunk_ids = rng.integers(0, max(pool.shape[0], 1), size=n_threads)
    starts = rng.integers(0, table.shape[0], size=n_threads)
    lengths = rng.integers(0, pool.shape[1] + 1, size=n_threads)
    active = rng.integers(0, 2, size=n_threads).astype(bool)
    ends = FastBackend(table).run_gathered(
        pool, chunk_ids, starts, lengths=lengths, active=active
    )
    assert ends.dtype == STATE_DTYPE
    assert np.array_equal(
        ends, _reference(table, pool[chunk_ids], starts, lengths, active)
    )


@settings(max_examples=100, deadline=None)
@given(case=batches())
def test_run_streams_equals_lockstep(case):
    table, chunks, starts, lengths, _ = case
    if lengths is None:
        lengths = np.full(chunks.shape[0], chunks.shape[1], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    chunks, starts, lengths = chunks[order], starts[order], lengths[order]
    # chunks kept their garbage past each lane's own length (the gang
    # scheduler's padding), lanes are longest-first.
    chunks = np.where(
        _executed(chunks.shape, lengths, None), chunks % table.shape[1], chunks
    )
    before = _frozen(chunks, starts, lengths)
    backend = FastBackend(table)
    ends = backend.run_streams(chunks, starts, lengths)
    assert ends.dtype == STATE_DTYPE
    assert np.array_equal(ends, _reference(table, chunks, starts, lengths))
    assert np.array_equal(ends, backend.run_batch(chunks, starts, lengths=lengths))
    for now, then in zip((chunks, starts, lengths), before):
        assert np.array_equal(now, then)


@settings(max_examples=60, deadline=None)
@given(case=batches(max_lanes=5, max_width=24))
def test_run_mappings_equals_run_all_states(case):
    table, chunks, _, lengths, _ = case
    chunks = np.where(
        _executed(chunks.shape, lengths, None), chunks % table.shape[1], chunks
    )
    dfa = DFA(table=table, start=0, accepting=frozenset({0}), name="hyp")
    before = _frozen(chunks, lengths)
    mappings = FastBackend(table).run_mappings(chunks, lengths=lengths)
    assert mappings.dtype == STATE_DTYPE
    assert mappings.shape == (chunks.shape[0], table.shape[0])
    for c, row in enumerate(chunks):
        n = row.size if lengths is None else int(lengths[c])
        assert np.array_equal(mappings[c], dfa.run_all_states(row[:n]))
    for now, then in zip((chunks, lengths), before):
        assert then is None or np.array_equal(now, then)


# ----------------------------------------------------------------------
# shapes and orders the strategies only reach by luck
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", [(0, 5), (1, 5), (3, 0), (0, 0), (1, 1)])
def test_degenerate_shapes(shape):
    rng = np.random.default_rng(23)
    table = rng.integers(0, 6, size=(6, 3))
    chunks = rng.integers(0, 3, size=shape)
    starts = rng.integers(0, 6, size=shape[0])
    full = np.full(shape[0], shape[1], dtype=np.int64)
    backend = FastBackend(table)
    expected = _reference(table, chunks, starts)
    for ends in (
        backend.run_batch(chunks, starts),
        backend.run_batch(chunks, starts, lengths=full),
        backend.run_streams(chunks, starts, full),
        backend.run_gathered(chunks, np.arange(shape[0]), starts),
    ):
        assert ends.dtype == STATE_DTYPE
        assert np.array_equal(ends, expected)
    mappings = backend.run_mappings(chunks)
    assert mappings.shape == (shape[0], 6) and mappings.dtype == STATE_DTYPE
    for c in range(shape[0]):
        assert np.array_equal(
            mappings[c], _reference(table, np.tile(chunks[c], (6, 1)), np.arange(6))
        )


def test_unsorted_lengths_work_in_run_batch_and_raise_in_run_streams():
    rng = np.random.default_rng(5)
    table = rng.integers(0, 9, size=(9, 5))
    chunks = rng.integers(0, 5, size=(6, 12))
    starts = rng.integers(0, 9, size=6)
    lengths = np.array([3, 12, 0, 7, 12, 1])
    backend = FastBackend(table)
    assert np.array_equal(
        backend.run_batch(chunks, starts, lengths=lengths),
        _reference(table, chunks, starts, lengths),
    )
    with pytest.raises(SimulationError, match="descending"):
        backend.run_streams(chunks, starts, lengths)
    # ties are sorted enough
    tied = np.array([12, 12, 7, 7, 7, 0])
    assert np.array_equal(
        backend.run_streams(chunks, starts, tied),
        _reference(table, chunks, starts, tied),
    )


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint32, np.int64])
def test_every_prefix_run_boundary_is_exact(dtype):
    """One lane stops at every position: each boundary is its own run
    (and the symbols' dtype is the caller's business)."""
    rng = np.random.default_rng(11)
    table = rng.integers(0, 17, size=(17, 4))
    width = 24
    chunks = rng.integers(0, 4, size=(width + 1, width)).astype(dtype)
    starts = rng.integers(0, 17, size=width + 1)
    lengths = np.arange(width, -1, -1)
    assert np.array_equal(
        FastBackend(table).run_streams(chunks, starts, lengths),
        _reference(table, chunks, starts, lengths),
    )


# ----------------------------------------------------------------------
# the symbol scan may only be skipped when it is vacuous
# ----------------------------------------------------------------------
def test_uint8_scan_is_kept_when_the_alphabet_is_smaller_than_the_dtype():
    table = np.zeros((4, 200), dtype=np.int64)
    backend = FastBackend(table)
    chunks = np.zeros((3, 6), dtype=np.uint8)
    chunks[1, 2] = 250
    starts = np.zeros(3, dtype=np.int64)
    for call in (
        lambda: backend.run_batch(chunks, starts),
        lambda: backend.run_streams(chunks, starts, np.array([6, 6, 6])),
        lambda: backend.run_mappings(chunks),
    ):
        with pytest.raises(SimulationError, match=r"symbols out of range.*lanes 1$"):
            call()
    # ... and the same byte sitting only in padding past ``lengths`` passes.
    lengths = np.array([6, 2, 1])
    assert np.array_equal(
        backend.run_streams(chunks, starts, lengths), np.zeros(3, dtype=STATE_DTYPE)
    )
    assert np.array_equal(
        backend.run_batch(chunks, starts, lengths=lengths[::-1], active=[1, 0, 1]),
        np.zeros(3, dtype=STATE_DTYPE),
    )


def test_fused_dispatch_pads_in_the_segments_dtype(monkeypatch):
    """Wire bytes stay uint8 up to the kernel; a bad byte still names its lane."""
    rng = np.random.default_rng(3)
    dfa = DFA(
        table=rng.integers(0, 5, size=(5, 200)),
        start=0,
        accepting=frozenset({1}),
        name="narrow",
    )
    fused = FusedBatchEngine([dfa])
    seen = []
    real = fused.backend.run_streams
    monkeypatch.setattr(
        fused.backend,
        "run_streams",
        lambda chunks, starts, lengths: seen.append(chunks.dtype)
        or real(chunks, starts, lengths),
    )
    segments = [bytes(rng.integers(0, 200, size=n).astype(np.uint8)) for n in (9, 0, 31)]
    ends = fused.dispatch([0] * 3, segments, [0, 3, 4])
    assert [int(e) for e in ends] == [
        int(dfa.run(seg, start=s)) for seg, s in zip(segments, (0, 3, 4))
    ]
    assert seen == [np.dtype(np.uint8)]
    # mixed element types fall back to the widest layout, same answers
    mixed = [segments[0], list(segments[2])]
    assert [int(e) for e in fused.dispatch([0, 0], mixed, [0, 4])] == [
        int(ends[0]), int(ends[2])
    ]
    assert seen[-1] == np.dtype(np.int64)
    with pytest.raises(SimulationError, match="symbols out of range"):
        fused.dispatch([0, 0], [b"\x01\x02", b"\x01\xfa\x03"], [0, 0])
