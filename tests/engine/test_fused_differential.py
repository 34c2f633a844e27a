"""The fused-vs-sequential differential wall (ISSUE 6 tentpole contract).

A fused cross-stream dispatch must be *answer-identical* to feeding every
stream sequentially through its own :class:`StreamSession` — for every
scheme, on both backends, under any segmentation, including the degenerate
shapes a gang scheduler is most likely to get wrong: a 1-stream batch,
empty segments, all-empty batches, and wildly ragged lengths.  The
sequential side runs the full speculation machinery (whose answers are in
turn pinned to ``dfa.run`` by the scheme-level differential suites), so
agreement here chains the fused path all the way to the paper's oracle.
"""

import numpy as np
import pytest

from repro.automata.dfa import DFA
from repro.engine.fused import FusedBatchEngine, FusedUnion
from repro.errors import SimulationError
from repro.framework import GSpecPal, GSpecPalConfig
from repro.serving import MatcherPool
from repro.workloads import classic

BACKENDS = ("sim", "fast")
SCHEMES = ("pm", "sre", "rr", "nf", "sfa", "seq", "spec-seq")


@pytest.fixture(scope="module")
def training():
    rng = np.random.default_rng(2026)
    return bytes(rng.integers(97, 123, size=1024).astype(np.uint8))


@pytest.fixture(scope="module", params=["scanner", "divisibility"])
def dfa(request):
    if request.param == "scanner":
        return classic.keyword_scanner(b"fuse")
    return classic.divisibility(7)


def _pal(dfa, training, backend, **kw):
    config = GSpecPalConfig(n_threads=8, backend=backend, **kw)
    return GSpecPal(dfa, config, training_input=training)


def _random_rounds(rng, n_streams, n_rounds, min_len=8, max_len=120):
    """Per-round ragged segments.

    ``min_len`` defaults to the schemes' own floor — a segment must be at
    least ``n_threads`` symbols for the per-stream partitioner, so the
    sequential reference can run it; the fused path's sub-``min_len`` and
    empty-segment behaviour is pinned by the oracle tests below instead.
    """
    return [
        [
            bytes(
                rng.integers(97, 123, size=int(rng.integers(min_len, max_len)))
                .astype(np.uint8)
            )
            for _ in range(n_streams)
        ]
        for _ in range(n_rounds)
    ]


# ----------------------------------------------------------------------
# fused ≡ sequential, across all schemes × both backends × segmentations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_fused_matches_sequential_sessions(dfa, training, scheme, backend):
    rng = np.random.default_rng(hash((scheme, backend)) % (2**32))
    pal = _pal(dfa, training, backend)
    fused = FusedBatchEngine(pal._simulator())
    n_streams, n_rounds = 6, 4

    sessions = [pal.stream(scheme=scheme) for _ in range(n_streams)]
    fused_states = [dfa.start] * n_streams
    for segments in _random_rounds(rng, n_streams, n_rounds):
        for session, segment in zip(sessions, segments):
            session.feed(segment)
        fused_states = list(
            map(int, fused.run_streams(segments, fused_states))
        )
        assert fused_states == [s.state for s in sessions]
    # The chained end state also equals the one-shot oracle per stream.
    for i, session in enumerate(sessions):
        assert fused_states[i] == session.state


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_single_stream_batch(dfa, training, backend):
    """A 1-wide gang is still a gang: no special-casing drift."""
    rng = np.random.default_rng(5)
    pal = _pal(dfa, training, backend)
    fused = FusedBatchEngine(pal._simulator())
    state = dfa.start
    fed = b""
    for _ in range(5):
        segment = bytes(
            rng.integers(97, 123, size=int(rng.integers(0, 90))).astype(np.uint8)
        )
        state = int(fused.run_streams([segment], [state])[0])
        fed += segment
        assert state == dfa.run(fed)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_empty_segments_pass_state_through(dfa, training, backend):
    pal = _pal(dfa, training, backend)
    fused = FusedBatchEngine(pal._simulator())
    starts = [dfa.start, dfa.run(b"fu"), dfa.run(b"fusefuse")]
    ends = fused.run_streams([b"", b"", b""], starts)
    assert list(map(int, ends)) == starts


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_mixed_empty_and_ragged(dfa, training, backend):
    """Empty segments ride in the same batch as long ones unchanged."""
    rng = np.random.default_rng(17)
    pal = _pal(dfa, training, backend)
    fused = FusedBatchEngine(pal._simulator())
    segments = [b"", b"fuse" * 40, b"f", b"", bytes(rng.integers(97, 123, size=333).astype(np.uint8))]
    starts = [int(rng.integers(0, dfa.n_states)) for _ in segments]
    ends = fused.run_streams(segments, starts)
    for segment, start, end in zip(segments, starts, ends):
        assert int(end) == dfa.run(segment, start=start)


def test_fused_empty_batch(dfa, training):
    pal = _pal(dfa, training, "fast")
    fused = FusedBatchEngine(pal._simulator())
    assert fused.run_streams([], []).size == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_dispatch_record_accounts_symbols(dfa, training, backend):
    pal = _pal(dfa, training, backend)
    fused = FusedBatchEngine(pal._simulator())
    segments = [b"abc", b"", b"fusefuse"]
    record = fused.dispatch(segments, [dfa.start] * 3)
    assert record.n_streams == 3
    assert record.total_symbols == sum(len(s) for s in segments)
    assert record.end_states.shape == (3,)


# ----------------------------------------------------------------------
# the transformation boundary: fused answers are user-space
# ----------------------------------------------------------------------
@pytest.mark.parametrize("use_transformation", [True, False])
def test_fused_respects_frequency_transformation(dfa, training, use_transformation):
    """The fused gather runs on the (possibly remapped) exec table but its
    answers come back in the original numbering, like every scheme."""
    rng = np.random.default_rng(23)
    pal = _pal(dfa, training, "fast", use_transformation=use_transformation)
    fused = FusedBatchEngine(pal._simulator())
    segments = [
        bytes(rng.integers(97, 123, size=int(n)).astype(np.uint8))
        for n in rng.integers(0, 200, size=9)
    ]
    starts = [int(rng.integers(0, dfa.n_states)) for _ in segments]
    ends = fused.run_streams(segments, starts)
    for segment, start, end in zip(segments, starts, ends):
        assert int(end) == dfa.run(segment, start=start)


# ----------------------------------------------------------------------
# the FastBackend fused entry point's own contract
# ----------------------------------------------------------------------
def test_run_streams_matches_run_batch(dfa):
    from repro.engine import FastBackend

    rng = np.random.default_rng(31)
    backend = FastBackend(dfa.table)
    n, max_len = 12, 64
    chunks = rng.integers(0, dfa.n_symbols, size=(n, max_len)).astype(np.int64)
    lengths = np.sort(rng.integers(0, max_len + 1, size=n))[::-1].copy()
    starts = rng.integers(0, dfa.n_states, size=n).astype(np.int64)
    fused_ends = backend.run_streams(chunks, starts, lengths)
    batch_ends = backend.run_batch(chunks, starts, lengths=lengths)
    np.testing.assert_array_equal(fused_ends, batch_ends)


def test_run_streams_rejects_unsorted_lengths(dfa):
    from repro.engine import FastBackend

    backend = FastBackend(dfa.table)
    chunks = np.zeros((3, 4), dtype=np.int64)
    starts = np.zeros(3, dtype=np.int64)
    with pytest.raises(SimulationError, match="descending"):
        backend.run_streams(chunks, starts, np.array([1, 4, 2]))


def test_run_streams_validates_symbols(dfa):
    from repro.engine import FastBackend

    backend = FastBackend(dfa.table)
    chunks = np.full((2, 3), dfa.n_symbols + 5, dtype=np.int64)  # out of range
    starts = np.zeros(2, dtype=np.int64)
    with pytest.raises(SimulationError, match="symbols out of range"):
        backend.run_streams(chunks, starts, np.array([3, 3]))
    # ... but padding beyond a lane's length may hold garbage freely.
    chunks[:, 1:] = 0
    chunks[0, 0] = 0
    ends = backend.run_streams(
        np.array([[0, 99, 99], [0, 99, 99]]), starts, np.array([1, 1])
    )
    assert ends.shape == (2,)


# ----------------------------------------------------------------------
# selfcheck: the fused path keeps the audits, per stream
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_selfcheck_passes_on_honest_dispatch(dfa, training, backend):
    rng = np.random.default_rng(41)
    pal = _pal(dfa, training, backend, selfcheck=True)
    fused = pal.fused_engine()
    segments = [
        bytes(rng.integers(97, 123, size=int(n)).astype(np.uint8))
        for n in rng.integers(0, 150, size=7)
    ]
    record = fused.dispatch(segments, [dfa.start] * 7)
    assert record.end_states.tolist() == [dfa.run(segment) for segment in segments]


def test_fused_selfcheck_catches_corrupt_end_state(dfa, training):
    from repro.errors import SelfCheckError
    from repro.selfcheck.audit import audit_fused_dispatch

    pal = _pal(dfa, training, "fast", selfcheck=True)
    fused = pal.fused_engine()
    segments = [b"fusefuse", b"abc"]
    record = fused.dispatch(segments, [dfa.start] * 2)
    # Corrupt one lane's answer: the per-stream oracle audit must name it.
    record.end_states = record.end_states.copy()
    record.end_states[1] = (record.end_states[1] + 1) % dfa.n_states
    with pytest.raises(SelfCheckError) as excinfo:
        audit_fused_dispatch(
            dfa, segments, [dfa.start] * 2, record, backend=fused.backend_name
        )
    assert excinfo.value.invariant == "fused_end_state_oracle"
    assert excinfo.value.lanes == [1]


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_selfcheck_audits_the_shipped_kernel(dfa, training, backend, monkeypatch):
    """The audited dispatch runs the same backend entry an unaudited one
    does (``run_streams`` on fast, ``run_batch`` on sim): a kernel that
    corrupts one lane is caught by the per-stream oracle, not bypassed."""
    from repro.errors import SelfCheckError

    pal = _pal(dfa, training, backend, selfcheck=False)
    sim = pal._simulator()
    fused = pal.fused_engine()
    entry = "run_streams" if hasattr(sim.engine, "run_streams") else "run_batch"
    kernel = getattr(sim.engine, entry)
    calls = []

    def corrupt_lane_0(*args, **kwargs):
        ends = np.array(kernel(*args, **kwargs), copy=True)
        ends[0] = (ends[0] + 1) % dfa.n_states
        calls.append(entry)
        return ends

    monkeypatch.setattr(sim.engine, entry, corrupt_lane_0)
    segments = [b"fuse" * 75, b"abc" * 100, b"x" * 300, b"fusefuse" * 37]
    starts = [dfa.start] * 4
    unaudited = fused.run_streams(segments, starts)
    assert calls == [entry]
    assert unaudited.tolist() != [dfa.run(segment) for segment in segments]
    sim.selfcheck = True  # the engine reads its simulator's switch per dispatch
    with pytest.raises(SelfCheckError) as excinfo:
        fused.dispatch(segments, starts)
    assert calls == [entry, entry]
    assert excinfo.value.invariant == "fused_end_state_oracle"
    assert len(excinfo.value.lanes) == 1

    # Multi-class: the pool's union pass runs ``FastBackend.run_streams`` on
    # either backend, and each class is audited on its own answers.  A
    # kernel corrupting the second class's longest lane is named by it.
    from repro.engine import FastBackend

    bits = UNION_DFAS[2]
    config = GSpecPalConfig(n_threads=8, selfcheck=True)
    pool = MatcherPool(config=config, backend=backend, fused=True)
    feeds = []
    for fsm, train, n in ((dfa, training, 120), (bits, b"\x00\x01" * 256, 50)):
        for width in (n, 2 * n, 3 * n):
            sid = pool.open(fsm, training_input=train)
            feeds.append((sid, (np.arange(width) % fsm.n_symbols).astype(np.uint8)))
    union_kernel = FastBackend.run_streams
    corrupted = []

    def corrupt_second_class(self, chunks, starts, lengths):
        ends = np.array(union_kernel(self, chunks, starts, lengths), copy=True)
        (union,) = pool.state.unions.values()
        low, size = int(union.offsets[1]), union.dfas[1].n_states
        lane = int(np.flatnonzero((starts >= low) & (starts < low + size))[0])
        ends[lane] = low + (ends[lane] - low + 1) % size
        corrupted.append(int(lengths[lane]))
        return ends

    monkeypatch.setattr(FastBackend, "run_streams", corrupt_second_class)
    with pytest.raises(SelfCheckError) as excinfo:
        pool.feed_many(feeds)
    (records,) = pool.state.unions
    second = records[1]
    widths = [len(seg) for sid, seg in feeds if pool.state.lookup(sid).record is second]
    assert excinfo.value.invariant == "fused_end_state_oracle"
    assert excinfo.value.lanes == [widths.index(corrupted[0])] == [2]


# ----------------------------------------------------------------------
# one pass per wave: the serving pool's union of class tables
# ----------------------------------------------------------------------
#: Three classes with different state counts (5, 11, 4) and alphabets
#: (256, 256, 2): the union offsets every class's states and pads the
#: 2-symbol table's rows to 256 columns.
UNION_DFAS = (
    classic.keyword_scanner(b"fuse"),
    classic.divisibility(11),
    DFA(
        table=np.array([[1, 2], [3, 0], [0, 3], [2, 1]]),
        start=0,
        accepting=frozenset({3}),
        name="bits4",
    ),
)


def _union_pool(backend, **kw):
    rng = np.random.default_rng(77)
    pool = MatcherPool(
        config=GSpecPalConfig(n_threads=8), backend=backend, fused=True, **kw
    )
    streams = []  # [stream id, dfa, bytes fed so far]
    for dfa in UNION_DFAS:
        training = rng.integers(0, dfa.n_symbols, size=512).astype(np.uint8)
        for _ in range(3):
            sid = pool.open(dfa, training_input=training.tobytes())
            streams.append([sid, dfa, b""])
    return pool, streams


@pytest.mark.parametrize("backend", BACKENDS)
def test_union_wave_matches_oracle_in_one_pass(backend, monkeypatch):
    """Every ``feed_many`` wave over the three classes — ragged, with empty
    segments, and all-empty — makes exactly one ``run_streams`` call, and
    every stream's answer equals ``dfa.run`` over all it was fed."""
    from repro.engine import FastBackend

    pool, streams = _union_pool(backend)
    calls = []
    kernel = FastBackend.run_streams

    def counted(self, chunks, starts, lengths):
        calls.append(len(starts))
        return kernel(self, chunks, starts, lengths)

    monkeypatch.setattr(FastBackend, "run_streams", counted)
    rng = np.random.default_rng(5)
    waves = [
        [int(n) for n in rng.integers(0, 200, size=len(streams))],  # ragged
        [0, 7, 0, 0, 150, 3, 0, 64, 1],  # empty segments in every class
        [0] * len(streams),  # all empty
        [int(n) for n in rng.integers(1, 90, size=len(streams))],
    ]
    for lengths in waves:
        feeds = []
        for stream, n in zip(streams, lengths):
            segment = rng.integers(0, stream[1].n_symbols, size=n).astype(np.uint8)
            stream[2] += segment.tobytes()
            feeds.append((stream[0], segment.tobytes()))
        calls.clear()
        outcomes = pool.feed_many(feeds)
        assert calls == [len(streams)]
        for (_, dfa, fed), outcome in zip(streams, outcomes):
            assert outcome.ok and outcome.fused
            assert outcome.end_state == dfa.run(fed)
            assert outcome.accepts == (dfa.run(fed) in dfa.accepting)
    for sid, dfa, fed in streams:
        assert pool.close(sid).end_state == dfa.run(fed)


def test_union_refuses_symbols_past_a_class_alphabet():
    """A symbol the narrow class lacks would read the union's padding."""
    union = FusedUnion(UNION_DFAS)
    assert union.offsets.tolist() == [0, 5, 16]
    assert union.backend.table.shape == (20, 256)
    bits = UNION_DFAS[2]
    ends = union.dispatch([2], [b"\x00\x01\x01"], [bits.start])
    assert ends.tolist() == [bits.run(b"\x00\x01\x01")]
    with pytest.raises(SimulationError, match="padding"):
        union.dispatch([2], [b"\x00\x02"], [bits.start])
    # A start is checked against its own class, not the union's states.
    with pytest.raises(SimulationError, match="lanes \\[1\\]"):
        union.dispatch([0, 2], [b"", b""], [0, bits.n_states])
