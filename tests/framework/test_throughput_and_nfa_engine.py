"""Tests for the two prior-art baselines: the stream-parallel batch (one
ledger-charged ``run_batch``, a lane per stream) and the state-parallel NFA
engine."""

import numpy as np
import pytest

from repro.automata.nfa import union_nfas
from repro.automata.regex import compile_disjunction, regex_to_nfa
from repro.framework import GSpecPal, GSpecPalConfig
from repro.gpu.memory import TableLayout
from repro.schemes import SREScheme
from repro.schemes.nfa_engine import NFAEngine
from repro.serving import MatcherPool
from repro.workloads import classic
from repro.workloads.patterns import snort_patterns
from repro.workloads.traces import TraceSpec, network_weights


@pytest.fixture(scope="module")
def dfa():
    return classic.keyword_scanner(b"alert")


@pytest.fixture()
def streams(rng):
    return [
        bytes(rng.integers(97, 123, size=int(rng.integers(100, 400))).astype(np.uint8))
        for _ in range(20)
    ]


def _sim(dfa, rng, backend="sim", **config):
    training = bytes(rng.integers(97, 123, size=256).astype(np.uint8))
    cfg = GSpecPalConfig(n_threads=8, backend=backend, **config)
    return GSpecPal(dfa, cfg, training_input=training)._simulator()


def _batch(sim, streams):
    """Algorithm 1's stream-level baseline: every stream one lane of one
    charged launch from the DFA's start state.  Returns ``(ends, ledger)``."""
    lengths = np.array([len(s) for s in streams])
    rows = np.zeros((len(streams), lengths.max()), dtype=np.uint8)
    for row, stream in zip(rows, streams):
        row[: len(stream)] = np.frombuffer(bytes(stream), dtype=np.uint8)
    stats = sim.new_stats(n_threads=len(streams))
    ends = sim.engine.run_batch(
        rows,
        [sim.dfa.start] * len(streams),
        stats=stats,
        phase="stream_parallel_scan",
        lengths=lengths,
    )
    return ends, stats


class TestStreamParallelBatch:
    @pytest.mark.parametrize("use_transformation", [True, False])
    def test_batch_matches_scalar_runs(self, dfa, streams, rng, use_transformation):
        sim = _sim(dfa, rng, use_transformation=use_transformation)
        layout = sim.engine.memory.layout
        assert (layout is TableLayout.RANK) == use_transformation
        ends, _ = _batch(sim, streams)
        for i, s in enumerate(streams):
            assert ends[i] == dfa.run(s)

    def test_ragged_lengths(self, dfa, rng):
        ends, _ = _batch(_sim(dfa, rng), [b"xxalertzz", b"no"])
        accepts = dfa.accepting_mask[ends]
        assert accepts[0] and not accepts[1]

    def test_scan_lands_in_its_phase(self, dfa, streams, rng):
        _, stats = _batch(_sim(dfa, rng), streams)
        assert set(stats.phase_cycles) == {"launch", "stream_parallel_scan"}
        assert stats.transitions == sum(len(s) for s in streams)

    def test_uncharged_dispatch_reports_nan(self, dfa, streams, rng):
        """The serving pool's fused dispatch of the same streams hands no
        ledger: the charged batch's ends, but cycles NaN, never zero."""
        ends, stats = _batch(_sim(dfa, rng), streams)
        assert stats.cycles > 0
        training = bytes(rng.integers(97, 123, size=256).astype(np.uint8))
        pool = MatcherPool(config=GSpecPalConfig(n_threads=8), backend="sim", fused=True)
        sids = [pool.open(dfa, training_input=training) for _ in streams]
        outcomes = pool.feed_many(list(zip(sids, streams)))
        assert all(o.ok and o.fused for o in outcomes)
        assert [o.end_state for o in outcomes] == ends.tolist()
        for sid in sids:
            closed = pool.close(sid)
            assert closed.total_symbols > 0 and np.isnan(closed.total_cycles)

    def test_throughput_beats_latency_engine_in_aggregate(self, dfa, streams, rng):
        """The classic trade-off: batch scanning moves more total symbols
        per cycle, while GSpecPal's chunk parallelism answers one stream
        sooner."""
        _, batch = _batch(_sim(dfa, rng), streams)

        one = streams[0]
        training = bytes(rng.integers(97, 123, size=64).astype(np.uint8))
        latency_scheme = SREScheme.for_dfa(
            dfa, n_threads=16, training_input=training, backend="sim"
        )
        single = latency_scheme.run(one)

        # Aggregate: the batch processes all streams in roughly the time of
        # the longest one.
        longest = max(len(s) for s in streams)
        assert batch.transitions > longest
        # Single-stream response: the speculative scheme answers faster
        # than the batch takes end-to-end.
        assert single.cycles < batch.cycles


class TestNFAEngine:
    @pytest.fixture(scope="class")
    def nfa(self):
        return regex_to_nfa("a(b|c)*d", n_symbols=128)

    def test_accepts_matches_nfa(self, nfa, rng):
        engine = NFAEngine(nfa)
        for _ in range(30):
            s = bytes(rng.integers(97, 103, size=int(rng.integers(0, 15))).astype(np.uint8))
            assert engine.run(s).accepts == nfa.accepts(s), s

    def test_cost_scales_with_stream_length(self, nfa, rng):
        engine = NFAEngine(nfa)
        short = engine.run(bytes(rng.integers(97, 103, size=100).astype(np.uint8)))
        long = engine.run(bytes(rng.integers(97, 103, size=1000).astype(np.uint8)))
        # Sequential per-symbol processing: latency grows ~linearly.
        assert long.cycles > 5 * short.cycles

    def test_small_nfa_masks_fit_shared(self, nfa):
        assert NFAEngine(nfa).masks_in_shared

    def test_memory_footprint_reported(self, nfa):
        assert NFAEngine(nfa).memory_footprint_bytes > 0

    def test_chunk_parallel_dfa_beats_nfa_engine_latency(self, rng):
        """The paper's core motivation measured end to end: on one stream
        the chunk-parallel DFA answers much sooner than the state-parallel
        NFA engine, whose latency is O(stream length)."""
        from repro.automata.regex import compile_regex

        pattern = "alert[0-9]{2}"
        nfa = regex_to_nfa(pattern, n_symbols=128)
        for sym in range(128):
            nfa.add_transition(nfa.start, sym, nfa.start)
        nfa.make_accepting_sticky()
        dfa = compile_regex(pattern, n_symbols=128)

        data = bytes(rng.integers(97, 123, size=4096).astype(np.uint8))
        training = bytes(rng.integers(97, 123, size=256).astype(np.uint8))

        nfa_result = NFAEngine(nfa).run(data)
        dfa_scheme = SREScheme.for_dfa(dfa, n_threads=64, training_input=training)
        dfa_result = dfa_scheme.run(data)
        assert dfa_result.accepts == nfa_result.accepts
        assert dfa_result.cycles < nfa_result.cycles


def test_latency_vs_throughput_golden():
    """The latency-vs-throughput bench's rule set at 8 streams x 2 KiB on
    the sim backend, with a signature planted in streams 2 and 5.  Captured
    from the dedicated batch and bitset-NFA engines these baselines
    replaced; the modelled cycles must not move."""
    patterns = snort_patterns(6, seed=3)
    dfa = compile_disjunction(patterns, name="rules")
    nfa = union_nfas([regex_to_nfa(p, 256) for p in patterns])
    for sym in range(256):
        nfa.add_transition(nfa.start, sym, nfa.start)
    nfa.make_accepting_sticky()
    spec = TraceSpec(weights=network_weights(), name="traffic")
    streams = [spec.generate(2048, seed=i) for i in range(8)]
    for i in (2, 5):
        streams[i] = streams[i].copy()
        streams[i][1000:1007] = np.frombuffer(b"UNION4f", dtype=np.uint8)
    training = spec.generate(1024, seed=999)

    cfg = GSpecPalConfig(n_threads=8, backend="sim")
    sim = GSpecPal(dfa, cfg, training_input=training)._simulator()
    stats = sim.new_stats(n_threads=len(streams))
    ends = sim.engine.run_batch(
        np.stack(streams),
        [dfa.start] * len(streams),
        stats=stats,
        phase="stream_parallel_scan",
    )
    assert stats.cycles == 79312.0
    assert dict(stats.phase_cycles) == {"launch": 2000.0, "stream_parallel_scan": 77312.0}
    assert stats.transitions == 16384
    assert ends.tolist() == [0, 0, 79, 0, 1, 79, 0, 0]
    assert dfa.accepting_mask[ends].tolist() == [
        False, False, True, False, False, True, False, False,
    ]

    engine = NFAEngine(nfa)
    assert (nfa.n_states, engine.memory_footprint_bytes) == (142, 35264)
    result = engine.run(streams[2])
    assert result.cycles == 210896.0
    assert result.stats.transitions == 15777  # active states summed over steps
    assert result.accepts
