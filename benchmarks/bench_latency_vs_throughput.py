"""§I/II-B context — latency vs. throughput orientation, quantified.

The paper's framing: prior GPU automata engines optimize *aggregate
throughput* (stream-level or NFA state-level parallelism) and "ignore the
peak performance (i.e., the response time) of running over a single input
stream".  This bench races three designs on the same rule set and device:

* the stream-parallel batch (Algorithm 1's stream-level parallelism: one
  lane per stream, each a sequential scan), one ledger-charged
  ``run_batch`` on the sim backend,
* the state-parallel NFA engine (one lane per NFA state),
* GSpecPal's chunk-parallel DFA execution.

Expected shape: the batch engine wins aggregate symbols/cycle, the NFA
engine stays memory-lean, and GSpecPal answers a single stream one to two
orders of magnitude sooner.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.automata.regex import compile_disjunction, regex_to_nfa
from repro.automata.nfa import union_nfas
from repro.framework import GSpecPal, GSpecPalConfig
from repro.schemes.nfa_engine import NFAEngine
from repro.workloads.patterns import snort_patterns
from repro.workloads.traces import TraceSpec, network_weights

STREAM_LENGTH = 16_384
N_STREAMS = 64


def test_latency_vs_throughput(benchmark):
    from repro.engine import resolve_backend_name

    if resolve_backend_name(None) != "sim":
        # Cycle figures are NaN on answer-only backends; comparing them
        # across engines would be comparing nothing.
        pytest.skip("cycle comparison needs the cycle-accounting 'sim' backend")

    def experiment():
        patterns = snort_patterns(6, seed=3)
        dfa = compile_disjunction(patterns, name="rules")
        nfas = [regex_to_nfa(p, 256) for p in patterns]
        nfa = union_nfas(nfas)
        for sym in range(256):
            nfa.add_transition(nfa.start, sym, nfa.start)
        nfa.make_accepting_sticky()

        spec = TraceSpec(weights=network_weights(), name="traffic")
        streams = [spec.generate(STREAM_LENGTH, seed=i) for i in range(N_STREAMS)]
        training = spec.generate(4_096, seed=999)

        pal = GSpecPal(dfa, GSpecPalConfig(n_threads=256), training_input=training)
        scheme = pal.build_scheme("nf")
        sim = scheme.sim
        # 1. Stream-parallel batch: every stream one lane of one launch.
        stats = sim.new_stats(n_threads=N_STREAMS)
        sim.engine.run_batch(
            np.stack(streams),
            [dfa.start] * N_STREAMS,
            stats=stats,
            phase="stream_parallel_scan",
        )
        batch_cycles = stats.cycles
        batch_symbols = N_STREAMS * STREAM_LENGTH
        # 2. State-parallel NFA engine, one stream.
        nfa_engine = NFAEngine(nfa)
        nfa_single = nfa_engine.run(streams[0])
        # 3. GSpecPal chunk-parallel DFA, one stream.
        pal_single = scheme.run(streams[0])
        assert pal_single.accepts == dfa.accepts(streams[0])
        assert nfa_single.accepts == dfa.accepts(streams[0])

        rows = [
            [
                "stream-parallel batch (64 streams)",
                batch_cycles,
                batch_cycles,  # a single stream waits for the whole batch
                batch_symbols / batch_cycles,
                dfa.table.nbytes,
            ],
            [
                "state-parallel NFA engine",
                nfa_single.cycles,
                nfa_single.cycles,
                STREAM_LENGTH / nfa_single.cycles,
                nfa_engine.memory_footprint_bytes,
            ],
            [
                "GSpecPal chunk-parallel DFA",
                pal_single.cycles,
                pal_single.cycles,
                STREAM_LENGTH / pal_single.cycles,
                dfa.table.nbytes,
            ],
        ]
        table = render_table(
            ["engine", "kernel cycles", "1-stream latency", "sym/cycle", "table bytes"],
            rows,
            precision=3,
            title="Latency vs throughput orientation (same rule set, same device)",
        )
        emit("latency_vs_throughput", table)
        return batch_cycles, nfa_single, pal_single, nfa_engine, dfa

    batch_cycles, nfa_single, pal_single, nfa_engine, dfa = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    # Shapes: GSpecPal's single-stream response is far ahead of both, and
    # the batch still answers sooner than the symbol-serial NFA engine.
    assert pal_single.cycles < nfa_single.cycles / 5
    assert pal_single.cycles < batch_cycles < nfa_single.cycles
    # The batch engine's aggregate rate beats its own single-stream rate by
    # construction (that's the throughput orientation).
    assert N_STREAMS * STREAM_LENGTH / batch_cycles > STREAM_LENGTH / batch_cycles
    # The NFA's compactness: masks need less memory than the DFA table.
    assert nfa_engine.memory_footprint_bytes < dfa.table.nbytes
