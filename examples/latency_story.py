#!/usr/bin/env python
"""The latency story: why speculation-centric parallelization exists.

Races three GPU designs on the same rule set and the same stream:

1. the classic *throughput* design — 64 streams batch-scanned, one thread
   each (great aggregate rate, each stream waits for a full sequential
   scan); Algorithm 1's stream-level parallelism, one ledger-charged
   ``run_batch`` on the simulator;
2. the *state-parallel NFA engine* (iNFAnt lineage) — compact tables,
   per-symbol parallelism, but symbols remain strictly sequential;
3. *GSpecPal* — chunk-parallel speculative DFA execution.

This is §I/II-B of the paper turned into a runnable script.

Run:  python examples/latency_story.py
"""

import numpy as np

from repro.automata.nfa import union_nfas
from repro.automata.regex import compile_disjunction, regex_to_nfa
from repro.framework import GSpecPal, GSpecPalConfig
from repro.schemes.nfa_engine import NFAEngine
from repro.workloads.patterns import snort_patterns
from repro.workloads.traces import TraceSpec, network_weights


def main() -> None:
    patterns = snort_patterns(6, seed=3)
    print("rule set:")
    for p in patterns:
        print(f"  {p}")

    dfa = compile_disjunction(patterns, name="rules")
    nfa = union_nfas([regex_to_nfa(p, 256) for p in patterns])
    for sym in range(256):
        nfa.add_transition(nfa.start, sym, nfa.start)
    nfa.make_accepting_sticky()

    spec = TraceSpec(weights=network_weights(), name="traffic")
    streams = [spec.generate(16_384, seed=i) for i in range(64)]
    training = spec.generate(4_096, seed=999)
    probe = streams[0]

    pal = GSpecPal(dfa, GSpecPalConfig(n_threads=256), training_input=training)
    # 1. stream-parallel batch: one launch, one lane per stream
    sim = pal.build_scheme("seq").sim
    batch = sim.new_stats(len(streams))
    sim.engine.run_batch(
        np.stack(streams),
        [dfa.start] * len(streams),
        stats=batch,
        phase="stream_parallel_scan",
    )
    # 2. NFA engine
    nfa_result = NFAEngine(nfa).run(probe)
    # 3. GSpecPal
    pal_result = pal.run(probe)
    assert pal_result.accepts == dfa.accepts(probe) == nfa_result.accepts

    ms = lambda cycles: f"{cycles / 1.395e6:8.3f} ms"
    print("\nhow long until stream #0's verdict is known?")
    print(f"  throughput batch engine : {ms(batch.cycles)}  "
          f"(but {batch.transitions:,} total symbols scanned)")
    print(f"  state-parallel NFA      : {ms(nfa_result.cycles)}")
    print(f"  GSpecPal ({pal_result.scheme:8s})    : {ms(pal_result.cycles)}")
    print(
        f"\nGSpecPal answers {batch.cycles / pal_result.cycles:.0f}x sooner "
        f"than the batch engine and {nfa_result.cycles / pal_result.cycles:.0f}x sooner "
        "than the NFA engine on this stream."
    )


if __name__ == "__main__":
    main()
