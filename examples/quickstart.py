#!/usr/bin/env python
"""Quickstart: run the paper's Fig. 1 FSM (div7) through GSpecPal.

Walks the whole pipeline on a small example:

1. build a DFA (binary divisibility-by-7, the paper's running example);
2. hand it to the GSpecPal framework;
3. let the selector profile it and pick a parallelization scheme;
4. process a stream and compare every scheme's simulated kernel time.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import DecisionTreeSelector, GSpecPal, GSpecPalConfig
from repro.workloads import classic


def main() -> None:
    rng = np.random.default_rng(42)

    # --- 1. the FSM --------------------------------------------------------
    dfa = classic.div7()
    print(f"FSM: {dfa}")
    print(dfa.format_table(symbols=[ord("0"), ord("1")]))  # Fig. 1(b)

    # A binary numeral, 64 KiB of random bits.
    stream = rng.integers(ord("0"), ord("1") + 1, size=65_536).astype(np.uint8)

    # --- 2-3. framework: compile the plan (profile, select), run -----------
    pal = GSpecPal(dfa, GSpecPalConfig(n_threads=256))
    features = pal.profile(stream)
    print(
        f"profiled: spec-1 {features.spec1_accuracy:.0%}, "
        f"spec-4 {features.spec4_accuracy:.0%}, "
        f"convergence #uniqStates(10) = {features.convergence_states:.1f}"
    )
    print(f"selector says: {pal.select_scheme()}")
    print(DecisionTreeSelector().explain(features))

    result = pal.run(stream)
    value_mod_7 = "divisible" if result.accepts else "not divisible"
    print(
        f"\nran scheme {result.scheme!r}: the numeral is {value_mod_7} by 7 "
        f"(end state {result.end_state})"
    )
    assert result.end_state == dfa.run(stream), "must match sequential run"

    # --- 4. compare all schemes --------------------------------------------
    print("\nscheme comparison (simulated RTX 3090 kernel time):")
    results = pal.compare_schemes(stream, schemes=("pm", "sre", "rr", "nf"))
    seq = pal.run(stream, scheme="seq")
    print(f"  {'sequential':12s} {seq.time_ms:8.3f} ms   (1 thread)")
    for name, res in sorted(results.items(), key=lambda kv: kv[1].cycles):
        print(
            f"  {name:12s} {res.time_ms:8.3f} ms   "
            f"({seq.time_ms / res.time_ms:5.1f}x over sequential, "
            f"{res.stats.recovery_rounds} recovery rounds)"
        )


if __name__ == "__main__":
    main()
