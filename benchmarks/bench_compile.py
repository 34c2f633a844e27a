"""Compile-pipeline hot path: vectorized vs reference DFA minimization.

The ISSUE-7 staged compiler canonicalizes every submitted automaton
(minimize + BFS renumber), so minimization sits on the serving tier's
cold-start path and must be fast on large union-of-patterns FSMs.  This
bench builds one such FSM — the disjunction of NIDS-style bounded-gap
patterns (``snort_patterns``), subset-constructed but *not* minimized,
tens of thousands of states — and times the vectorized incremental
``minimize_dfa`` against the retained Hopcroft worklist
``_minimize_reference`` on identical input.

The run is a speedup **guard**: the vectorized pass must beat the
reference by ≥3× (mirroring the fused-serving gate in
``bench_serving_batch.py``); both outputs are cross-checked for equal state
counts and language equivalence before any timing is trusted.  It prints
the measured speedup (EXPERIMENTS.md "Serving extensions").

Env knobs: ``REPRO_BENCH_PATTERNS`` (default 8 — enough for a ~40k-state
subset construction), ``REPRO_BENCH_MIN_REPEATS`` (default 3).
"""

import os
import time

from repro.automata import compile_disjunction
from repro.automata.minimize import _minimize_reference, minimize_dfa
from repro.automata.properties import are_equivalent
from repro.workloads.patterns import snort_patterns

N_PATTERNS = int(os.environ.get("REPRO_BENCH_PATTERNS", 8))
REPEATS = int(os.environ.get("REPRO_BENCH_MIN_REPEATS", 3))
MIN_SPEEDUP = 3.0
UNION_GOLDEN = "8802d577869430a47c8470aafb9891b4360a14bf623b9653761353cea77d07a3"


def _best_of(fn, repeats: int = REPEATS) -> float:
    """Minimum wall-clock of ``repeats`` calls (noise-robust timing)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_vectorized_minimization_speedup_guard():
    # The paper's FSMs are "generated from a disjunction of multiple
    # randomly selected regular expressions"; the snort family's bounded
    # gaps make the raw subset construction genuinely large.
    dfa = compile_disjunction(
        snort_patterns(N_PATTERNS, seed=0),
        n_symbols=256,
        minimize=False,
        name="bench-union",
    )

    # Correctness before speed: identical state counts and languages, and
    # the canonical bytes pinned (a golden taken before signature rows were
    # grouped by hash).
    fast = minimize_dfa(dfa)
    ref = _minimize_reference(dfa)
    assert fast.n_states == ref.n_states
    assert are_equivalent(fast, ref)
    assert are_equivalent(fast, dfa)
    if N_PATTERNS == 8:
        assert fast.fingerprint() == UNION_GOLDEN

    t_fast = _best_of(lambda: minimize_dfa(dfa))
    t_ref = _best_of(lambda: _minimize_reference(dfa))

    speedup = t_ref / t_fast
    print(
        f"\nvectorized-vs-reference minimization "
        f"({dfa.n_states} -> {fast.n_states} states, "
        f"{dfa.n_symbols} symbols): {speedup:.1f}x "
        f"({t_ref * 1e3:.1f} ms -> {t_fast * 1e3:.1f} ms)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized minimization only {speedup:.2f}x faster than the "
        f"reference worklist on {dfa.n_states} states "
        f"(guard: >= {MIN_SPEEDUP}x)"
    )


if __name__ == "__main__":
    test_vectorized_minimization_speedup_guard()
