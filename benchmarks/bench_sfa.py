"""SFA vs the speculative family on a speculation-hopeless FSM.

The affine permutation automaton (``state' = (5·state + sym) mod 128``)
defeats the lookback-2 predictor by construction — accuracy degrades to
``k / n`` — so every speculative scheme pays near-sequential recovery.
SFA sidesteps prediction entirely: each chunk builds its full state→state
mapping and the mappings compose left-to-right, misprediction-free.

The run is a speedup **guard**: on the simulated device SFA must beat the
*best* of {pm, sre, rr, nf} by ≥5× in modeled cycles, the selector must
route the FSM to SFA through the ``speculation_floor`` node, and every
scheme must agree with the sequential oracle before any number is trusted.
It prints the measured speedup (EXPERIMENTS.md "Serving extensions").

Env knobs: ``REPRO_BENCH_SFA_STATES`` (default 128),
``REPRO_BENCH_SFA_INPUT`` (default 16384), ``REPRO_BENCH_SFA_THREADS``
(default 64 — small profiles under-sample spec-16 accuracy).
"""

import os

import numpy as np

from repro.framework import GSpecPal, GSpecPalConfig
from repro.workloads import classic

N_STATES = int(os.environ.get("REPRO_BENCH_SFA_STATES", 128))
INPUT_LEN = int(os.environ.get("REPRO_BENCH_SFA_INPUT", 16_384))
N_THREADS = int(os.environ.get("REPRO_BENCH_SFA_THREADS", 64))
RIVALS = ("pm", "sre", "rr", "nf")
MIN_SPEEDUP = 5.0


def test_sfa_speedup_guard():
    rng = np.random.default_rng(20260808)
    dfa = classic.affine_permutation(N_STATES)
    n_symbols = dfa.table.shape[1]
    training = bytes(rng.integers(0, n_symbols, size=4096).astype(np.uint8))
    data = bytes(rng.integers(0, n_symbols, size=INPUT_LEN).astype(np.uint8))

    pal = GSpecPal(
        dfa,
        GSpecPalConfig(n_threads=N_THREADS, backend="sim"),
        training_input=training,
    )

    # The selector must route the hopeless FSM to SFA on its own.
    selected = pal.select_scheme()
    assert selected == "sfa", selected

    # Correctness before speed: every scheme, same oracle answer.
    oracle = dfa.run(data)
    cycles = {}
    for scheme in ("sfa",) + RIVALS:
        result = pal.run(data, scheme=scheme)
        assert result.end_state == oracle, scheme
        cycles[scheme] = float(result.stats.cycles)
    best_rival = min(RIVALS, key=cycles.get)
    speedup = cycles[best_rival] / cycles["sfa"]

    rivals = ", ".join(f"{name}={cycles[name]:.0f}" for name in RIVALS)
    print(
        f"\nSFA on {dfa.name} ({INPUT_LEN}B x {N_THREADS} threads): "
        f"{cycles['sfa']:.0f} cycles vs best rival {best_rival} "
        f"({rivals}) -> {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"SFA speedup {speedup:.2f}x vs {best_rival} below the "
        f"{MIN_SPEEDUP}x guard"
    )
