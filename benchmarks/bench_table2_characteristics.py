"""Table II — Benchmark characteristics.

For each suite: state-count range/mean, spec-1 and spec-4 accuracy
range/mean, the number of FSMs with highly input-sensitive speculation, the
``#uniqStates(10 trans.)`` convergence range/mean, and the offline profiling
time.  Paper values for reference: Snort [423, 42k]/10k states, accuracies
~16-39% mean with full [0,100%] ranges, 3/5/6 input-sensitive members, and
convergence ~10-12 mean; profiling 0.6 s.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.analysis.tables import render_table
from repro.selector import DecisionTreeSelector
from repro.workloads.suites import REGIME_LAYOUT, SUITES


def test_table2_characteristics(benchmark, sweep, members):
    stats_by_suite = benchmark.pedantic(
        lambda: _collect(sweep, members), rounds=1, iterations=1
    )

    for suite in SUITES:
        states, s1, s4, conv, sensitive = stats_by_suite[suite]
        # Wide accuracy spread across members (easy and hard regimes).
        assert s4.max() > 0.8 and s4.min() < 0.5, suite
        # spec-4 dominates spec-1 on average (enumeration helps).
        assert s4.mean() >= s1.mean(), suite
        # Input-sensitive counts follow Table II's 3/5/6 by construction.
        assert sensitive >= REGIME_LAYOUT[suite].count("nf") - 2, suite
        # Convergence statistic spans converging and non-converging FSMs.
        assert conv.min() < 5 < conv.max(), suite


def _collect(sweep, members):
    tree = DecisionTreeSelector()
    rows = []
    stats_by_suite = {}
    for suite in SUITES:
        feats = [sweep[m.name].features for m in members[suite]]
        states = np.array([f.n_states for f in feats])
        s1 = np.array([f.spec1_accuracy for f in feats])
        s4 = np.array([f.spec4_accuracy for f in feats])
        conv = np.array([f.convergence_states for f in feats])
        sensitive = sum(1 for f in feats if tree.is_input_sensitive(f))
        prof = np.array([f.profiling_seconds for f in feats])
        stats_by_suite[suite] = (states, s1, s4, conv, sensitive)
        rows.append(
            [
                suite,
                f"[{states.min()}, {states.max()}]",
                int(states.mean()),
                f"[{s1.min():.0%}, {s1.max():.0%}]",
                f"{s1.mean():.0%}",
                f"[{s4.min():.0%}, {s4.max():.0%}]",
                f"{s4.mean():.0%}",
                sensitive,
                f"[{conv.min():.1f}, {conv.max():.1f}]",
                f"{conv.mean():.1f}",
                f"{prof.mean():.2f}",
            ]
        )
    table = render_table(
        [
            "source", "#states range", "mean", "acc(spec-1)", "mean",
            "acc(spec-4)", "mean", "#input-sens.", "#uniq(10)", "mean",
            "profile s",
        ],
        rows,
        title="Table II analogue — suite characteristics",
    )
    emit("table2_characteristics", table)
    return stats_by_suite
