"""Experiment-runner tests on a miniature synthetic member."""

import numpy as np
import pytest

from repro.analysis.experiments import (
    run_member,
    verify_against_sequential,
)
from repro.automata.dfa import DFA
from repro.workloads.components import counter_component
from repro.workloads.suites import SuiteMember
from repro.workloads.traces import TraceSpec


@pytest.fixture(scope="module")
def mini_member():
    comp = counter_component(6, n_symbols=64, seed=2)
    dfa = DFA(table=comp.table, start=0, accepting=frozenset({0}), name="mini")
    trace = TraceSpec(weights=np.concatenate([np.ones(64), np.zeros(192)]))
    return SuiteMember(suite="snort", index=1, regime="rr", dfa=dfa, trace=trace)


@pytest.fixture(scope="module")
def mini_run(mini_member):
    return run_member(
        mini_member, input_length=2048, training_length=512, n_threads=16
    )


def test_run_member_results(mini_run):
    assert set(mini_run.results) >= {"pm", "sre", "rr", "nf"}
    assert mini_run.selected in ("pm", "sre", "rr", "nf", "sfa")
    assert mini_run.features.n_states == 6


def test_all_schemes_agree_with_sequential(mini_run, mini_member):
    data = mini_member.generate_input(2048, seed=0)
    assert verify_against_sequential(mini_run, data)


def test_speedup_over_baseline(mini_run):
    speedups = mini_run.speedup_over("pm")
    assert speedups["pm"] == pytest.approx(1.0)
    assert all(v > 0 for v in speedups.values())


def test_best_scheme_minimizes_cycles(mini_run):
    best = mini_run.best_scheme
    assert all(
        mini_run.results[best].cycles <= r.cycles for r in mini_run.results.values()
    )


def test_requested_scheme_subset(mini_member):
    run = run_member(
        mini_member,
        schemes=("sre", "nf"),
        input_length=1024,
        training_length=256,
        n_threads=8,
    )
    assert set(run.results) >= {"sre", "nf"}
    # The selector's pick is always present, even if not requested.
    assert run.selected in run.results
