"""compile_plan: the offline phase frozen into one artifact.

Pins down what a plan *contains* — that it is the very artifact a
``GSpecPal`` built from the same inputs runs from, that the stored
hotness order yields the exact Fig. 4 table layout, that predictor
statistics are the trained lookback-2 numbers, that compiling twice under
identical inputs yields an identical value object, and that any non-empty
training input compiles.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.automata.minimize import canonical_form
from repro.errors import PlanError, SelfCheckError
from repro.framework import GSpecPal, GSpecPalConfig
from repro.observability import MetricsRegistry, Tracer
from repro.plan import compile_plan, config_fingerprint
from repro.plan.compile import COMPILE_STAGES
from repro.automata.properties import profile_state_frequencies
from repro.gpu.memory import MemoryModel, TableLayout
from repro.workloads import classic


@pytest.fixture()
def training(rng):
    return bytes(rng.integers(97, 123, size=512).astype(np.uint8))


@pytest.fixture()
def config():
    return GSpecPalConfig(n_threads=16)


@pytest.mark.parametrize("use_transformation", [True, False])
def test_framework_plan_is_the_standalone_plan(
    scanner_dfa, training, use_transformation
):
    """There is one offline pipeline: the plan behind ``GSpecPal(...)`` is
    what ``compile_plan`` returns for the same (FSM, training, config)."""
    config = GSpecPalConfig(n_threads=16, use_transformation=use_transformation)
    plan = compile_plan(scanner_dfa, training, config)
    pal = GSpecPal(scanner_dfa, config, training_input=training)
    assert pal.plan.fingerprint == plan.fingerprint
    assert pal.plan.canonical_fingerprint == plan.canonical_fingerprint
    assert pal.plan.config_hash == plan.config_hash
    assert pal.plan.scheme == plan.scheme == pal.select_scheme()
    assert pal.plan.decision_path == plan.decision_path  # the Fig. 6 walk
    assert pal.current_decision_path() == plan.decision_path
    assert np.array_equal(pal.plan.frequency_order, plan.frequency_order)
    ours = pal._simulator().engine
    theirs = GSpecPal.from_plan(plan)._simulator().engine
    if ours.accounts_cycles:
        assert np.array_equal(ours.order, theirs.order)
        assert np.array_equal(ours.executor.table, theirs.executor.table)
        assert ours.memory == theirs.memory
        layout = TableLayout.RANK if use_transformation else TableLayout.HASH
        assert ours.memory.layout is layout
    # profiling_seconds is wall-clock, every other feature must agree exactly
    ours, theirs = pal.profile().as_dict(), plan.features.as_dict()
    ours.pop("profiling_seconds"), theirs.pop("profiling_seconds")
    assert ours == theirs
    assert pal.plan is pal.plan  # compiled once, then held


def test_compile_is_deterministic(scanner_dfa, training, config):
    a = compile_plan(scanner_dfa, training, config)
    b = compile_plan(scanner_dfa, training, config)
    assert a.fingerprint == b.fingerprint == scanner_dfa.fingerprint()
    assert a.config_hash == b.config_hash == config_fingerprint(config)
    assert a.scheme == b.scheme and a.decision_path == b.decision_path
    assert a.cost_estimates == b.cost_estimates
    assert np.array_equal(a.frequency_counts, b.frequency_counts)
    assert np.array_equal(a.frequency_order, b.frequency_order)
    assert a.predictor_stats == b.predictor_stats


def test_cost_estimates_cover_selectable_schemes(scanner_dfa, training, config):
    plan = compile_plan(scanner_dfa, training, config)
    assert set(plan.cost_estimates) >= {"pm", "sre", "rr", "nf"}
    assert all(v > 0 for v in plan.cost_estimates.values())


@pytest.mark.parametrize("use_transformation", [True, False])
def test_hotness_order_rebuilds_the_exact_layout(
    scanner_dfa, training, use_transformation
):
    """Both layouts step the table ranked by the stored hotness order and
    cache its ``H`` hottest rows; they differ only in the charged check."""
    cfg = GSpecPalConfig(n_threads=16, use_transformation=use_transformation)
    plan = compile_plan(scanner_dfa, training, cfg)
    engine = GSpecPal.from_plan(plan, backend="sim")._simulator().engine
    profile = profile_state_frequencies(scanner_dfa, training)
    assert np.array_equal(plan.frequency_order, profile.order)
    assert np.array_equal(engine.order, profile.order)
    assert np.array_equal(
        engine.executor.table, scanner_dfa.renumbered(profile.rank_of()).table
    )
    hot = MemoryModel.for_dfa(
        cfg.device, scanner_dfa.n_states, scanner_dfa.n_symbols
    ).hot_state_count
    assert 0 < engine.memory.hot_state_count == hot
    layout = TableLayout.RANK if use_transformation else TableLayout.HASH
    assert engine.memory.layout is layout
    assert f"hot states : {hot} ({layout.name} layout)" in plan.summary()


def test_predictor_stats_are_trained_lookback2(scanner_dfa, training, config):
    plan = compile_plan(scanner_dfa, training, config)
    stats = plan.predictor_stats
    assert stats["predictor"] == "lookback-2"
    assert stats["lookback"] == 2
    assert 0.0 <= stats["spec1_accuracy"] <= stats["spec16_accuracy"] <= 1.0
    assert stats["max_queue_size"] >= stats["mean_queue_size"] > 0
    assert stats["boundaries"] > 0


def test_empty_training_rejected(scanner_dfa, config):
    with pytest.raises(PlanError):
        compile_plan(scanner_dfa, b"", config)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 9, 10, 63, 64, 65])
def test_any_non_empty_training_compiles(scanner_dfa, training, config, size):
    """Sizes around the former floors — 4 symbols per profiling chunk, the
    10-symbol convergence window, one chunk per thread — all compile, and
    the plan serves oracle-exact."""
    plan = compile_plan(scanner_dfa, training[:size], config)
    assert plan.training_symbols == size
    assert plan.scheme in GSpecPal.SELECTABLE
    assert plan.predictor_stats["boundaries"] == max(
        0, min(16, size // 4) - 1
    )
    result = GSpecPal.from_plan(plan).run(training)
    assert result.end_state == scanner_dfa.run(training)


def test_compile_emits_compile_span_tree(scanner_dfa, training, config):
    tracer = Tracer()
    compile_plan(scanner_dfa, training, config, tracer=tracer)
    roots = tracer.roots
    assert [s.name for s in roots] == ["compile"]
    children = {s.name: s for s in roots[0].children}
    assert list(children) == list(COMPILE_STAGES)
    # cost_model / predictor are sub-steps of the train stage
    assert [s.name for s in children["train"].children] == ["cost_model", "predictor"]


def test_compile_records_stage_timings_and_metrics(scanner_dfa, training, config):
    metrics = MetricsRegistry()
    plan = compile_plan(scanner_dfa, training, config, metrics=metrics)
    assert set(plan.stage_timings_ms) == set(COMPILE_STAGES)
    assert all(v >= 0.0 for v in plan.stage_timings_ms.values())
    snapshot = metrics.as_dict()
    for name in COMPILE_STAGES:
        assert snapshot[f"compile.stage.{name}_ms.count"] == 1.0


def test_compile_stores_canonical_fingerprint(scanner_dfa, training, config):
    plan = compile_plan(scanner_dfa, training, config)
    assert plan.canonical_fingerprint == scanner_dfa.canonical_fingerprint()
    # Language-equivalent submissions share the canonical fingerprint but
    # keep their own content fingerprint.
    perm = list(range(scanner_dfa.n_states))
    perm[0], perm[-1] = perm[-1], perm[0]
    relabelled = scanner_dfa.renumbered(perm)
    other = compile_plan(relabelled, training, config)
    assert other.canonical_fingerprint == plan.canonical_fingerprint
    assert other.fingerprint != plan.fingerprint


def test_handed_in_canonical_form_is_reused(scanner_dfa, training, config):
    """The cache's canonical form stands in for the stage's own: the plan
    equals one compiled without it in every compared field (wall-clock
    profiling time aside), and the span keeps its attributes."""
    tracer = Tracer()
    form = canonical_form(scanner_dfa)
    plan = compile_plan(scanner_dfa, training, config, canonical=form, tracer=tracer)
    fresh = compile_plan(scanner_dfa, training, config)
    for f in fields(plan):
        ours, theirs = getattr(plan, f.name), getattr(fresh, f.name)
        if not f.compare:
            continue
        if isinstance(ours, np.ndarray):
            assert np.array_equal(ours, theirs), f.name
        elif f.name == "features":
            assert replace(ours, profiling_seconds=0.0) == replace(
                theirs, profiling_seconds=0.0
            )
        else:
            assert ours == theirs, f.name
    span = tracer.find("canonicalize")
    assert span.attrs["canonical_states"] == form.n_states
    assert span.attrs["canonical_fingerprint"] == form.fingerprint()[:16]


def test_selfcheck_refuses_a_wrong_canonical_form(scanner_dfa, training, config):
    wrong = canonical_form(classic.div7())
    audited = replace(config, selfcheck=True)
    with pytest.raises(SelfCheckError, match="canonicalizes") as excinfo:
        compile_plan(scanner_dfa, training, audited, canonical=wrong)
    assert excinfo.value.invariant == "canonical_form"
    # Unaudited, the form is trusted as handed in.
    trusting = compile_plan(
        scanner_dfa, training, replace(config, selfcheck=False), canonical=wrong
    )
    assert trusting.canonical_fingerprint == wrong.fingerprint()
