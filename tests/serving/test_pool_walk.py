"""What a walked feed owes the serving tier: a class with a drift monitor
never walks (its monitor reads the selected scheme's own verify-phase
evidence, exactly as on ``sim``), a class without one runs no predictor on
a walked feed, and a ``fast`` pool keeps one resident table per class.
"""

import pytest

import repro.schemes.base as scheme_base
from repro.framework import GSpecPalConfig
from repro.serving import MatcherPool, PlanCache
from repro.workloads import classic

DFA = classic.drifting_phase(128)
TRAINING = classic.drifting_phase_input(4096, drift_at=1.0, seed=7)


def _pool(backend="fast", drift=True, fused=False, n_threads=32):
    config = GSpecPalConfig(n_threads=n_threads)
    return MatcherPool(
        PlanCache(capacity=2, config=config),
        config=config,
        backend=backend,
        drift=drift,
        fused=fused,
    )


def test_no_monitor_runs_no_predictor_on_a_walked_feed(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a walked feed with no drift monitor predicted")

    monkeypatch.setattr(scheme_base, "predict_start_states", refuse)
    segment = classic.drifting_phase_input(2048, drift_at=1.0, seed=11)
    quiet = _pool(drift=False)
    sid = quiet.open(DFA, training_input=TRAINING)
    result = quiet.feed(sid, segment)
    assert result.scheme == "walk" and result.end_state == DFA.run(segment)
    assert result.observations.boundary_samples == 0
    # The patch bites: a class with a monitor runs its scheme, which predicts.
    watched = _pool(drift=True)
    sid = watched.open(DFA, training_input=TRAINING)
    with pytest.raises(AssertionError, match="predicted"):
        watched.feed(sid, segment)


def test_a_monitored_class_runs_its_selected_scheme_on_fast():
    """With drift on, an unforced ``fast`` feed below the crossover runs the
    plan's scheme and hands the monitor that scheme's boundary evidence."""
    pool = _pool(drift=True)
    sid = pool.open(DFA, training_input=TRAINING)
    selected = pool.state.lookup(sid).record.matcher.plan.scheme
    segment = classic.drifting_phase_input(2048, drift_at=1.0, seed=11)
    result = pool.feed(sid, segment)
    assert result.scheme not in ("walk", "seq")
    assert result.scheme.split("-")[0] == selected
    assert result.end_state == DFA.run(segment)
    assert result.observations.boundary_samples > 0
    assert pool.close(sid).scheme == selected


@pytest.mark.parametrize("backend", ["sim", "fast"])
def test_one_class_union_steps_the_matchers_own_table(backend):
    """A one-class ``feed_many`` wave on a ``fast`` pool steps the class's
    own ``FastBackend``; a sim matcher has none, so its union builds one."""
    pool = _pool(backend=backend, drift=False, fused=True, n_threads=8)
    sids = [pool.open(DFA, training_input=TRAINING) for _ in range(2)]
    segment = classic.drifting_phase_input(300, drift_at=1.0, seed=5)
    outcomes = pool.feed_many([(sid, segment) for sid in sids])
    assert all(o.ok and o.fused for o in outcomes)
    assert [o.end_state for o in outcomes] == [DFA.run(segment)] * 2
    record = pool.state.lookup(sids[0]).record
    union = pool.state.unions[(record,)]
    own = record.matcher._simulator().engine
    assert (union.backend is own) == (backend == "fast")
