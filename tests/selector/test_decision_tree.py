"""Decision-tree selector tests (Fig. 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework import GSpecPal
from repro.selector.decision_tree import (
    _VERDICTS,
    DecisionTreeSelector,
    SelectorThresholds,
)
from repro.selector.features import FSMFeatures


def features(**overrides) -> FSMFeatures:
    base = dict(
        name="t",
        n_states=100,
        spec1_accuracy=0.1,
        spec4_accuracy=0.2,
        spec16_accuracy=0.8,
        sensitivity=0.05,
        convergence_states=20.0,
        profiling_seconds=0.1,
    )
    base.update(overrides)
    return FSMFeatures(**base)


@pytest.fixture()
def sel():
    return DecisionTreeSelector()


def test_speck_accurate_spec1_not_selects_pm(sel):
    f = features(spec4_accuracy=0.95, spec1_accuracy=0.3)
    assert sel.select(f) == "pm"


def test_spec1_also_accurate_skips_pm(sel):
    # When spec-1 already hits, spec-k redundancy buys nothing.
    f = features(spec4_accuracy=0.97, spec1_accuracy=0.9, convergence_states=2.0)
    assert sel.select(f) == "sre"


def test_fast_convergence_selects_sre(sel):
    f = features(convergence_states=2.0)
    assert sel.select(f) == "sre"


def test_input_sensitive_selects_nf(sel):
    f = features(sensitivity=0.4)
    assert sel.select(f) == "nf"


def test_default_selects_rr(sel):
    assert sel.select(features()) == "rr"


def test_priority_pm_over_sre(sel):
    # PM check fires before convergence check.
    f = features(spec4_accuracy=0.95, spec1_accuracy=0.2, convergence_states=1.5)
    assert sel.select(f) == "pm"


def test_custom_thresholds():
    sel = DecisionTreeSelector(SelectorThresholds(fast_convergence=50.0))
    assert sel.select(features(convergence_states=20.0)) == "sre"


def test_explain_mentions_decision(sel):
    for f, scheme in [
        (features(spec4_accuracy=0.95), "PM"),
        (features(convergence_states=1.0), "SRE"),
        (features(sensitivity=0.5), "NF"),
        (features(), "RR"),
    ]:
        text = sel.explain(f)
        assert scheme in text


def test_schemes_constant():
    assert set(DecisionTreeSelector.SCHEMES) == {"pm", "sre", "rr", "nf", "sfa"}
    # The selectable set is the tree's leaves, and the framework reads it.
    assert set(DecisionTreeSelector.SCHEMES) == {s for _, s in _VERDICTS}
    assert GSpecPal.SELECTABLE is DecisionTreeSelector.SCHEMES


#: What each node's explain() line must show: the measurement it tests.
_NODE_MENTIONS = {
    "speculation_floor": "spec-16 accuracy",
    "speck_accurate": "spec-4 accuracy",
    "fast_convergence": "convergence #uniqStates(10)",
    "enumeration_gain": "enumeration gain",
    "input_sensitive": "sensitivity",
}

_unit = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    spec=st.lists(_unit, min_size=3, max_size=3).map(sorted),
    sensitivity=st.floats(0.0, 0.5, allow_nan=False),
    convergence=st.floats(1.0, 40.0, allow_nan=False),
    width=st.sampled_from([0.0, 1.0, 8.0, 150.0, 400.0]),
    cuts=st.tuples(_unit, _unit, st.floats(1.0, 40.0), _unit, _unit, _unit),
)
def test_explain_follows_decide(spec, sensitivity, convergence, width, cuts):
    """explain() re-derives nothing: its verdict names decide()'s scheme,
    and it prints one line per node on decide()'s path, in order."""
    f = features(
        spec1_accuracy=spec[0],
        spec4_accuracy=spec[1],
        spec16_accuracy=spec[2],
        sensitivity=sensitivity,
        convergence_states=convergence,
        reachable_width=width,
    )
    sel = DecisionTreeSelector(SelectorThresholds(*cuts))
    scheme, path = sel.decide(f)
    lines = sel.explain(f).splitlines()
    assert lines[0] == "FSM 't':"
    assert lines[-1].startswith("  -> ") and lines[-1].endswith(f": {scheme.upper()}")
    assert len(lines) == len(path) + 2
    for node, line in zip(path, lines[1:-1]):
        assert _NODE_MENTIONS[node] in line, (node, line)


def test_speculation_floor_selects_sfa(sel):
    # Even deep queues can't predict a permutation automaton: the orange
    # node fires before every speculative branch.
    f = features(spec1_accuracy=0.0, spec4_accuracy=0.03, spec16_accuracy=0.1)
    scheme, path = sel.decide(f)
    assert scheme == "sfa"
    assert path == ["speculation_floor"]


def test_speculation_floor_beats_other_branches(sel):
    # The floor check has priority: hopeless spec-16 routes to SFA even
    # when convergence/sensitivity would otherwise pick SRE or NF.
    f = features(spec16_accuracy=0.05, convergence_states=1.0, sensitivity=0.9)
    assert sel.select(f) == "sfa"


def test_speculation_floor_threshold_is_tunable():
    strict = DecisionTreeSelector(SelectorThresholds(speculation_floor=0.9))
    assert strict.select(features(spec16_accuracy=0.8)) == "sfa"
    lenient = DecisionTreeSelector(SelectorThresholds(speculation_floor=0.0))
    assert lenient.select(features(spec16_accuracy=0.05)) != "sfa"


def test_width_ceiling_corroborates_noisy_floor(sel):
    # True spec-16 accuracy on a 128-state permutation is 16/128 = 0.125,
    # but a few dozen sampled boundaries can measure 0.15..0.3: the
    # noise-free width ceiling must still route the FSM to SFA.
    f = features(spec16_accuracy=0.18, reachable_width=128.0, n_states=128)
    assert sel.select(f) == "sfa"


def test_width_ceiling_defers_to_confident_measurement(sel):
    # A wide image with a *confidently* accurate predictor (concentrated
    # boundary distribution) must not be misrouted to SFA's wide launch.
    f = features(spec4_accuracy=0.95, spec16_accuracy=0.95,
                 reachable_width=500.0, n_states=500)
    assert sel.select(f) == "pm"


def test_unprofiled_width_trusts_measurement_alone(sel):
    # Legacy plans carry reachable_width == 0.0: only the measured floor
    # can fire.
    assert sel.select(features(spec16_accuracy=0.18)) != "sfa"
    assert sel.select(features(spec16_accuracy=0.05)) == "sfa"


def test_explain_mentions_sfa(sel):
    f = features(spec16_accuracy=0.05)
    assert "SFA" in sel.explain(f)
