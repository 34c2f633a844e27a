"""Cost-model (Eq. 1–4) tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selector.cost_model import CostModel, CostModelInputs
from tests.selector.test_decision_tree import features


@pytest.fixture()
def model():
    return CostModel()


@pytest.fixture()
def inputs():
    return CostModelInputs(input_length=65536, n_threads=256, k=4)


def test_tp1_scales_with_chunk_length(model):
    short = CostModelInputs(input_length=1000, n_threads=10)
    long = CostModelInputs(input_length=10000, n_threads=10)
    assert model.t_p1(long) == pytest.approx(10 * model.t_p1(short))


def test_tp1_hot_cheaper_than_cold(model):
    hot = CostModelInputs(input_length=1000, n_threads=10, hot_fraction=1.0)
    cold = CostModelInputs(input_length=1000, n_threads=10, hot_fraction=0.0)
    assert model.t_p1(hot) < model.t_p1(cold)


def test_pm_estimate_grows_with_mispredictions(model, inputs):
    good = features(spec4_accuracy=0.99)
    bad = features(spec4_accuracy=0.01)
    assert model.estimate_pm(bad, inputs) > model.estimate_pm(good, inputs)


def test_sr_estimate_benefits_from_deltas(model, inputs):
    f = features(spec1_accuracy=0.1)
    none = model.estimate_sr(f, inputs, delta_end=0.0, delta_specs=0.0)
    lots = model.estimate_sr(f, inputs, delta_end=0.5, delta_specs=0.4)
    assert lots < none


def test_delta_end_large_when_converging(model):
    fast = features(convergence_states=1.0, spec1_accuracy=0.1)
    slow = features(convergence_states=30.0, spec1_accuracy=0.1)
    assert model.delta_end(fast) > model.delta_end(slow)


def test_delta_specs_is_queue_depth_gain(model):
    f = features(spec1_accuracy=0.1, spec16_accuracy=0.9)
    assert model.delta_specs(f) == pytest.approx(0.8)


def test_estimate_all_keys(model, inputs):
    est = model.estimate_all(features(), inputs)
    assert set(est) == {"pm", "sre", "rr", "nf", "sfa"}
    assert all(v > 0 for v in est.values())


def test_best_scheme_pm_regime(model, inputs):
    f = features(spec4_accuracy=0.999, spec1_accuracy=0.2, convergence_states=30.0,
                 spec16_accuracy=0.999)
    # With spec-4 nearly perfect, PM's recovery term vanishes; it should win
    # or be close — at minimum beat SRE which keeps a big P_recover.
    est = model.estimate_all(f, inputs)
    assert est["pm"] < est["sre"]


def test_best_scheme_sre_regime(model, inputs):
    f = features(convergence_states=1.0, spec1_accuracy=0.3, spec4_accuracy=0.4)
    est = model.estimate_all(f, inputs)
    # Among the speculative schemes, delta_end saturates recovery for the
    # SR family.  (SFA may still rank cheapest overall: 256 threads x 100
    # mapping lanes fits device residency, so its construction costs one
    # chunk-time with zero verify/recovery terms.)
    best_speculative = min(("pm", "sre", "rr", "nf"), key=est.get)
    assert best_speculative in ("sre", "rr", "nf")


def test_p_recover_clamped_non_negative(model, inputs):
    f = features(spec1_accuracy=0.9)
    t = model.estimate_sr(f, inputs, delta_end=0.5, delta_specs=0.5)
    assert t > 0

# ----------------------------------------------------------------------
# regression tests for the PR-3 bugfix batch
# ----------------------------------------------------------------------
def test_t_comm_grows_with_speculation_degree(model):
    """Regression: t_comm used to collapse to max(1,k)/max(1,k) == 1 cycle
    for every k. Shuffling k speculative states costs strictly more than
    shuffling one."""
    assert model.t_comm(4) > model.t_comm(1)
    assert model.t_comm(16) > model.t_comm(4)


def test_t_comm_floor_and_increment(model):
    base = model.t_comm(1)
    assert base == pytest.approx(float(model.device.comm_cycles))
    step = model.t_comm(2) - model.t_comm(1)
    assert step == pytest.approx(float(model.device.shuffle_cycles))
    # Degenerate degrees clamp to the single-state startup cost.
    assert model.t_comm(0) == model.t_comm(-3) == base


def test_delta_specs_scales_with_others_capacity(model):
    """Regression: delta_specs ignored others_capacity entirely. A deeper
    queue interpolates toward the spec-16 accuracy."""
    f = features(spec1_accuracy=0.1, spec4_accuracy=0.5, spec16_accuracy=0.9)
    d1 = model.delta_specs(f, others_capacity=1)
    d4 = model.delta_specs(f, others_capacity=4)
    d16 = model.delta_specs(f, others_capacity=16)
    assert d1 < d4 < d16
    assert d1 == pytest.approx(0.0)  # one record == spec-1, no gain
    assert d4 == pytest.approx(0.4)  # spec4 - spec1
    assert d16 == pytest.approx(0.8)  # spec16 - spec1
    # Beyond the deepest measured anchor the gain saturates.
    assert model.delta_specs(f, others_capacity=64) == pytest.approx(d16)
    assert model.delta_specs(f, others_capacity=0) == 0.0


def test_estimate_all_sensitive_to_capacity(model):
    """The SRE-family estimates must reflect the configured VR depth."""
    f = features(spec1_accuracy=0.2, spec4_accuracy=0.5, spec16_accuracy=0.9,
                 convergence_states=30.0)
    shallow = CostModelInputs(input_length=65536, n_threads=256, k=4,
                              others_capacity=1)
    deep = CostModelInputs(input_length=65536, n_threads=256, k=4,
                           others_capacity=16)
    est_shallow = model.estimate_all(f, shallow)
    est_deep = model.estimate_all(f, deep)
    for name in ("rr", "nf"):
        assert est_deep[name] < est_shallow[name], name
    # PM runs fixed-degree speculation; capacity must not perturb it.
    assert est_deep["pm"] == pytest.approx(est_shallow["pm"])


def test_spec_accuracy_interpolates_anchor_curve():
    """Regression: estimate_pm used spec4_accuracy for *every* k >= 4, so a
    k=16 PM config was costed with the (much worse) spec-4 anchor. The
    accuracy curve — ``FSMFeatures.accuracy_at``, the one the cost model,
    the drift anchor and revision all read — interpolates the measured
    spec-1/4/16 anchors."""
    f = features(spec1_accuracy=0.1, spec4_accuracy=0.5, spec16_accuracy=0.9)
    # Anchors reproduce exactly.
    assert f.accuracy_at(1) == f.spec1_accuracy
    assert f.accuracy_at(4) == f.spec4_accuracy
    assert f.accuracy_at(16) == f.spec16_accuracy
    # Between anchors the curve is strictly between the endpoints.
    assert f.spec1_accuracy < f.accuracy_at(2) < f.spec4_accuracy
    assert f.spec4_accuracy < f.accuracy_at(8) < f.spec16_accuracy
    # Beyond the deepest anchor the curve saturates (no extrapolation);
    # no queue at all means no accuracy.
    assert f.accuracy_at(32) == f.spec16_accuracy
    assert f.accuracy_at(0) == 0.0


_accuracy = st.integers(0, 63).map(lambda hits: hits / 63)


@settings(max_examples=200, deadline=None)
@given(st.lists(_accuracy, min_size=3, max_size=3).map(sorted))
def test_accuracy_curve_exact_at_anchors_and_monotone(anchors):
    """Over profiler-shaped anchors (hits out of 63 boundaries, where
    ``y0 + (y1 - y0)`` need not round back to ``y1``): the profiled depths
    return the stored anchors bit-exactly, and accuracy never falls as
    the queue deepens."""
    spec1, spec4, spec16 = anchors
    f = features(spec1_accuracy=spec1, spec4_accuracy=spec4, spec16_accuracy=spec16)
    assert (f.accuracy_at(1), f.accuracy_at(4), f.accuracy_at(16)) == (
        spec1, spec4, spec16,
    )
    curve = [f.accuracy_at(k) for k in range(1, 65)]
    assert all(lo <= hi for lo, hi in zip(curve, curve[1:]))


def test_pm_mismatch_monotone_over_k_sweep():
    """Cost-monotonicity regression for the k sweep: with accuracy anchors
    increasing in k, the implied mismatch probability must be
    non-increasing — and strictly decreasing across anchor intervals."""
    f = features(spec1_accuracy=0.1, spec4_accuracy=0.5, spec16_accuracy=0.9)
    mismatch = [1.0 - f.accuracy_at(k) for k in (1, 2, 4, 8, 16, 32)]
    for lo, hi in zip(mismatch[1:], mismatch[:-1]):
        assert lo <= hi + 1e-12
    assert mismatch[4] < mismatch[2] < mismatch[0]


def test_pm_k16_costed_with_spec16_anchor(model):
    """A k=16 PM estimate must be driven by the spec-16 anchor, not stuck
    at spec-4 the way the old ``k >= 4 -> spec4_accuracy`` branch was."""
    improving = features(spec1_accuracy=0.1, spec4_accuracy=0.3,
                         spec16_accuracy=0.95)
    flat = features(spec1_accuracy=0.1, spec4_accuracy=0.3,
                    spec16_accuracy=0.3)
    inp4 = CostModelInputs(input_length=65536, n_threads=256, k=4)
    inp16 = CostModelInputs(input_length=65536, n_threads=256, k=16)
    # At k=4 the deeper anchor is out of scope: both cost identically.
    assert model.estimate_pm(improving, inp4) == pytest.approx(
        model.estimate_pm(flat, inp4)
    )
    # At k=16 the old formula also costed these identically; the fixed
    # model rewards the accurate deep anchor.
    assert model.estimate_pm(improving, inp16) < model.estimate_pm(flat, inp16)


def test_sfa_estimate_scales_with_reachable_width(model, inputs):
    narrow = features(reachable_width=2.0)
    wide = features(reachable_width=80.0)
    assert model.estimate_sfa(narrow, inputs) < model.estimate_sfa(wide, inputs)


def test_sfa_estimate_falls_back_to_n_states(model, inputs):
    # Plans profiled before the feature existed carry the 0.0 default; the
    # model must assume the conservative full-width lane count.
    legacy = features(reachable_width=0.0)
    full = features(reachable_width=100.0)  # == n_states
    assert model.estimate_sfa(legacy, inputs) == pytest.approx(
        model.estimate_sfa(full, inputs)
    )
