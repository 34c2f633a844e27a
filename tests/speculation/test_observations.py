"""LiveObservations: the per-run evidence record behind drift detection.

Every scheme run returns one (attached by the scheme layer's audit wrap):
speculative schemes carry their verified chunk-boundary hits/misses at the
depth they actually speculate, misprediction-free schemes carry traffic
volume (segments, symbols) only.  ``absorb`` must merge records from heterogeneous
runs without losing counts — that is what the pool-side aggregate and the
breach window are built from.
"""

import math

import numpy as np
import pytest

from repro.schemes import PMScheme, SFAScheme
from repro.speculation import LiveObservations
from repro.workloads import classic


@pytest.fixture(scope="module")
def case():
    dfa = classic.keyword_scanner(b"obs")
    rng = np.random.default_rng(11)
    training = bytes(rng.integers(97, 123, size=512).astype(np.uint8))
    data = bytes(rng.integers(97, 123, size=1600).astype(np.uint8))
    return dfa, training, data


def test_pm_run_attaches_boundary_evidence(case):
    dfa, training, data = case
    scheme = PMScheme.for_dfa(dfa, n_threads=16, training_input=training, k=4)
    result = scheme.run(data)
    obs = result.observations
    assert obs is not None
    assert obs.scheme == scheme.name
    assert obs.spec_k == 4
    assert obs.segments == 1
    assert obs.symbols == len(data)
    # One verified boundary per chunk seam: n_chunks - 1.
    assert obs.boundary_samples == 15
    assert 0.0 <= obs.spec_accuracy <= 1.0


def test_sfa_run_is_sample_free(case):
    dfa, training, data = case
    scheme = SFAScheme.for_dfa(dfa, n_threads=16, training_input=training)
    result = scheme.run(data)
    obs = result.observations
    assert obs is not None
    assert obs.boundary_samples == 0
    assert math.isnan(obs.spec_accuracy)
    # The volume side still reports, so drift aggregates keep counting
    # the traffic even under sample-free schemes.
    assert obs.segments == 1
    assert obs.symbols == len(data)
    assert obs.summary()["spec_accuracy"] == -1.0


def test_absorb_merges_counts():
    a = LiveObservations(
        scheme="pm-spec4", spec_k=4, segments=1, symbols=10,
        spec_hits=3, spec_misses=1,
    )
    b = LiveObservations(
        scheme="sre", spec_k=1, segments=2, symbols=6,
        spec_hits=2, spec_misses=0,
    )
    a.absorb(b)
    assert a.scheme == "merged"
    assert a.spec_k == 4  # first record with boundary evidence wins
    assert a.segments == 3
    assert a.symbols == 16
    assert a.boundary_samples == 6
    assert a.spec_accuracy == pytest.approx(5 / 6)


def test_absorb_into_empty_adopts_the_donor():
    empty = LiveObservations()
    donor = LiveObservations(
        scheme="pm-spec2", spec_k=2, segments=1, symbols=8,
        spec_hits=1, spec_misses=1,
    )
    empty.absorb(donor)
    assert empty.scheme == "pm-spec2"
    assert empty.spec_k == 2
    assert empty.boundary_samples == 2


def test_copy_is_independent():
    original = LiveObservations(
        scheme="pm-spec4", spec_k=4, segments=1, symbols=4,
        spec_hits=1, spec_misses=0,
    )
    clone = original.copy()
    clone.absorb(original)
    assert original.segments == 1
    assert original.symbols == 4
    assert clone.segments == 2


def test_summary_is_json_scalar_only():
    obs = LiveObservations(
        scheme="pm-spec4", spec_k=4, segments=2, symbols=64,
        spec_hits=5, spec_misses=5,
    )
    summary = obs.summary()
    assert summary["boundary_samples"] == 10
    assert summary["spec_accuracy"] == pytest.approx(0.5)
    for value in summary.values():
        assert isinstance(value, (int, float, str))
