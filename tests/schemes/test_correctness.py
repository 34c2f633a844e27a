"""Every scheme must produce the sequential ground truth — always.

Speculation, recovery scheduling, record capacities and layouts may change
*cost*, never *answers*.  These tests sweep schemes × automata × inputs and
compare end states/accept decisions against the plain DFA run.
"""

import numpy as np
import pytest

from repro.schemes import (
    SCHEME_REGISTRY,
    NFScheme,
    PMScheme,
    RRScheme,
    SequentialScheme,
    SFAScheme,
    SpecSequentialScheme,
    SREScheme,
)

ALL_SCHEMES = [
    SequentialScheme,
    SpecSequentialScheme,
    PMScheme,
    SREScheme,
    RRScheme,
    NFScheme,
    SFAScheme,
]


def run_and_check(cls, dfa, data, training, n_threads=16, **kwargs):
    scheme = cls.for_dfa(dfa, n_threads=n_threads, training_input=training, **kwargs)
    result = scheme.run(data)
    truth = dfa.run(data)
    assert result.end_state == truth, f"{cls.__name__} end state mismatch"
    assert result.accepts == (truth in dfa.accepting)
    return result


@pytest.mark.parametrize("cls", ALL_SCHEMES)
class TestAllSchemes:
    def test_div7(self, cls, div7, rng):
        data = bytes(rng.integers(48, 50, size=500).astype(np.uint8))
        training = bytes(rng.integers(48, 50, size=200).astype(np.uint8))
        run_and_check(cls, div7, data, training)

    def test_scanner(self, cls, scanner_dfa, rng):
        data = bytes(rng.integers(97, 123, size=600).astype(np.uint8))
        training = bytes(rng.integers(97, 123, size=200).astype(np.uint8))
        run_and_check(cls, scanner_dfa, data, training)

    def test_rotator_worst_case(self, cls, rotator, rng):
        """Zero-convergence FSM: speculation always wrong; recovery must
        still restore correctness."""
        data = bytes(rng.integers(0, 64, size=400).astype(np.uint8))
        training = bytes(rng.integers(0, 64, size=100).astype(np.uint8))
        run_and_check(cls, rotator, data, training)

    def test_without_transformation(self, cls, div7, rng):
        data = bytes(rng.integers(48, 50, size=300).astype(np.uint8))
        training = bytes(rng.integers(48, 50, size=100).astype(np.uint8))
        scheme = cls.for_dfa(
            div7, n_threads=8, training_input=training, use_transformation=False
        )
        assert scheme.run(data).end_state == div7.run(data)

    def test_input_not_multiple_of_threads(self, cls, div7, rng):
        data = bytes(rng.integers(48, 50, size=101).astype(np.uint8))
        training = bytes(rng.integers(48, 50, size=64).astype(np.uint8))
        run_and_check(cls, div7, data, training, n_threads=8)

    def test_two_threads(self, cls, div7, rng):
        data = bytes(rng.integers(48, 50, size=60).astype(np.uint8))
        training = bytes(rng.integers(48, 50, size=30).astype(np.uint8))
        run_and_check(cls, div7, data, training, n_threads=2)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_pm_spec_k_levels(div7, rng, k):
    data = bytes(rng.integers(48, 50, size=400).astype(np.uint8))
    training = bytes(rng.integers(48, 50, size=100).astype(np.uint8))
    scheme = PMScheme.for_dfa(div7, n_threads=8, training_input=training, k=k)
    assert scheme.run(data).end_state == div7.run(data)


@pytest.mark.parametrize("capacity", [1, 2, 4, 16, 32])
def test_recovery_schemes_any_capacity(rotator, rng, capacity):
    """Correctness must hold for every register budget (Fig. 7 sweep)."""
    data = bytes(rng.integers(0, 64, size=300).astype(np.uint8))
    training = bytes(rng.integers(0, 64, size=100).astype(np.uint8))
    for cls in (SREScheme, RRScheme, NFScheme):
        scheme = cls.for_dfa(
            rotator,
            n_threads=8,
            training_input=training,
            own_capacity=max(1, capacity),
            others_capacity=capacity,
        )
        assert scheme.run(data).end_state == rotator.run(data), cls.__name__


def test_registry_contains_all():
    assert set(SCHEME_REGISTRY) == {
        "seq", "spec-seq", "pm", "sre", "rr", "nf", "sfa",
    }


def test_scheme_result_fields(div7, rng):
    data = bytes(rng.integers(48, 50, size=160).astype(np.uint8))
    training = bytes(rng.integers(48, 50, size=80).astype(np.uint8))
    scheme = RRScheme.for_dfa(div7, n_threads=8, training_input=training)
    result = scheme.run(data)
    assert result.scheme == "rr"
    assert result.n_chunks == 8
    assert result.cycles > 0
    assert result.time_ms > 0


def test_deterministic_across_runs(scanner_dfa, rng):
    data = bytes(rng.integers(97, 123, size=400).astype(np.uint8))
    training = bytes(rng.integers(97, 123, size=150).astype(np.uint8))
    a = NFScheme.for_dfa(scanner_dfa, n_threads=8, training_input=training).run(data)
    b = NFScheme.for_dfa(scanner_dfa, n_threads=8, training_input=training).run(data)
    assert a.cycles == b.cycles
    assert a.end_state == b.end_state
