"""``Scheme.for_dfa`` fallback behaviour: loud, observable, selectable.

The convenience constructor used to flip ``use_transformation`` off
silently when no training input was available, leaving callers wondering
where the hot RANK layout went.  It now warns
(:class:`~repro.errors.MissingTrainingInputWarning`) on every call that
falls back, and threads backend selection through to the simulator.
"""

import warnings

import numpy as np
import pytest

from repro.automata.dfa import DFA
from repro.errors import MissingTrainingInputWarning
from repro.gpu.memory import TableLayout
from repro.schemes import SpecSequentialScheme, SREScheme


@pytest.fixture()
def dfa():
    rng = np.random.default_rng(7)
    table = rng.integers(0, 6, size=(6, 8))
    return DFA(table=table, start=0, accepting=frozenset({2}), name="fallback")


def test_missing_training_input_warns(dfa):
    with pytest.warns(MissingTrainingInputWarning, match="frequency transformation"):
        scheme = SpecSequentialScheme.for_dfa(dfa, n_threads=4)
    # The fallback itself is unchanged: hash layout, no transformation.
    assert not scheme.sim.use_transformation
    if scheme.sim.engine.accounts_cycles:
        assert scheme.sim.engine.memory.layout is TableLayout.HASH


def test_missing_training_input_warns_on_every_fallback(dfa):
    for cls in (SpecSequentialScheme, SREScheme):
        with pytest.warns(MissingTrainingInputWarning, match=cls.__name__):
            cls.for_dfa(dfa, n_threads=4)


def test_explicit_opt_out_is_silent(dfa):
    with warnings.catch_warnings():
        warnings.simplefilter("error", MissingTrainingInputWarning)
        SpecSequentialScheme.for_dfa(dfa, n_threads=4, use_transformation=False)


def test_training_input_is_silent_and_transforms(dfa):
    training = bytes(np.random.default_rng(1).integers(0, 8, size=64).astype(np.uint8))
    with warnings.catch_warnings():
        warnings.simplefilter("error", MissingTrainingInputWarning)
        scheme = SpecSequentialScheme.for_dfa(
            dfa, n_threads=4, training_input=training
        )
    assert scheme.sim.use_transformation
    if scheme.sim.engine.accounts_cycles:
        assert scheme.sim.engine.memory.layout is TableLayout.RANK


def test_for_dfa_threads_backend_through(dfa):
    with pytest.warns(MissingTrainingInputWarning):
        fast = SpecSequentialScheme.for_dfa(dfa, n_threads=4, backend="fast")
        sim = SpecSequentialScheme.for_dfa(dfa, n_threads=4, backend="sim")
    assert fast.engine.name == "fast"
    assert sim.engine.name == "sim"
