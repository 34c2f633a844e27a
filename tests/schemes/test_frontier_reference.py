"""The event-driven frontier loop against the full-width loop it replaced.

``frontier_reference.reference_execute`` rescans every chunk every round;
``FrontierLoopScheme._execute`` rescans only the chunks whose forwarded
state or records changed.  On converging, non-converging (rotator) and
counter DFAs, with register budgets down to one own and no foreign slot,
both must give the same answer, chunk ends, ledger (every ``KernelStats``
field, ``phase_cycles`` and ``active_thread_samples`` exactly), prediction
cursors, ``VRStore`` contents and counters, and span tree with cycle
stamps — on either backend, at 1 to 64 threads.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import DFA
from repro.observability import Tracer
from repro.schemes import NFScheme, RRScheme, SREScheme
from repro.schemes.recovery_common import FrontierLoopScheme
from repro.workloads import classic
from repro.workloads.components import counter_component
from tests.schemes.frontier_reference import reference_execute
from tests.schemes.test_span_golden import _tree

N_SYMBOLS = 16


def _dfa(kind, n_states, seed):
    if kind == "rotator":
        return classic.cyclic_rotator(n_states, n_symbols=N_SYMBOLS)
    if kind == "counter":
        comp = counter_component(n_states, n_symbols=N_SYMBOLS, seed=seed)
        return DFA(table=comp.table, start=0, accepting=frozenset({0}), name="ctr")
    rng = np.random.default_rng(seed)
    table = rng.integers(0, n_states, size=(n_states, N_SYMBOLS))
    # A few sink-like columns make runs converge.
    table[:, rng.integers(0, N_SYMBOLS, size=3)] = rng.integers(0, n_states, size=3)
    return DFA(table=table, start=0, accepting=frozenset({0}), name="conv")


@st.composite
def runs(draw):
    n_threads = draw(st.sampled_from([1, 2, 7, 8, 9, 12, 64]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    length = n_threads * draw(st.integers(min_value=1, max_value=12)) + draw(
        st.integers(min_value=0, max_value=n_threads - 1)
    )
    return dict(
        cls=draw(st.sampled_from([SREScheme, RRScheme, NFScheme])),
        backend=draw(st.sampled_from(["sim", "fast"])),
        n_threads=n_threads,
        dfa=_dfa(
            draw(st.sampled_from(["converging", "rotator", "counter"])),
            draw(st.integers(min_value=2, max_value=24)),
            seed,
        ),
        own_capacity=draw(st.integers(min_value=1, max_value=4)),
        others_capacity=draw(st.integers(min_value=0, max_value=4)),
        training=bytes(rng.integers(0, N_SYMBOLS, size=64).astype(np.uint8)),
        data=bytes(rng.integers(0, N_SYMBOLS, size=length).astype(np.uint8)),
    )


def _run(case):
    """Run ``case``; return the result, the run's prediction and store, and
    its span tree."""
    tracer = Tracer()
    scheme = case["cls"].for_dfa(
        case["dfa"],
        n_threads=case["n_threads"],
        training_input=case["training"],
        backend=case["backend"],
        own_capacity=case["own_capacity"],
        others_capacity=case["others_capacity"],
        tracer=tracer,
    )
    seen = {}
    speculate = scheme._speculative_execution

    def spy(partition, prediction, stats, vr):
        seen.update(prediction=prediction, vr=vr)
        return speculate(partition, prediction, stats, vr)

    scheme._speculative_execution = spy
    result = scheme.run(case["data"])
    (root,) = tracer.roots
    return result, seen["prediction"], seen["vr"], list(_tree(root))


@settings(max_examples=150, deadline=None)
@given(case=runs())
def test_event_driven_loop_equals_full_width_loop(case):
    result, prediction, vr, spans = _run(case)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FrontierLoopScheme, "_execute", reference_execute)
        ref, ref_prediction, ref_vr, ref_spans = _run(case)
    assert result.end_state == ref.end_state
    np.testing.assert_array_equal(result.chunk_ends, ref.chunk_ends)
    for field in dataclasses.fields(result.stats):
        name = field.name
        assert getattr(result.stats, name) == getattr(ref.stats, name), name
    np.testing.assert_array_equal(prediction.cursors, ref_prediction.cursors)
    for name in ("_start", "_end", "_own", "_n_own", "_n_others"):
        np.testing.assert_array_equal(getattr(vr, name), getattr(ref_vr, name), name)
    for name in ("dropped_records", "stores_to_shared", "loads_from_shared"):
        assert getattr(vr, name) == getattr(ref_vr, name), name
    assert spans == ref_spans
