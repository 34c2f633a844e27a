"""White-box invariants of the frontier verification/recovery loop.

These are the correctness core of Algorithms 3-5: once the frontier passes
chunk ``f``, chunk ``f``'s end state is final and *true*, regardless of
which policy scheduled which recoveries.  Traced via ``keep_trace``.
"""

import numpy as np
import pytest

from repro.schemes import NFScheme, RRScheme, SREScheme
from repro.speculation.chunks import partition_input
from repro.workloads.components import counter_component
from repro.automata.dfa import DFA

POLICY_SCHEMES = (SREScheme, RRScheme, NFScheme)


@pytest.fixture(scope="module")
def case():
    comp = counter_component(7, n_symbols=32, seed=17)
    dfa = DFA(table=comp.table, start=0, accepting=frozenset({0}), name="inv")
    rng = np.random.default_rng(30)
    data = bytes(rng.integers(0, 32, size=960).astype(np.uint8))
    training = bytes(rng.integers(0, 32, size=240).astype(np.uint8))
    return dfa, data, training


def traced_run(cls, case, n_threads=12):
    dfa, data, training = case
    scheme = cls.for_dfa(
        dfa, n_threads=n_threads, training_input=training, keep_trace=True,
        use_transformation=False,  # exec space == user space for assertions
    )
    result = scheme.run(data)
    return scheme, result


def true_chunk_ends(dfa, data, n_chunks):
    p = partition_input(data, n_chunks)
    ends = np.empty(n_chunks, dtype=np.int64)
    state = dfa.start
    for i in range(n_chunks):
        state = dfa.run(p.chunk(i), start=state)
        ends[i] = state
    return ends


@pytest.mark.parametrize("cls", POLICY_SCHEMES)
class TestFrontierInvariants:
    def test_one_round_per_chunk(self, case, cls):
        scheme, result = traced_run(cls, case)
        assert len(scheme.last_trace) == 12
        assert [t.frontier for t in scheme.last_trace] == list(range(12))

    def test_verified_prefix_is_true_and_final(self, case, cls):
        """After round f, end_c[0..f] equals the ground truth — and never
        changes again in any later round."""
        dfa, data, _ = case
        scheme, result = traced_run(cls, case)
        truth = true_chunk_ends(dfa, data, 12)
        for trace in scheme.last_trace:
            f = trace.frontier
            assert np.array_equal(trace.end_c[: f + 1], truth[: f + 1]), f

    def test_matched_rounds_schedule_nothing(self, case, cls):
        scheme, _ = traced_run(cls, case)
        for trace in scheme.last_trace:
            if trace.matched:
                assert trace.active_threads == 0

    def test_mismatch_rounds_include_frontier_recovery(self, case, cls):
        """Every mismatched round must activate at least the frontier's
        must-be-done recovery (otherwise correctness would be luck)."""
        scheme, _ = traced_run(cls, case)
        for trace in scheme.last_trace:
            if not trace.matched:
                assert trace.active_threads >= 1

    def test_trace_disabled_by_default(self, case, cls):
        dfa, data, training = case
        scheme = cls.for_dfa(dfa, n_threads=12, training_input=training)
        scheme.run(data)
        assert scheme.last_trace == []
