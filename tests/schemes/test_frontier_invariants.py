"""White-box invariants of the frontier verification/recovery loop.

These are the correctness core of Algorithms 3-5: once the frontier passes
chunk ``f``, chunk ``f``'s end state is final and *true*, regardless of
which policy scheduled which recoveries.  Each round is read from its
``verify_recover.round`` span; the verified prefix is checked every round
by the ``frontier_oracle`` selfcheck audit.
"""

import numpy as np
import pytest

from repro.automata.dfa import DFA
from repro.errors import SelfCheckError
from repro.observability import Tracer
from repro.schemes import NFScheme, RRScheme, SREScheme
from repro.speculation.chunks import partition_input
from repro.speculation.records import VRStore
from repro.workloads.components import counter_component

POLICY_SCHEMES = (SREScheme, RRScheme, NFScheme)


@pytest.fixture(scope="module")
def case():
    comp = counter_component(7, n_symbols=32, seed=17)
    dfa = DFA(table=comp.table, start=0, accepting=frozenset({0}), name="inv")
    rng = np.random.default_rng(30)
    data = bytes(rng.integers(0, 32, size=960).astype(np.uint8))
    training = bytes(rng.integers(0, 32, size=240).astype(np.uint8))
    return dfa, data, training


def audited_scheme(cls, case, n_threads=12):
    dfa, _, training = case
    tracer = Tracer()
    scheme = cls.for_dfa(
        dfa, n_threads=n_threads, training_input=training, tracer=tracer,
        use_transformation=False,  # exec space == user space for assertions
    )
    scheme.selfcheck = True
    return scheme, tracer


def true_chunk_ends(dfa, data, n_chunks):
    p = partition_input(data, n_chunks)
    ends = np.empty(n_chunks, dtype=np.int64)
    state = dfa.start
    for i in range(n_chunks):
        state = dfa.run(p.chunk(i), start=state)
        ends[i] = state
    return ends


def traced_rounds(cls, case, n_threads=12):
    scheme, tracer = audited_scheme(cls, case, n_threads)
    scheme.run(case[1])
    return [span.attrs for span in tracer.find_all("verify_recover.round")]


@pytest.mark.parametrize("cls", POLICY_SCHEMES)
class TestFrontierInvariants:
    def test_one_round_per_chunk(self, case, cls):
        rounds = traced_rounds(cls, case)
        assert [r["frontier"] for r in rounds] == list(range(12))

    def test_verified_prefix_is_true_and_final(self, case, cls):
        """After round f, end_c[0..f] equals the ground truth — and never
        changes again in any later round.  The audited run checks exactly
        this every round, so a clean run is the proof."""
        dfa, data, _ = case
        scheme, _ = audited_scheme(cls, case)
        assert scheme.run(data).end_state == dfa.run(data)

    def test_flipped_verified_chunk_end_is_caught(self, case, cls):
        """Corrupt chunk 1's end during round 3 — two rounds after it was
        verified.  The frontier chunk (3) is still right; the audit names
        the round and the chunk that changed."""
        dfa, data, _ = case
        scheme, tracer = audited_scheme(cls, case)
        wrong = (true_chunk_ends(dfa, data, 12)[1] + 1) % dfa.n_states
        orig_scan = VRStore.scan
        recover = scheme._execute_recoveries

        def frontier():
            return tracer.find_all("verify_recover.round")[-1].attrs["frontier"]

        def touching_chunk_1(assignments, partition, end_c, vr, stats, f):
            # A round rescans a verified chunk only when a recovery touched
            # it: have round 2's batch report chunk 1, so round 3 rescans it.
            recovered, touched = recover(assignments, partition, end_c, vr, stats, f)
            return recovered, np.append(touched, 1) if f == 2 else touched

        def flipping_scan(self, chunks, starts):
            found, hit = orig_scan(self, chunks, starts)
            if frontier() == 3:
                found, hit = found.copy(), hit.copy()
                found[chunks == 1], hit[chunks == 1] = True, wrong
            return found, hit

        scheme._execute_recoveries = touching_chunk_1
        VRStore.scan = flipping_scan
        try:
            with pytest.raises(SelfCheckError) as exc:
                scheme.run(case[1])
        finally:
            VRStore.scan = orig_scan
        assert exc.value.invariant == "frontier_oracle"
        assert exc.value.frontier == 3
        assert exc.value.lanes == [1]

    def test_matched_rounds_schedule_nothing(self, case, cls):
        for r in traced_rounds(cls, case):
            if r["matched"]:
                assert r["active_threads"] == 0

    def test_mismatch_rounds_include_frontier_recovery(self, case, cls):
        """Every mismatched round must activate at least the frontier's
        must-be-done recovery (otherwise correctness would be luck)."""
        for r in traced_rounds(cls, case):
            if not r["matched"]:
                assert r["active_threads"] >= 1
