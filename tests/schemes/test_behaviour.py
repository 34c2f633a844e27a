"""Behavioural tests: the *cost-model* properties that make each scheme what
it is (thread activity, recovery rounds, redundancy, phase structure)."""

import numpy as np
import pytest

from repro.schemes import (
    NFScheme,
    PMScheme,
    RRScheme,
    SequentialScheme,
    SFAScheme,
    SpecSequentialScheme,
    SREScheme,
)
from repro.automata.dfa import DFA
from repro.gpu.kernel import KernelPhase
from repro.speculation.records import VRStore
from repro.workloads import classic


def _random_counter_dfa(r: int, n_symbols: int, seed: int) -> DFA:
    """A permutation counter with random per-symbol weights: never converges
    and its boundary states are genuinely input-dependent."""
    from repro.workloads.components import counter_component

    comp = counter_component(r, n_symbols=n_symbols, seed=seed)
    return DFA(table=comp.table, start=0, accepting=frozenset({0}), name=f"ctr{r}")


@pytest.fixture(scope="module")
def hard_case(scanner_dfa=None):
    """A non-converging FSM and stream: recovery is mandatory everywhere."""
    rot = classic.cyclic_rotator(6, n_symbols=64)
    rng = np.random.default_rng(7)
    data = bytes(rng.integers(0, 64, size=800).astype(np.uint8))
    training = bytes(rng.integers(0, 64, size=200).astype(np.uint8))
    return rot, data, training


@pytest.fixture(scope="module")
def easy_case():
    """A fast-converging scanner: speculation is nearly always right."""
    d = classic.keyword_scanner(b"needle")
    rng = np.random.default_rng(8)
    data = bytes(rng.integers(97, 123, size=800).astype(np.uint8))
    training = bytes(rng.integers(97, 123, size=200).astype(np.uint8))
    return d, data, training


def run(cls, case, n_threads=16, **kw):
    dfa, data, training = case
    # Cost-model behaviour is what these tests pin down, so they always use
    # the cycle-accounting backend regardless of REPRO_BACKEND.
    kw.setdefault("backend", "sim")
    return cls.for_dfa(dfa, n_threads=n_threads, training_input=training, **kw).run(data)


class TestSequentialBaseline:
    def test_sequential_has_no_recovery(self, easy_case):
        r = run(SequentialScheme, easy_case)
        assert r.stats.recovery_rounds == 0
        assert r.stats.transitions == 800

    def test_parallel_faster_than_sequential_easy(self, easy_case):
        seq = run(SequentialScheme, easy_case)
        sre = run(SREScheme, easy_case)
        assert sre.cycles < seq.cycles


class TestSpecSeq:
    def test_hard_case_recovers_most_chunks(self, hard_case):
        r = run(SpecSequentialScheme, hard_case)
        # Rotation FSM: speculation is mostly wrong (ties can luck out when
        # every chunk applies the same shift); recovery is one-thread-deep.
        assert r.stats.recovery_rounds >= 8
        assert r.stats.avg_active_threads == 1.0

    def test_easy_case_rarely_recovers(self, easy_case):
        r = run(SpecSequentialScheme, easy_case)
        assert r.stats.runtime_speculation_accuracy > 0.9


class TestPM:
    def test_spec_k_transitions_scale(self, easy_case):
        r1 = run(PMScheme, easy_case, k=1)
        r4 = run(PMScheme, easy_case, k=4)
        # spec-k executes ~k paths; the keyword scanner's queue usually has
        # few candidates so growth is sub-linear but strictly positive.
        assert r4.stats.transitions > r1.stats.transitions

    def test_redundant_work_counted(self, hard_case):
        r = run(PMScheme, hard_case, k=4)
        assert r.stats.redundant_transitions > 0

    def test_sequential_recovery_one_thread(self, hard_case):
        r = run(PMScheme, hard_case)
        assert r.stats.recovery_rounds > 0
        assert r.stats.avg_active_threads == 1.0


class TestMustBeDoneRecovery:
    """``Scheme._recover_chunk``, the one sequential recovery step spec-seq
    and PM's stage 2 share."""

    @staticmethod
    def _recover(case, backend, chunk=3, start=2):
        dfa, data, training = case
        scheme = SpecSequentialScheme.for_dfa(
            dfa, n_threads=8, training_input=training, backend=backend
        )
        partition = scheme._partition(np.frombuffer(data, dtype=np.uint8))
        stats = scheme.sim.new_stats(n_threads=8)
        vr = VRStore(n_chunks=partition.n_chunks)
        end = scheme._recover_chunk(partition, chunk, start, stats, vr)
        expected = scheme.sim.dfa.run(partition.chunk(chunk), start=start)
        return end, expected, stats, vr

    def test_recover_chunk_is_one_single_thread_round(self, hard_case):
        _, _, stats, _ = self._recover(hard_case, "sim")
        assert stats.recovery_rounds == 1
        assert stats.active_thread_samples == [1]
        assert stats.recoveries_executed == 1
        recovery = stats.phase_cycles[KernelPhase.VERIFY_RECOVER]
        assert recovery > 0
        assert stats.recovery_exec_cycles == recovery

    @pytest.mark.parametrize("backend", ["sim", "fast"])
    def test_recover_chunk_records_the_true_end_as_own(self, hard_case, backend):
        end, expected, _, vr = self._recover(hard_case, backend)
        assert end == expected
        assert vr.lookup(3, 2) == end
        assert vr.count(3) == 1 and vr._own[3, 0]


class TestSRE:
    def test_frontier_rounds_bounded_by_chunks(self, hard_case):
        r = run(SREScheme, hard_case)
        assert r.stats.recovery_rounds <= 16

    def test_easy_case_high_accuracy(self, easy_case):
        r = run(SREScheme, easy_case)
        assert r.stats.runtime_speculation_accuracy > 0.9


class TestAggressive:
    def test_rr_activates_more_threads_than_sre(self, hard_case):
        sre = run(SREScheme, hard_case)
        rr = run(RRScheme, hard_case)
        assert rr.stats.avg_active_threads >= sre.stats.avg_active_threads

    def test_nf_activates_at_least_rr(self, hard_case):
        rr = run(RRScheme, hard_case)
        nf = run(NFScheme, hard_case)
        assert nf.stats.avg_active_threads >= 0.5 * rr.stats.avg_active_threads

    def test_aggressive_boost_accuracy_on_random_counter(self):
        """Truth is always within the counter's queue: enumeration by idle
        threads must lift the frontier match rate far above SRE's."""
        dfa = _random_counter_dfa(r=8, n_symbols=64, seed=5)
        rng = np.random.default_rng(9)
        data = bytes(rng.integers(0, 64, size=3200).astype(np.uint8))
        training = bytes(rng.integers(0, 64, size=400).astype(np.uint8))
        case = (dfa, data, training)
        sre = run(SREScheme, case, n_threads=64)
        rr = run(RRScheme, case, n_threads=64)
        assert rr.stats.runtime_speculation_accuracy \
            > sre.stats.runtime_speculation_accuracy + 0.2

    def test_rr_beats_pm_on_hard_fsm(self):
        dfa = _random_counter_dfa(r=10, n_symbols=64, seed=6)
        rng = np.random.default_rng(10)
        data = bytes(rng.integers(0, 64, size=6400).astype(np.uint8))
        training = bytes(rng.integers(0, 64, size=400).astype(np.uint8))
        case = (dfa, data, training)
        pm = run(PMScheme, case, n_threads=64)
        rr = run(RRScheme, case, n_threads=64)
        nf = run(NFScheme, case, n_threads=64)
        assert rr.cycles < pm.cycles
        assert nf.cycles < pm.cycles

    def test_pm_does_no_recovery_on_easy_fsm(self, easy_case):
        """When speculation covers the truth, PM's delayed recovery never
        has to fire (Fig. 8's Snort1-2 shape)."""
        pm = run(PMScheme, easy_case)
        assert pm.stats.recovery_rounds == 0
        assert pm.stats.runtime_speculation_accuracy == 1.0


class TestEnumerative:
    """SFA enumerates every start state per distinct chunk."""

    def test_redundancy_is_state_count_minus_one(self, hard_case):
        dfa, data, training = hard_case
        r = run(SFAScheme, hard_case)
        assert r.stats.redundant_transitions == (dfa.n_states - 1) * len(data)

    def test_no_recovery_ever(self, hard_case):
        r = run(SFAScheme, hard_case)
        assert r.stats.recovery_rounds == 0


class TestPhaseStructure:
    def test_phases_present(self, hard_case):
        r = run(RRScheme, hard_case)
        for phase in ("launch", "predict", "speculative_execution", "verify_recover"):
            assert phase in r.stats.phase_cycles, phase

    def test_phase_cycles_sum_to_total(self, hard_case):
        r = run(NFScheme, hard_case)
        assert sum(r.stats.phase_cycles.values()) == pytest.approx(r.cycles)


#: Ledger fields the table layout cannot move: the frequency
#: transformation decides where a row lives, never what runs.
LAYOUT_FREE_FIELDS = (
    "transitions",
    "redundant_transitions",
    "comm_ops",
    "verify_ops",
    "sync_ops",
    "recovery_rounds",
    "recoveries_executed",
    "active_thread_samples",
    "matches",
    "mismatches",
    "warp_steps",
)


@pytest.mark.parametrize(
    "cls", [PMScheme, SREScheme, RRScheme, NFScheme, SFAScheme, SpecSequentialScheme]
)
def test_table_layout_moves_only_memory_costs(cls):
    """With the renumbering on or off, a scheme predicts the same queues
    (frequency ties break by the submitted state id either way), schedules
    the same recoveries and answers the same; only memory costs differ."""
    rng = np.random.default_rng(11)
    # A random table over few symbols converges partway: ties in the
    # queues, mispredictions and recoveries.
    dfa = DFA(table=rng.integers(0, 23, size=(23, 5)), start=0, accepting={1})
    data = bytes(rng.integers(0, 5, size=700).astype(np.uint8))
    training = bytes(rng.integers(0, 5, size=300).astype(np.uint8))
    on, off = (
        cls.for_dfa(
            dfa,
            n_threads=24,
            training_input=training,
            use_transformation=flag,
            backend="sim",
        ).run(data)
        for flag in (True, False)
    )
    assert on.end_state == off.end_state == dfa.run(data)
    assert on.chunk_ends.tolist() == off.chunk_ends.tolist()
    assert on.stats.mismatches > 0 or cls is SFAScheme
    for field in LAYOUT_FREE_FIELDS:
        assert getattr(on.stats, field) == getattr(off.stats, field), field

