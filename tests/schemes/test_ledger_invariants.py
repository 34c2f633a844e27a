"""Cost-ledger invariants, parametrized over every scheme.

The ledger is the reproduction's measurement instrument; these tests pin its
bookkeeping: phases sum to totals, access counts match transition counts,
recovery accounting is internally consistent, and the baseline orderings
that must hold by construction do hold.
"""

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
from repro.workloads.components import counter_component
from repro.automata.dfa import DFA

ALL = [
    SequentialScheme,
    SpecSequentialScheme,
    PMScheme,
    SREScheme,
    RRScheme,
    NFScheme,
    SFAScheme,
]


@pytest.fixture(scope="module")
def case():
    comp = counter_component(8, n_symbols=64, sync_symbols=(5,), seed=12)
    dfa = DFA(table=comp.table, start=0, accepting=frozenset({0}), name="ledger")
    rng = np.random.default_rng(21)
    data = bytes(rng.integers(0, 64, size=1600).astype(np.uint8))
    training = bytes(rng.integers(0, 64, size=400).astype(np.uint8))
    return dfa, data, training


@pytest.fixture(scope="module")
def results(case):
    dfa, data, training = case
    out = {}
    for cls in ALL:
        # Ledger invariants are sim-backend properties by definition.
        scheme = cls.for_dfa(dfa, n_threads=16, training_input=training, backend="sim")
        out[cls] = scheme.run(data)
    return out


@pytest.mark.parametrize("cls", ALL)
class TestLedger:
    def test_phase_cycles_sum_to_total(self, results, cls):
        stats = results[cls].stats
        assert sum(stats.phase_cycles.values()) == pytest.approx(stats.cycles)

    def test_memory_accesses_equal_transitions(self, results, cls):
        stats = results[cls].stats
        assert stats.shared_accesses + stats.global_accesses >= stats.transitions
        # (>= because VR staging also goes through shared memory)

    def test_warp_steps_bound_their_divergence(self, results, cls):
        """Every sim run steps warps; a divergent warp step is one of them."""
        stats = results[cls].stats
        assert 0 <= stats.divergent_warp_steps <= stats.warp_steps
        assert stats.warp_steps > 0

    def test_launch_charged_once(self, results, cls):
        stats = results[cls].stats
        assert stats.phase_cycles.get("launch", 0) > 0

    def test_recovery_accounting_consistent(self, results, cls):
        stats = results[cls].stats
        assert len(stats.active_thread_samples) == stats.recovery_rounds
        if stats.recovery_rounds == 0:
            assert stats.recoveries_executed == 0
            assert stats.recovery_exec_cycles == 0.0
        assert stats.recovery_exec_cycles <= stats.cycles + 1e-9

    def test_accuracy_in_unit_interval(self, results, cls):
        acc = results[cls].stats.runtime_speculation_accuracy
        assert 0.0 <= acc <= 1.0

    def test_redundant_bounded_by_total(self, results, cls):
        stats = results[cls].stats
        assert 0 <= stats.redundant_transitions <= stats.transitions

    def test_chunk_ends_chain_is_consistent(self, results, case, cls):
        """The verified per-chunk ends must chain to the final state."""
        dfa, data, _ = case
        result = results[cls]
        if result.chunk_ends is None:
            pytest.skip("scheme does not expose chunk ends")
        assert int(result.chunk_ends[-1]) == result.end_state
        # And the chain must equal the true per-chunk ends (the sequential
        # scheme materializes a single chunk regardless of n_threads).
        from repro.speculation.chunks import partition_input

        p = partition_input(data, len(result.chunk_ends))
        state = dfa.start
        for i in range(p.n_chunks):
            state = dfa.run(p.chunk(i), start=state)
            assert int(result.chunk_ends[i]) == state, (cls.__name__, i)


def test_useful_work_identical_across_schemes(results):
    """Total minus redundant transitions ≈ the stream's length × 1 path —
    every scheme ultimately performs the same useful work."""
    baseline = None
    for cls, result in results.items():
        useful = result.stats.transitions - result.stats.redundant_transitions
        if cls is SequentialScheme:
            baseline = useful
    assert baseline == 1600  # one transition per input symbol
