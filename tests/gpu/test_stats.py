"""KernelStats ledger tests."""

import pytest

from repro.gpu.device import RTX3090
from repro.gpu.stats import KernelStats
from repro.errors import SimulationError


@pytest.fixture()
def stats():
    return KernelStats(device=RTX3090, n_threads=64)


def test_charge_accumulates(stats):
    stats.charge("a", 100)
    stats.charge("a", 50)
    stats.charge("b", 25)
    assert stats.cycles == 175
    assert stats.phase_cycles == {"a": 150, "b": 25}


def test_negative_charge_rejected(stats):
    with pytest.raises(SimulationError):
        stats.charge("a", -1)


def test_sync_charge(stats):
    stats.charge_sync("p", count=3)
    assert stats.sync_ops == 3
    assert stats.cycles == 3 * RTX3090.sync_cycles


def test_comm_charge_parallel_time(stats):
    stats.charge_comm("p", count=100)
    assert stats.comm_ops == 100
    # Parallel forwards: one latency regardless of count.
    assert stats.cycles == RTX3090.comm_cycles
    stats.charge_comm("p", count=0)
    assert stats.cycles == RTX3090.comm_cycles  # zero count charges nothing


def test_verify_charge(stats):
    stats.charge_verify("p", checks_per_thread=4, total_checks=64)
    assert stats.verify_ops == 64
    assert stats.cycles == 4 * RTX3090.verify_cycles


def test_recovery_round_tracking(stats):
    stats.record_recovery_round(10)
    stats.record_recovery_round(30)
    assert stats.recovery_rounds == 2
    assert stats.avg_active_threads == 20.0


def test_avg_active_threads_empty(stats):
    assert stats.avg_active_threads == 0.0


def test_speculation_accuracy(stats):
    stats.matches = 9
    stats.mismatches = 1
    assert stats.runtime_speculation_accuracy == pytest.approx(0.9)


def test_speculation_accuracy_no_checks(stats):
    assert stats.runtime_speculation_accuracy == 1.0


def test_hot_access_fraction(stats):
    stats.shared_accesses = 30
    stats.global_accesses = 10
    assert stats.hot_access_fraction == pytest.approx(0.75)
    assert stats.total_memory_accesses == 40


def test_redundancy_ratio(stats):
    stats.transitions = 100
    stats.redundant_transitions = 25
    assert stats.redundancy_ratio == pytest.approx(0.25)


def test_time_ms(stats):
    stats.charge("x", RTX3090.clock_ghz * 1e6)
    assert stats.time_ms == pytest.approx(1.0)


def test_summary_keys(stats):
    stats.charge("x", 10)
    summary = stats.summary()
    for key in (
        "cycles",
        "time_ms",
        "transitions",
        "recovery_rounds",
        "avg_active_threads",
        "speculation_accuracy",
    ):
        assert key in summary
