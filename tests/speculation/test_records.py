"""VRStore (verification-record hierarchy) tests."""

import numpy as np
import pytest

from repro.gpu.device import RTX3090
from repro.gpu.stats import KernelStats
from repro.speculation.records import VRStore
from repro.errors import SchemeError


@pytest.fixture()
def vr():
    return VRStore(n_chunks=4, own_capacity=2, others_capacity=2)


def test_add_and_lookup(vr):
    assert vr.add(0, start=3, end=5, own=True)
    assert vr.lookup(0, 3) == 5
    assert vr.lookup(0, 4) is None
    assert vr.lookup(1, 3) is None


def test_duplicate_start_is_noop(vr):
    vr.add(0, 3, 5, own=True)
    assert vr.add(0, 3, 5, own=False)  # reported stored, nothing added
    assert vr.count(0) == 1


def test_own_capacity_enforced(vr):
    assert vr.add(0, 1, 1, own=True)
    assert vr.add(0, 2, 2, own=True)
    assert not vr.add(0, 3, 3, own=True)
    assert vr.dropped_records == 1
    assert vr.lookup(0, 3) is None


def test_others_capacity_independent(vr):
    vr.add(0, 1, 1, own=True)
    vr.add(0, 2, 2, own=True)
    assert vr.add(0, 3, 3, own=False)  # own full, others has room
    assert vr.add(0, 4, 4, own=False)
    assert not vr.add(0, 5, 5, own=False)


def test_others_full(vr):
    assert not vr.others_full(0)
    vr.add(0, 1, 1, own=False)
    vr.add(0, 2, 2, own=False)
    assert vr.others_full(0)
    assert not vr.others_full(1)


def test_foreign_records_stage_through_shared(vr):
    vr.add(0, 1, 1, own=False)
    assert vr.stores_to_shared == 1
    assert vr.loads_from_shared == 1
    vr.add(0, 2, 2, own=True)
    assert vr.stores_to_shared == 1  # own records stay in registers


def test_charge_shared_traffic_resets(vr):
    vr.add(0, 1, 1, own=False)
    stats = KernelStats(device=RTX3090, n_threads=4)
    vr.charge_shared_traffic(stats, "p")
    assert stats.cycles == 2 * RTX3090.shared_cycles
    assert stats.shared_accesses == 2
    vr.charge_shared_traffic(stats, "p")
    assert stats.cycles == 2 * RTX3090.shared_cycles  # nothing new


def test_charge_check(vr):
    vr.add(1, 1, 1, own=True)
    vr.add(1, 2, 2, own=True)
    stats = KernelStats(device=RTX3090, n_threads=4)
    vr.charge_check(stats, 1, "p")
    assert stats.verify_ops == 2
    assert stats.cycles == 2 * RTX3090.verify_cycles


def test_holds_and_others_room_are_vectorized_reads(vr):
    vr.add(2, 5, 6, own=True)
    vr.add(2, 7, 8, own=False)
    vr.add(3, 1, 1, own=False)
    vr.add(3, 2, 2, own=False)
    assert vr.holds(np.array([2, 2, 2, 0]), np.array([5, 7, 6, 5])).tolist() == [
        True,
        True,
        False,
        False,
    ]
    assert vr.others_room(np.arange(4)).tolist() == [
        not vr.others_full(c) for c in range(4)
    ]


def test_starts_tried(vr):
    """The starts a chunk holds records for are exactly those stored — a
    start whose record capacity dropped is not among them."""
    vr.add(2, 5, 6, own=True)
    vr.add(2, 7, 8, own=False)
    vr.add(2, 1, 1, own=True)
    assert not vr.add(2, 3, 3, own=True)  # own registers full: dropped
    states = np.arange(10)
    tried = np.flatnonzero(vr.holds(np.full(10, 2), states)).tolist()
    assert tried == [1, 5, 7]
    assert tried == [s for s in states.tolist() if vr.lookup(2, s) is not None]


def test_invalid_configs():
    with pytest.raises(SchemeError):
        VRStore(n_chunks=0)
    with pytest.raises(SchemeError):
        VRStore(n_chunks=1, own_capacity=0)
    with pytest.raises(SchemeError):
        VRStore(n_chunks=1, others_capacity=-1)


def test_zero_others_capacity_drops_everything():
    vr = VRStore(n_chunks=2, others_capacity=0)
    assert not vr.add(0, 1, 1, own=False)
    assert vr.dropped_records == 1
