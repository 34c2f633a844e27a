"""VRStore (verification-record hierarchy) tests."""

import numpy as np
import pytest

from repro.gpu.device import RTX3090
from repro.gpu.stats import KernelStats
from repro.speculation.records import EMPTY, VRStore
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


def test_rows_read_starts_and_fill(vr):
    vr.add(1, 4, 4, own=True)
    vr.add(2, 5, 6, own=True)
    vr.add(2, 7, 8, own=False)
    vr.add(3, 1, 1, own=False)
    vr.add(3, 2, 2, own=False)
    starts, counts, n_others = vr.rows(1, 4)
    assert starts == [[4, EMPTY], [5, 7], [1, 2]]
    assert counts == [vr.count(c) for c in range(1, 4)] == [1, 2, 2]
    assert n_others == [0, 1, 2]
    assert vr.rows(0, 1) == ([[]], [0], [0])
    assert vr.rows(2, 2) == ([], [], [])


@pytest.mark.parametrize(
    "first, stop", [(0, 32), (5, 6), (20, 32), (9, 9)],
    ids=["all", "one", "tail", "empty"],
)
def test_rows_agree_with_per_chunk_reads(first, stop):
    """On a randomly filled store, ``rows`` says what ``count``,
    ``others_full`` and ``lookup`` say chunk by chunk."""
    rng = np.random.default_rng(first * 100 + stop)
    store = VRStore(n_chunks=32, own_capacity=3, others_capacity=4)
    for _ in range(200):
        store.add(int(rng.integers(32)), int(rng.integers(12)), 0,
                  own=bool(rng.random() < 0.4))
    starts, counts, n_others = store.rows(first, stop)
    chunks = range(first, stop)
    assert counts == [store.count(c) for c in chunks]
    assert [k >= 4 for k in n_others] == [store.others_full(c) for c in chunks]
    assert all(len(row) == max(counts, default=0) for row in starts)
    for c, row in zip(chunks, starts):
        held = {s for s in range(12) if store.lookup(c, s) is not None}
        assert {s for s in row if s != EMPTY} == held
        assert len(held) == store.count(c)


def test_starts_tried(vr):
    """The starts a chunk holds records for are exactly those stored — a
    start whose record capacity dropped is not among them."""
    vr.add(2, 5, 6, own=True)
    vr.add(2, 7, 8, own=False)
    vr.add(2, 1, 1, own=True)
    assert not vr.add(2, 3, 3, own=True)  # own registers full: dropped
    (row,), _, _ = vr.rows(2, 3)
    tried = [s for s in range(10) if s in row]
    assert tried == [1, 5, 7]
    assert tried == [s for s in range(10) if vr.lookup(2, s) is not None]


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
