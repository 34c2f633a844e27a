"""Unit tests for the recovery scheduling policies (Algorithms 3-5's
scheduling decisions), exercised on hand-crafted round contexts."""

import numpy as np

from repro.schemes.nf import NFScheme
from repro.schemes.rr import RRScheme
from repro.schemes.sre import SREScheme
from repro.schemes.recovery_common import RoundContext
from repro.speculation.chunks import partition_input
from repro.speculation.predictor import Prediction
from repro.speculation.records import VRStore


def make_ctx(
    n=8,
    frontier=3,
    found=None,
    stable=None,
    queue_states=(5, 6, 7, 8),
    others_capacity=16,
):
    partition = partition_input(np.arange(n * 4, dtype=np.uint8) % 16, n)
    size = len(queue_states)
    prediction = Prediction.from_arrays(
        np.tile(np.asarray(queue_states, dtype=np.int64), n),
        np.tile(np.arange(size, 0, -1), n),
        np.arange(n + 1) * size,
    )
    vr = VRStore(n_chunks=n, others_capacity=others_capacity)
    end_p = np.arange(n) + 100
    if found is None:
        found = np.zeros(n, dtype=bool)
    if stable is None:
        stable = np.ones(n, dtype=bool)
    return RoundContext(
        frontier=frontier,
        end_p=end_p,
        found=np.asarray(found),
        stable=np.asarray(stable),
        partition=partition,
        prediction=prediction,
        vr=vr,
    )


class TestSREPolicy:
    def test_frontier_always_recovers(self):
        ctx = make_ctx(stable=np.zeros(8, dtype=bool))
        tasks = SREScheme.schedule(ctx)
        assert (3, 3, 103) in tasks  # frontier thread from its end_p

    def test_rear_threads_recover_own_chunk_when_stable(self):
        ctx = make_ctx()
        tasks = SREScheme.schedule(ctx)
        assert all(t == cid for t, cid, _ in tasks)
        assert {t for t, _, _ in tasks} == {3, 4, 5, 6, 7}

    def test_found_threads_stay_idle(self):
        found = np.zeros(8, dtype=bool)
        found[5] = True
        ctx = make_ctx(found=found)
        tasks = SREScheme.schedule(ctx)
        assert 5 not in {t for t, _, _ in tasks}

    def test_unstable_non_frontier_waits(self):
        stable = np.ones(8, dtype=bool)
        stable[6] = False
        ctx = make_ctx(stable=stable)
        tasks = SREScheme.schedule(ctx)
        assert 6 not in {t for t, _, _ in tasks}

    def test_never_schedules_foreign_chunks(self):
        ctx = make_ctx(frontier=5)
        tasks = SREScheme.schedule(ctx)
        assert all(t == cid for t, cid, _ in tasks)
        assert all(t >= 5 for t, _, _ in tasks)


class TestRRPolicy:
    def test_non_rear_round_robin_assignment(self):
        ctx = make_ctx(frontier=3)
        tasks = RRScheme.schedule(ctx)
        non_rear = [(t, cid) for t, cid, _ in tasks if t < 3]
        # Threads 0..2 spread over chunks 4..7 round-robin.
        assert [cid for _, cid in non_rear] == [4, 5, 6]

    def test_non_rear_dequeue_front_candidates(self):
        ctx = make_ctx(frontier=3)
        tasks = RRScheme.schedule(ctx)
        starts = {cid: st for t, cid, st in tasks if t < 3}
        assert starts == {4: 5, 5: 5, 6: 5}  # each chunk's queue front

    def test_skips_already_tried_candidates(self):
        ctx = make_ctx(frontier=3)
        ctx.vr.add(4, 5, 99, own=False)  # front candidate already executed
        tasks = RRScheme.schedule(ctx)
        starts = {cid: st for t, cid, st in tasks if t < 3}
        assert starts[4] == 6  # dequeued past the tried one

    def test_respects_others_capacity(self):
        ctx = make_ctx(frontier=3, others_capacity=0)
        tasks = RRScheme.schedule(ctx)
        assert all(t >= 3 for t, _, _ in tasks)  # no foreign recoveries

    def test_frontier_at_last_chunk_no_non_rear_work(self):
        ctx = make_ctx(frontier=7)
        tasks = RRScheme.schedule(ctx)
        assert all(cid == 7 for _, cid, _ in tasks)


class TestNFPolicy:
    def test_non_rear_drain_nearest_first(self):
        ctx = make_ctx(frontier=4)
        tasks = NFScheme.schedule(ctx)
        non_rear = [(t, cid, st) for t, cid, st in tasks if t < 4]
        # All four threads drain chunk 5's queue (4 candidates available).
        assert [cid for _, cid, _ in non_rear] == [5, 5, 5, 5]
        assert [st for _, _, st in non_rear] == [5, 6, 7, 8]

    def test_spills_to_next_chunk_when_queue_exhausted(self):
        ctx = make_ctx(frontier=4, queue_states=(5, 6))
        tasks = NFScheme.schedule(ctx)
        non_rear = [(cid, st) for t, cid, st in tasks if t < 4]
        assert non_rear == [(5, 5), (5, 6), (6, 5), (6, 6)]

    def test_capacity_aware_moves_on(self):
        ctx = make_ctx(frontier=4, others_capacity=1)
        tasks = NFScheme.schedule(ctx)
        non_rear = [cid for t, cid, _ in tasks if t < 4]
        # One foreign record per chunk: threads fan out instead of stacking.
        assert non_rear == [5, 6, 7]

    def test_all_queues_exhausted_threads_idle(self):
        ctx = make_ctx(frontier=4, queue_states=())
        tasks = NFScheme.schedule(ctx)
        assert all(t >= 4 for t, _, _ in tasks)

    def test_rear_behaviour_matches_sre(self):
        ctx = make_ctx(frontier=4)
        sre_rear = {x for x in SREScheme.schedule(make_ctx(frontier=4))}
        nf_rear = {x for x in NFScheme.schedule(ctx) if x[0] >= 4}
        assert sre_rear == nf_rear
