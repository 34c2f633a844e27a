"""RR/NF whole-round scheduling against the per-thread loops it replaced.

``rr_loop`` and ``nf_loop`` are the former bodies of ``RRScheme.schedule``
and ``NFScheme.schedule``: one ``dequeue`` plus one ``VRStore.lookup`` per
candidate, thread by thread, with the queue read through the prediction's
CSR arrays (``_size`` / ``_dequeue`` are a queue's size and dequeue).  They stay here as the oracle — the array
schedules must return the same assignment list in the same order *and*
leave every queue cursor where the loops leave it (the cursors carry into
later rounds).  Both sides of ``ARRAY_SCHEDULE_THREADS`` are checked at
every size.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.schemes import recovery_common
from repro.schemes.nf import NFScheme
from repro.schemes.recovery_common import RoundContext
from repro.schemes.rr import RRScheme
from repro.speculation.chunks import partition_input
from repro.speculation.predictor import Prediction
from repro.speculation.records import VRStore


def _size(prediction, cid):
    """Candidates left in chunk ``cid``'s queue."""
    return max(0, int(prediction.sizes[cid] - prediction.cursors[cid]))


def _dequeue(prediction, cid):
    """Pop chunk ``cid``'s front candidate."""
    state = int(prediction.states[prediction.bounds[cid] + prediction.cursors[cid]])
    prediction.cursors[cid] += 1
    return state


def _rear_loop(ctx):
    assignments = []
    for t in range(ctx.frontier, ctx.partition.n_chunks):
        if ctx.found[t]:
            continue
        if t == ctx.frontier or ctx.stable[t]:
            assignments.append((t, t, int(ctx.end_p[t])))
    return assignments


def rr_loop(ctx):
    """Algorithm 4's scheduling, one thread at a time (the reference)."""
    assignments = _rear_loop(ctx)
    n = ctx.partition.n_chunks
    f = ctx.frontier
    n_rear_chunks = n - 1 - f
    if n_rear_chunks <= 0:
        return assignments
    for t in range(f):
        cid = (f + 1) + (t % n_rear_chunks)
        prediction = ctx.prediction
        if ctx.vr.others_full(cid):
            continue
        st = None
        while _size(prediction, cid) > 0:
            candidate = _dequeue(prediction, cid)
            if ctx.vr.lookup(cid, candidate) is None:
                st = candidate
                break
        if st is None:
            continue
        assignments.append((t, cid, int(st)))
    return assignments


def nf_loop(ctx):
    """Algorithm 5's scheduling, one thread at a time (the reference)."""
    assignments = _rear_loop(ctx)
    n = ctx.partition.n_chunks
    f = ctx.frontier
    if f >= n - 1:
        return assignments
    cid = f + 1
    pending = {cid: 0}
    for t in range(f):
        st = None
        while cid < n:
            prediction = ctx.prediction
            scheduled = pending.get(cid, 0)
            room = (
                not ctx.vr.others_full(cid)
                and scheduled < ctx.vr.others_capacity
            )
            if room:
                while _size(prediction, cid) > 0:
                    candidate = _dequeue(prediction, cid)
                    if ctx.vr.lookup(cid, candidate) is None:
                        st = candidate
                        break
            if st is not None:
                pending[cid] = scheduled + 1
                break
            cid += 1
            pending.setdefault(cid, 0)
        if st is None:
            break
        assignments.append((t, cid, int(st)))
    return assignments


def _context(seed, n, frontier, others_capacity, n_states, max_queue):
    """A random round: queues of distinct candidates with cursors part-way,
    records (own and foreign, some chunks' ``VR^others`` full) that overlap
    the queues, random found/stable flags."""
    rng = np.random.default_rng(seed)
    states, cursors = [], []
    for _ in range(n):
        size = int(rng.integers(0, max_queue + 1))
        states.append(rng.permutation(n_states)[:size])
        cursors.append(int(rng.integers(0, states[-1].size + 1)))
    sizes = [queue.size for queue in states]
    prediction = Prediction.from_arrays(
        np.concatenate(states),
        np.concatenate([np.arange(size, 0, -1) for size in sizes]),
        np.concatenate(([0], np.cumsum(sizes))),
    )
    prediction.cursors[:] = cursors
    vr = VRStore(n_chunks=n, own_capacity=4, others_capacity=others_capacity)
    for c in range(n):
        for _ in range(int(rng.integers(0, 4))):
            vr.add(c, int(rng.integers(0, n_states)), 0, own=True)
        fill = others_capacity if rng.random() < 0.3 else int(rng.integers(0, others_capacity + 1))
        for _ in range(fill):
            vr.add(c, int(rng.integers(0, n_states)), 0, own=False)
    return RoundContext(
        frontier=frontier,
        end_p=rng.integers(0, n_states, size=n),
        found=rng.random(n) < 0.3,
        stable=rng.random(n) < 0.7,
        partition=partition_input(np.zeros(n, dtype=np.uint8), n),
        prediction=prediction,
        vr=vr,
    )


@st.composite
def rounds(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    frontier = draw(
        st.one_of(
            st.just(0),
            st.just(n - 1),
            st.integers(min_value=0, max_value=n - 1),
        )
    )
    return dict(
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        n=n,
        frontier=frontier,
        others_capacity=draw(st.integers(min_value=0, max_value=5)),
        n_states=draw(st.sampled_from([3, 8, 40])),
        max_queue=draw(st.sampled_from([0, 2, 6, 20])),
    )


POLICIES = [(RRScheme, rr_loop), (NFScheme, nf_loop)]

#: Force the whole-round array schedule (0), keep the shipped cut-over, or
#: force the per-thread side (a round never has that many idle threads).
SIDES = pytest.mark.parametrize(
    "array_threads",
    [0, recovery_common.ARRAY_SCHEDULE_THREADS, 1 << 30],
    ids=["array", "shipped", "per-thread"],
)


def _assert_same_round(policy, reference, case, array_threads):
    ctx, ref_ctx = _context(**case), _context(**case)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery_common, "ARRAY_SCHEDULE_THREADS", array_threads)
        got = policy.schedule(ctx)
    expected = reference(ref_ctx)
    assert got == expected
    assert all(type(x) is int for task in got for x in task)
    np.testing.assert_array_equal(ctx.prediction.cursors, ref_ctx.prediction.cursors)


@SIDES
@pytest.mark.parametrize("policy, reference", POLICIES, ids=["rr", "nf"])
@settings(max_examples=200, deadline=None)
@given(case=rounds())
def test_schedule_equals_per_thread_loop(array_threads, policy, reference, case):
    _assert_same_round(policy, reference, case, array_threads)


@SIDES
@pytest.mark.parametrize("policy, reference", POLICIES, ids=["rr", "nf"])
@pytest.mark.parametrize(
    "n, frontier, capacity",
    [
        (1, 0, 16),  # one chunk: nothing to recover but the frontier
        (256, 0, 16),  # f = 0: no idle thread
        (256, 255, 16),  # f = n - 1: no rear chunk to help
        (256, 200, 16),  # more idle threads than rear chunks
        (256, 60, 16),  # fewer idle threads than rear chunks
        (256, 128, 1),  # one foreign record a chunk
        (256, 128, 0),  # no foreign records at all
    ],
)
def test_suite_sized_rounds(array_threads, policy, reference, n, frontier, capacity):
    for seed in range(5):
        case = dict(
            seed=seed,
            n=n,
            frontier=frontier,
            others_capacity=capacity,
            n_states=60,
            max_queue=40,
        )
        _assert_same_round(policy, reference, case, array_threads)


@SIDES
@pytest.mark.parametrize("policy, reference", POLICIES, ids=["rr", "nf"])
def test_consecutive_rounds_share_the_cursors(
    array_threads, policy, reference, monkeypatch
):
    """Rounds run back to back on one prediction: whatever a round leaves
    behind is what the next round dequeues from."""
    monkeypatch.setattr(recovery_common, "ARRAY_SCHEDULE_THREADS", array_threads)
    ctx, ref_ctx = _context(3, 64, 1, 2, 30, 12), _context(3, 64, 1, 2, 30, 12)
    for f in range(1, 40, 3):
        ctx.frontier = ref_ctx.frontier = f
        assert policy.schedule(ctx) == reference(ref_ctx)
        np.testing.assert_array_equal(
            ctx.prediction.cursors, ref_ctx.prediction.cursors
        )
