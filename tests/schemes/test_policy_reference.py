"""RR/NF recovery schedules against the per-thread loops they restate.

``policy_reference.rr_loop`` and ``nf_loop`` state Algorithms 4 and 5 one
thread at a time; ``RRScheme.schedule`` and ``NFScheme.schedule`` dequeue
each visited chunk's queue in one pass.  Both must return the same
assignment list in the same order *and* leave every queue cursor in the
same place (the cursors carry into later rounds).
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.schemes.nf import NFScheme
from repro.schemes.recovery_common import dequeue_untried
from repro.schemes.rr import RRScheme
from tests.schemes.policy_reference import (
    _context,
    _size,
    dequeue_loop,
    nf_loop,
    rr_loop,
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


def _assert_same_round(policy, reference, case):
    """Run both on one random round; returns the reference's context
    before and after, and the assignments."""
    ctx, ref_ctx, before = _context(**case), _context(**case), _context(**case)
    got = policy.schedule(ctx)
    expected = reference(ref_ctx)
    assert got == expected
    assert all(type(x) is int for task in got for x in task)
    np.testing.assert_array_equal(ctx.prediction.cursors, ref_ctx.prediction.cursors)
    return before, ref_ctx, got


@pytest.mark.parametrize("policy, reference", POLICIES, ids=["rr", "nf"])
@settings(max_examples=200, deadline=None)
@given(case=rounds())
def test_schedule_equals_per_thread_loop(policy, reference, case):
    _assert_same_round(policy, reference, case)


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
        (7, 3, 16),  # small feeds, either side of 8 threads
        (8, 3, 16),
        (9, 4, 16),
        (64, 31, 16),  # f = R - 1: one visitor a rear chunk at most
        (64, 32, 16),  # f = R + 1: the first chunk gets a second visitor
        (256, 127, 16),
        (256, 128, 16),
        (256, 170, 16),  # f = 2R: two visitors for every rear chunk
        (256, 254, 16),  # one rear chunk, every idle thread visits it
    ],
)
def test_suite_sized_rounds(policy, reference, n, frontier, capacity):
    for seed in range(5):
        case = dict(
            seed=seed,
            n=n,
            frontier=frontier,
            others_capacity=capacity,
            n_states=60,
            max_queue=40,
        )
        _assert_same_round(policy, reference, case)


def _idle_picks(assignments):
    """Picks per chunk among the idle threads' tasks."""
    return Counter(c for t, c, _ in assignments if t != c)


def test_rr_queue_runs_dry_between_a_chunks_visitors():
    """f ≥ R: every rear chunk has three or four visitors, and short
    queues run dry after the first or second of them."""
    f, n = 200, 256
    _, _, got = _assert_same_round(
        RRScheme, rr_loop, dict(seed=0, n=n, frontier=f, others_capacity=16,
                                n_states=60, max_queue=3)
    )
    rear = n - 1 - f
    picks = _idle_picks(got)
    visitors = {f + 1 + j: f // rear + (j < f % rear) for j in range(rear)}
    assert any(0 < picks[c] < visitors[c] for c in visitors)
    assert max(picks.values()) >= 2  # the thread order needs the re-sort


def test_nf_threads_run_out_inside_a_chunk():
    """The idle threads run out part-way through a chunk whose queue still
    holds untried candidates: it takes fewer than ``others_capacity``."""
    f = 40
    _, after, got = _assert_same_round(
        NFScheme, nf_loop, dict(seed=1, n=256, frontier=f, others_capacity=16,
                                n_states=60, max_queue=40)
    )
    picks = _idle_picks(got)
    last = max(picks)
    assert sum(picks.values()) == f
    assert picks[last] < 16 and _size(after.prediction, last) > 0


@pytest.mark.parametrize("policy, reference", POLICIES, ids=["rr", "nf"])
def test_full_others_chunk_is_passed(policy, reference):
    """A visited chunk whose ``VR^others`` is full, with untried candidates
    queued, gets no thread and keeps its cursor."""
    f = 128
    before, after, got = _assert_same_round(
        policy, reference, dict(seed=2, n=256, frontier=f, others_capacity=4,
                                n_states=60, max_queue=40)
    )
    picks = _idle_picks(got)
    passed = [
        c
        for c in range(f + 1, max(picks))
        if before.vr.others_full(c) and _size(before.prediction, c) > 0
    ]
    assert passed and not any(picks[c] for c in passed)
    np.testing.assert_array_equal(
        after.prediction.cursors[passed], before.prediction.cursors[passed]
    )


@pytest.mark.parametrize("policy, reference", POLICIES, ids=["rr", "nf"])
def test_consecutive_rounds_share_the_cursors(policy, reference):
    """Rounds run back to back on one prediction: whatever a round leaves
    behind is what the next round dequeues from."""
    ctx, ref_ctx = _context(3, 64, 1, 2, 30, 12), _context(3, 64, 1, 2, 30, 12)
    for f in range(1, 40, 3):
        ctx.frontier = ref_ctx.frontier = f
        assert policy.schedule(ctx) == reference(ref_ctx)
        np.testing.assert_array_equal(
            ctx.prediction.cursors, ref_ctx.prediction.cursors
        )


@settings(max_examples=200, deadline=None)
@given(case=rounds(), data=st.data())
def test_dequeue_untried_equals_per_thread_dequeues(case, data):
    """``dequeue_untried`` over any run of chunks and any wants leaves the
    picks and cursors that one dequeue-until-untried per visitor leaves."""
    ctx, ref_ctx = _context(**case), _context(**case)
    n = case["n"]
    first = data.draw(st.integers(min_value=0, max_value=n - 1))
    stop = data.draw(st.integers(min_value=first, max_value=n))
    wants = data.draw(
        st.lists(st.integers(0, 8), min_size=stop - first, max_size=stop - first)
    )
    assert dequeue_untried(ctx, first, wants) == dequeue_loop(ref_ctx, first, wants)
    np.testing.assert_array_equal(ctx.prediction.cursors, ref_ctx.prediction.cursors)


@pytest.mark.parametrize(
    "n_states, capacity, first, wants",
    [
        (60, 16, 0, [1] * 64),  # one visitor a chunk, RR's f < R
        (60, 16, 0, [0] * 64),  # no visitors: nothing moves
        (60, 16, 10, [3, 0, 2, 0, 1, 4] * 9),  # gaps between visited chunks
        (60, 16, 0, [40] * 64),  # wants beyond every queue: all run dry
        (8, 16, 0, [2] * 64),  # few states: records hide most candidates
        (8, 16, 0, [8] * 64),  # window = count + want reaches the queue end
        (60, 0, 0, [2] * 64),  # no foreign room: every chunk is full
        (60, 16, 63, [5]),  # a single chunk at the end
    ],
)
def test_dequeue_untried_suite_sized(n_states, capacity, first, wants):
    for seed in range(5):
        case = dict(seed=seed, n=64, frontier=0, others_capacity=capacity,
                    n_states=n_states, max_queue=40)
        ctx, ref_ctx, before = _context(**case), _context(**case), _context(**case)
        got = dequeue_untried(ctx, first, wants)
        assert got == dequeue_loop(ref_ctx, first, wants)
        assert all(type(x) is int for picked in got for x in picked)
        np.testing.assert_array_equal(
            ctx.prediction.cursors, ref_ctx.prediction.cursors
        )
        untouched = [c for c in range(64) if not first <= c < first + len(wants)]
        np.testing.assert_array_equal(
            ctx.prediction.cursors[untouched], before.prediction.cursors[untouched]
        )
