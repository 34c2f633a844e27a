"""Hypothesis property tests for speculation queues and VR stores."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.speculation import records
from repro.speculation.predictor import Prediction
from repro.speculation.records import VRStore
from repro.errors import SchemeError
from tests.conftest import queue_lists

#: A state id no generated queue holds.
ABSENT = 100


@st.composite
def prediction(draw, min_chunks=1):
    """A CSR prediction of queues of 1–12 distinct states each, ranked by
    descending weight."""
    n_chunks = draw(st.integers(min_value=min_chunks, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 13, size=n_chunks)
    states = np.concatenate([rng.permutation(ABSENT)[:s] for s in sizes])
    weights = np.concatenate([np.sort(rng.integers(1, 50, size=s))[::-1] for s in sizes])
    return Prediction.from_arrays(states, weights, np.concatenate(([0], np.cumsum(sizes))))


@settings(max_examples=50, deadline=None)
@given(prediction())
def test_dequeue_drains_in_order(pred):
    """Each ``dequeue_fronts`` pops every queue's next candidate in rank
    order; once the shortest queue is drained the next one raises and pops
    nothing."""
    queues = queue_lists(pred)
    depth = int(pred.sizes.min())
    for rank in range(depth):
        assert pred.dequeue_fronts().tolist() == [states[rank] for states, _ in queues]
    with pytest.raises(SchemeError):
        pred.dequeue_fronts()
    assert pred.cursors.tolist() == [depth] * pred.n_chunks


@settings(max_examples=50, deadline=None)
@given(prediction(), st.integers(min_value=0, max_value=14), st.integers(0, 2**31 - 1))
def test_top_k_prefix_property(pred, k, seed):
    """Top-k accuracy counts exactly the speculated chunks whose true start
    is in the first ``k`` states of their queue segment."""
    rng = np.random.default_rng(seed)
    queues = queue_lists(pred)
    truth = np.array(
        [rng.choice(states + [ABSENT]) for states, _ in queues], dtype=np.int64
    )
    if pred.n_chunks == 1:
        assert pred.accuracy_against(truth, k=k) == 1.0
        return
    hits = sum(int(truth[i]) in queues[i][0][:k] for i in range(1, pred.n_chunks))
    assert pred.accuracy_against(truth, k=k) == hits / (pred.n_chunks - 1)


@settings(max_examples=50, deadline=None)
@given(prediction(min_chunks=2))
def test_rank_of_consistency(pred):
    """The state at rank ``r`` of a chunk's segment is first a top-k hit
    at ``k = r + 1``."""
    n = pred.n_chunks
    for i, (states, _) in enumerate(queue_lists(pred)[1:], start=1):
        for rank, state in enumerate(states):
            truth = np.full(n, ABSENT)
            truth[i] = state
            assert pred.accuracy_against(truth, k=rank) == 0.0
            assert pred.accuracy_against(truth, k=rank + 1) == 1 / (n - 1)


@st.composite
def vr_ops(draw):
    n_chunks = draw(st.integers(min_value=1, max_value=6))
    own_cap = draw(st.integers(min_value=1, max_value=5))
    others_cap = draw(st.integers(min_value=0, max_value=5))
    n_ops = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    ops = [
        (
            int(rng.integers(0, n_chunks)),
            int(rng.integers(0, 20)),
            int(rng.integers(0, 20)),
            bool(rng.integers(0, 2)),
        )
        for _ in range(n_ops)
    ]
    return n_chunks, own_cap, others_cap, ops


@settings(max_examples=60, deadline=None)
@given(vr_ops())
def test_vrstore_invariants(case):
    n_chunks, own_cap, others_cap, ops = case
    vr = VRStore(n_chunks=n_chunks, own_capacity=own_cap, others_capacity=others_cap)
    model = [dict() for _ in range(n_chunks)]  # chunk -> start -> end
    for chunk, start, end, own in ops:
        stored = vr.add(chunk, start, end, own=own)
        if stored and start not in model[chunk]:
            model[chunk][start] = end
        # Capacity invariants hold at every point.
        filled = vr._start[chunk] != records.EMPTY
        assert np.count_nonzero(filled & vr._own[chunk]) <= own_cap
        assert np.count_nonzero(filled & ~vr._own[chunk]) <= others_cap
    # Lookup agrees with the reference model (first-write-wins).
    for chunk in range(n_chunks):
        for start, end in model[chunk].items():
            assert vr.lookup(chunk, start) == end
        assert vr.count(chunk) == len(model[chunk])


@settings(max_examples=40, deadline=None)
@given(vr_ops())
def test_vrstore_shared_traffic_counts_foreign_only(case):
    n_chunks, own_cap, others_cap, ops = case
    vr = VRStore(n_chunks=n_chunks, own_capacity=own_cap, others_capacity=others_cap)
    foreign_stored = 0
    seen = set()
    for chunk, start, end, own in ops:
        stored = vr.add(chunk, start, end, own=own)
        if stored and not own and (chunk, start) not in seen:
            foreign_stored += 1
        if stored:
            seen.add((chunk, start))
    assert vr.stores_to_shared == foreign_stored
    assert vr.loads_from_shared == foreign_stored


@settings(max_examples=60, deadline=None)
@given(vr_ops(), st.integers(min_value=0, max_value=2**31 - 1))
def test_vrstore_scan_agrees_with_lookup(case, seed):
    """The verification scan of any rows — the whole store, a subset in any
    order, none — is ``lookup`` chunk by chunk, and ``counts`` is ``count``
    — on stores with duplicates and capacity drops."""
    n_chunks, own_cap, others_cap, ops = case
    vr = VRStore(n_chunks=n_chunks, own_capacity=own_cap, others_capacity=others_cap)
    rng = np.random.default_rng(seed)

    def check_scan():
        for rows in (
            np.arange(n_chunks),
            rng.permutation(n_chunks)[: rng.integers(0, n_chunks + 1)],
        ):
            forwarded = rng.integers(0, 20, size=rows.size)
            found, hit = vr.scan(rows, forwarded)
            assert found.shape == hit.shape == rows.shape
            for c, start, f, h in zip(rows, forwarded, found, hit):
                expected = vr.lookup(int(c), int(start))
                assert bool(f) == (expected is not None)
                if expected is not None:
                    assert int(h) == expected
        per_chunk = [vr.count(c) for c in range(n_chunks)]
        assert vr.counts.tolist() == per_chunk
        assert vr.scan_cost() == (max(per_chunk), sum(per_chunk))

    check_scan()  # empty store
    for chunk, start, end, own in ops:
        vr.add(chunk, start, end, own=own)
        check_scan()


@pytest.mark.parametrize("scalar_cutover", [0, 8])
@settings(max_examples=80, deadline=None)
@given(case=vr_ops(), batch_size=st.integers(min_value=1, max_value=40))
def test_vrstore_add_batch_equals_adds_in_order(scalar_cutover, case, batch_size):
    """``add_batch`` is the record-by-record loop: same slots in the same
    order, same drops, same shared-memory traffic — with chunks repeated
    inside one batch, every batch vectorized (cut-over 0) and batches on
    either side of a cut-over."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(records, "_SCALAR_BATCH", scalar_cutover)
        _check_add_batch(case, batch_size)


def _check_add_batch(case, batch_size):
    n_chunks, own_cap, others_cap, ops = case
    one_by_one = VRStore(
        n_chunks=n_chunks, own_capacity=own_cap, others_capacity=others_cap
    )
    batched = VRStore(
        n_chunks=n_chunks, own_capacity=own_cap, others_capacity=others_cap
    )
    for lo in range(0, len(ops), batch_size):
        batch = ops[lo : lo + batch_size]
        for chunk, start, end, own in batch:
            one_by_one.add(chunk, start, end, own=own)
        chunks, starts, ends, own = (list(column) for column in zip(*batch))
        batched.add_batch(chunks, starts, ends, own=own)
        for slots in ("_start", "_end", "_own"):
            np.testing.assert_array_equal(
                getattr(batched, slots), getattr(one_by_one, slots)
            )
        assert batched.counts.tolist() == one_by_one.counts.tolist()
        assert batched.dropped_records == one_by_one.dropped_records
        assert batched.stores_to_shared == one_by_one.stores_to_shared
        assert batched.loads_from_shared == one_by_one.loads_from_shared


def test_vrstore_add_batch_broadcasts_one_own_flag():
    vr = VRStore(n_chunks=12, own_capacity=1, others_capacity=1)
    vr.add_batch(np.arange(12), np.arange(12) + 5, np.arange(12) + 7, own=True)
    assert vr._own[:, 0].all()
    assert [vr.lookup(c, c + 5) for c in range(12)] == list(range(7, 19))
    vr.add_batch(np.arange(12), np.arange(12) + 6, np.arange(12), own=True)
    assert vr.dropped_records == 12 and vr.counts.tolist() == [1] * 12
