"""The per-thread RR/NF loops the recovery schedule is held to.

``rr_loop`` and ``nf_loop`` are Algorithms 4 and 5's idle-thread rules
stated thread by thread, after the rear-thread rule: one ``dequeue`` plus
one ``VRStore.lookup`` per candidate, with the queue read through the
prediction's CSR arrays (``_size`` / ``_dequeue`` are a queue's size and
dequeue).  They stay here as the oracle — ``RRScheme.schedule`` and
``NFScheme.schedule`` must return the same assignment list in the same
order *and* leave every queue cursor where the loops leave it (the cursors
carry into later rounds).  ``dequeue_loop`` states
``recovery_common.dequeue_untried`` the same way, one visiting thread at a
time.  ``_context`` builds a random round to run both on.
"""

import numpy as np

from repro.schemes.recovery_common import RoundContext
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


def dequeue_loop(ctx, first, wants):
    """``wants[j]`` dequeue-until-untried calls on chunk ``first + j``, one
    per visiting thread, none where its ``VR^others`` is full (the
    reference for ``dequeue_untried``)."""
    picks = []
    for cid, want in enumerate(wants, start=first):
        picked = []
        picks.append(picked)
        if ctx.vr.others_full(cid):
            continue
        for _ in range(want):
            while _size(ctx.prediction, cid) > 0:
                candidate = _dequeue(ctx.prediction, cid)
                if ctx.vr.lookup(cid, candidate) is None:
                    picked.append(candidate)
                    break
    return picks


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
