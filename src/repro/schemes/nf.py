"""NF: Nearest-First based speculative recovery (Algorithm 5).

Like RR, the one-to-one thread↔chunk binding is broken in mismatch rounds —
but instead of spreading idle threads evenly, NF concentrates them on the
chunks **nearest the frontier**: all non-rear threads first drain the
speculation queue of chunk ``f+1``, then ``f+2``, and so on (``NF_Sched``,
Alg. 5 ll.25-34).  The rationale: the chunks right after the frontier are the
ones whose verification is due soonest, and on input-sensitive FSMs they may
need many candidates tried before one matches.  A side benefit the paper
measures (Fig. 9): many threads running the *same* chunk fetch the same
input stream, which reduces divergence and improves locality — modeled here
by the executor's input-fetch coalescing.

Draining is capacity-aware: a chunk whose ``VR^others`` is full is passed
without dequeuing, and one chunk takes at most ``others_capacity`` threads a
round (counted against this round's picks only, not the records it already
holds).  The round is scheduled as array work over blocks of chunks: each
chunk in a block wants ``others_capacity`` untried candidates (0 when full),
one pass finds them
(:func:`~repro.schemes.recovery_common.untried_candidates`), and the threads
take the picks in chunk-then-queue order until they run out — the chunk
where they do keeps only the picks it got, later chunks are not visited.
As for RR, a round with fewer idle threads than
:data:`~repro.schemes.recovery_common.ARRAY_SCHEDULE_THREADS` runs the
per-thread loop instead, with the same assignments and cursors.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.schemes.recovery_common import (
    Assignment,
    FrontierLoopScheme,
    RoundContext,
    advance_cursors,
    dequeue_untried,
    untried_candidates,
)


class NFScheme(FrontierLoopScheme):
    """Algorithm 5: aggressive recovery concentrated near the frontier.

    Rear threads act like SRE; idle threads drain the nearest queues
    (Alg. 5 ll.28-34).
    """

    name = "nf"

    @staticmethod
    def _idle_round(ctx: RoundContext) -> List[Assignment]:
        assignments: List[Assignment] = []
        n = ctx.partition.n_chunks
        f = ctx.frontier
        capacity = ctx.vr.others_capacity
        idle = f  # non-rear threads not yet given a task
        first = f + 1
        # Twice the chunks the idle threads fill if none is full or runs
        # dry; twice as many again for every block that falls short.
        span = 2 * -(-idle // capacity) if capacity else 0
        while idle and span and first < n:
            chunks = np.arange(first, min(n, first + span))
            span *= 2
            want = np.where(ctx.vr.others_room(chunks), capacity, 0)
            owner, states, positions = untried_candidates(ctx, chunks, want)
            picks = np.bincount(owner, minlength=chunks.size)
            taken = np.cumsum(picks)
            if taken[-1] >= idle:
                # The threads run out inside chunk ``last``: it keeps the
                # picks they took, the chunks after it are not visited.
                last = int(np.searchsorted(taken, idle))
                chunks, want = chunks[: last + 1], want[: last + 1]
                want[last] = idle - (taken[last] - picks[last])
                owner, states, positions = owner[:idle], states[:idle], positions[:idle]
            advance_cursors(ctx.prediction, chunks, want, owner, positions)
            threads = f - idle + np.arange(owner.size)
            assignments.extend(
                zip(threads.tolist(), chunks[owner].tolist(), states.tolist())
            )
            idle -= owner.size
            first = int(chunks[-1]) + 1
        return assignments

    @staticmethod
    def _idle_per_thread(ctx: RoundContext) -> List[Assignment]:
        assignments: List[Assignment] = []
        n = ctx.partition.n_chunks
        f = ctx.frontier
        if f >= n - 1:
            return assignments
        cid = f + 1
        scheduled = 0  # records scheduled on ``cid`` this round
        for t in range(f):
            st = None
            while cid < n:
                if not ctx.vr.others_full(cid) and scheduled < ctx.vr.others_capacity:
                    st = dequeue_untried(ctx, cid)
                if st is not None:
                    scheduled += 1
                    break
                cid += 1  # drained or full; move to the next chunk
                scheduled = 0
            if st is None:
                break  # every rear queue is exhausted: remaining threads idle
            assignments.append((t, cid, st))
        return assignments
