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
holds).  So each chunk, nearest first, is dequeued
(:func:`~repro.schemes.recovery_common.dequeue_untried`) for
``min(others_capacity, idle threads left)`` untried candidates, and the
threads take the picks in chunk-then-queue order until they or the rear
chunks run out.
"""

from __future__ import annotations

from typing import List

from repro.schemes.recovery_common import (
    Assignment,
    FrontierLoopScheme,
    RoundContext,
    dequeue_untried,
)


class NFScheme(FrontierLoopScheme):
    """Algorithm 5: aggressive recovery concentrated near the frontier.

    Rear threads act like SRE; idle threads drain the nearest queues
    (Alg. 5 ll.28-34).
    """

    name = "nf"

    @staticmethod
    def _idle(ctx: RoundContext) -> List[Assignment]:
        assignments: List[Assignment] = []
        f = ctx.frontier
        capacity = ctx.vr.others_capacity
        cid = f + 1
        while len(assignments) < f and cid < ctx.partition.n_chunks:
            t = len(assignments)  # the next idle thread
            (states,) = dequeue_untried(ctx, cid, [min(capacity, f - t)])
            assignments.extend((t + k, cid, state) for k, state in enumerate(states))
            cid += 1
        return assignments
