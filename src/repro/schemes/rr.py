"""RR: Round-Robin based speculative recovery (Algorithm 4).

The aggressive design: when the frontier hits a must-be-done recovery, the
one-to-one thread↔chunk binding is broken.  *Rear* threads (assigned chunk at
or after the frontier) behave like SRE — they recover their own chunk from
the forwarded end state.  *Non-rear* threads (their chunks are already
verified, so they would otherwise idle) are spread over the unverified chunks
``f+1 … N-1`` in round-robin order, each dequeuing the next-ranked candidate
from that chunk's speculation queue ``QS_cid`` and executing a speculative
recovery from it.  The paper's bound — at most ``1 + ceil((f-1)/(N-f))``
threads per chunk — falls out of the modular assignment.

The round is scheduled as array work rather than thread by thread: thread
``t`` serves chunk offset ``t mod R`` (``R = N-1-f``) as that chunk's
``t div R``-th visitor, so chunk ``c`` wants as many untried candidates as
it has visitors — none when its ``VR^others`` is full, since a thread skips
such a chunk without dequeuing.  One pass over every visited chunk's queue
(:func:`~repro.schemes.recovery_common.untried_candidates`) finds them and
leaves each cursor where the per-thread dequeue loop would.  A round with
fewer idle threads than
:data:`~repro.schemes.recovery_common.ARRAY_SCHEDULE_THREADS` (every round
at 8 chunks) runs that loop instead: it is the cheaper of the two there,
and both give the same assignments and cursors.
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


class RRScheme(FrontierLoopScheme):
    """Algorithm 4: aggressive recovery with round-robin scheduling.

    Rear threads act like SRE; idle threads round-robin over rear chunks
    (Alg. 4 ll.22-25).
    """

    name = "rr"

    @staticmethod
    def _idle_round(ctx: RoundContext) -> List[Assignment]:
        f = ctx.frontier
        n_rear_chunks = ctx.partition.n_chunks - 1 - f
        if n_rear_chunks <= 0 or f == 0:
            return []
        visited = min(n_rear_chunks, f)
        offset = np.arange(visited)
        chunks = f + 1 + offset
        visitors = f // n_rear_chunks + (offset < f % n_rear_chunks)
        # No register slot left for a foreign record: the visitors idle.
        want = np.where(ctx.vr.others_room(chunks), visitors, 0)
        owner, states, positions = untried_candidates(ctx, chunks, want)
        advance_cursors(ctx.prediction, chunks, want, owner, positions)
        # A chunk's j-th untried candidate goes to its j-th visitor.
        taken = np.bincount(owner, minlength=visited)
        rank = np.arange(owner.size) - (np.cumsum(taken) - taken)[owner]
        threads = owner + rank * n_rear_chunks
        order = np.argsort(threads)
        return list(
            zip(
                threads[order].tolist(),
                chunks[owner[order]].tolist(),
                states[order].tolist(),
            )
        )

    @staticmethod
    def _idle_per_thread(ctx: RoundContext) -> List[Assignment]:
        assignments: List[Assignment] = []
        f = ctx.frontier
        n_rear_chunks = ctx.partition.n_chunks - 1 - f
        if n_rear_chunks <= 0:
            return assignments
        for t in range(f):
            cid = (f + 1) + (t % n_rear_chunks)
            if ctx.vr.others_full(cid):
                continue
            st = dequeue_untried(ctx, cid)
            if st is not None:
                assignments.append((t, cid, st))
        return assignments
