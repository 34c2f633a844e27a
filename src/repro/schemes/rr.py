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

Thread ``t`` serves chunk offset ``t mod R`` (``R = N-1-f``) as that chunk's
``t div R``-th visitor, so the visited chunks' queues are dequeued in one
pass (:func:`~repro.schemes.recovery_common.dequeue_untried`), each for as
many untried candidates as the chunk has visitors — none when its
``VR^others`` is full, since a thread skips such a chunk without dequeuing.
A chunk's k-th pick goes to its k-th visitor; a visitor finding the queue
dry idles.
"""

from __future__ import annotations

from typing import List

from repro.schemes.recovery_common import (
    Assignment,
    FrontierLoopScheme,
    RoundContext,
    dequeue_untried,
)


class RRScheme(FrontierLoopScheme):
    """Algorithm 4: aggressive recovery with round-robin scheduling.

    Rear threads act like SRE; idle threads round-robin over rear chunks
    (Alg. 4 ll.22-25).
    """

    name = "rr"

    @staticmethod
    def _idle(ctx: RoundContext) -> List[Assignment]:
        f = ctx.frontier
        n_rear_chunks = ctx.partition.n_chunks - 1 - f
        if n_rear_chunks <= 0 or f == 0:
            return []
        laps, extra = divmod(f, n_rear_chunks)
        wants = [laps + (j < extra) for j in range(min(n_rear_chunks, f))]
        assignments = [
            (j + k * n_rear_chunks, f + 1 + j, state)
            for j, states in enumerate(dequeue_untried(ctx, f + 1, wants))
            for k, state in enumerate(states)
        ]
        if laps:  # a chunk has several visitors: back to thread order
            assignments.sort()
        return assignments
