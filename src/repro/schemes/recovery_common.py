"""The frontier verification/recovery loop shared by SRE, RR and NF.

All three schemes follow Algorithm 3's skeleton: a frontier ``f`` sweeps the
chunks left to right, one round per chunk.  Each round every thread receives
its predecessor's current end state (speculative data forwarding), scans its
chunk's verification records for a match, and — when the *frontier* check
mismatches (``mark == false``) — recovery work is scheduled.  The schemes
differ only in **who** recovers **which chunk** from **which start state**:
:meth:`FrontierLoopScheme.schedule` states the rear-thread rule they share
once, as a loop over the threads, and RR and NF add their rule for the
idle (non-rear) threads as a loop over the chunks they visit, whose queues
:func:`dequeue_untried` drains in one pass.

Timing semantics per round:

* one end-state forward (``comm``), one record scan (``verify`` ×
  max-records, lockstep), one barrier (``sync``);
* when recovery runs, one parallel chunk execution whose time the lockstep
  executor computes from the actual states visited (memory divergence,
  hot/cold placement, input-fetch coalescing).

Host work per round.  The modelled GPU scans every chunk's records every
round, and the ledger charges exactly that, one round at a time.  The host
computes only what can have changed: a chunk's scan result is a function of
its forwarded state and its records, so ``found`` / ``hit`` / ``end_p``
persist across rounds and a round rescans just its *dirty* chunks — those
whose predecessor's end moved last round (by scan or own recovery) and
those a recovery batch ran on.  Every other chunk would find what it found
before, and its end already holds that hit, so the answer, the ledger and
the recovery schedule are those of a whole-store scan.  A round with no
dirty chunk and no recovery moves nothing and does no array work;
shared-memory staging traffic is charged only after a recovery, the only
time records are added.

Fidelity note (documented deviation): Algorithm 3 as printed would let every
unverified thread re-execute from its forwarded end state in *every*
mismatch round, which on non-converging FSMs degenerates into an all-threads
systolic pipeline — contradicting the paper's own Table III, where SRE shows
1–2 active threads on those FSMs.  Following the event-driven design of the
original SRE work (forward-on-finish), our SRE re-executes a chunk from a
forwarded end state only when that end state is **stable** (its producer did
not change it in the previous round); the must-be-done frontier recovery is
always executed.  This reproduces both Table III regimes: ~1 active thread
on non-converging FSMs, a burst then quiet on converging ones.  RR/NF
schedule *all* threads each mismatch round, as Algorithms 4–5 prescribe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.gpu.kernel import KernelPhase
from repro.gpu.stats import KernelStats
from repro.schemes.base import Scheme
from repro.speculation.chunks import Partition
from repro.speculation.predictor import Prediction
from repro.speculation.records import (
    DEFAULT_OTHERS_CAPACITY,
    DEFAULT_OWN_CAPACITY,
    VRStore,
)


@dataclass
class RoundContext:
    """Everything the recovery schedule may inspect in one frontier round."""

    frontier: int  # chunk being truly verified this round (f)
    end_p: np.ndarray  # forwarded predecessor end state per thread
    found: np.ndarray  # did thread t's scan match a record?
    stable: np.ndarray  # was thread t's forwarded state unchanged last round?
    partition: Partition
    prediction: Prediction
    vr: VRStore


#: A scheduled recovery task: (thread, chunk, start_state).
Assignment = Tuple[int, int, int]


def dequeue_untried(
    ctx: RoundContext, first: int, wants: List[int]
) -> List[List[int]]:
    """Dequeue from the queues of chunks ``first, first + 1, …`` until
    chunk ``first + j`` has ``wants[j]`` candidates ``ctx.vr`` holds no
    record for, or its queue runs dry; returns those candidates per chunk,
    in queue order.  ``wants[j]`` dequeue-until-untried calls, one per
    visiting thread, would leave the cursor where this does.

    A chunk whose ``VR^others`` is full, or whose want is 0, is passed
    without dequeuing.  A queue's candidates are distinct and a chunk holds
    ``count`` records, so its picks sit among its next ``count + want``
    candidates: only those are compared, and a chunk that finds fewer than
    ``want`` there has run its queue dry.
    """
    prediction = ctx.prediction
    stop = first + len(wants)
    bounds = prediction.bounds[first : stop + 1].tolist()
    cursors = prediction.cursors[first:stop].tolist()
    rows, counts, n_others = ctx.vr.rows(first, stop)
    picks: List[List[int]] = []
    for j, want in enumerate(wants):
        picked: List[int] = []
        picks.append(picked)
        if not want or n_others[j] >= ctx.vr.others_capacity:
            continue
        pos = bounds[j] + cursors[j]
        window = prediction.states[pos : min(bounds[j + 1], pos + counts[j] + want)]
        for state in window.tolist():
            pos += 1
            if state not in rows[j]:
                picked.append(state)
                if len(picked) == want:
                    break
        cursors[j] = pos - bounds[j]
    prediction.cursors[first:stop] = cursors
    return picks


class FrontierLoopScheme(Scheme):
    """Base class running the Algorithm-3 style frontier loop.

    Subclasses set :attr:`name` and, to put the idle threads to work,
    their idle-thread rule :meth:`_idle`.
    """

    def __init__(
        self,
        sim,
        n_threads: int = 256,
        *,
        own_capacity: int = DEFAULT_OWN_CAPACITY,
        others_capacity: int = DEFAULT_OTHERS_CAPACITY,
        predictor=None,
        tracer=None,
    ):
        super().__init__(sim, n_threads=n_threads, predictor=predictor, tracer=tracer)
        self.own_capacity = own_capacity
        self.others_capacity = others_capacity

    # ------------------------------------------------------------------
    @classmethod
    def schedule(cls, ctx: RoundContext) -> List[Assignment]:
        """The recovery tasks of a ``mark == false`` round.

        Rear threads (Alg. 3 ll.19-21, Alg. 4-5 alike): a thread at or
        after the frontier whose scan found no record re-runs its own
        chunk from its forwarded state — the frontier thread always (the
        must-be-done recovery ``(f, f, end_p[f])``), the others when that
        state is stable.  The idle threads before the frontier follow the
        scheme's own rule after them.
        """
        f = ctx.frontier
        rear = [
            (t, t, end_p)
            for t, found, stable, end_p in zip(
                range(f, ctx.partition.n_chunks),
                ctx.found[f:].tolist(),
                ctx.stable[f:].tolist(),
                ctx.end_p[f:].tolist(),
            )
            if not found and (t == f or stable)
        ]
        return rear + cls._idle(ctx)

    @staticmethod
    def _idle(ctx: RoundContext) -> List[Assignment]:
        """The idle threads' tasks (SRE: none — a thread never leaves its
        own chunk)."""
        return []

    # ------------------------------------------------------------------
    def _execute(self, partition, start, stats):
        n = partition.n_chunks
        prediction = self._predict(partition, start, stats)
        vr = VRStore(
            n_chunks=n,
            own_capacity=self.own_capacity,
            others_capacity=self.others_capacity,
        )
        self._stash_audit(vr=vr)
        oracle_ends = None
        if self._audit_stash is not None:
            # Ground truth per chunk: the frontier invariant says round f
            # leaves chunks 0..f verified, and no later round changes them.
            oracle_ends = self._audit_stash["oracle_chain"]
        end_c = self._speculative_execution(partition, prediction, stats, vr)
        end_c = end_c.astype(np.int64)

        phase = KernelPhase.VERIFY_RECOVER
        # What one scan costs changes only when a recovery adds records.
        scan_depth, n_records = vr.scan_cost()
        last_change_round = np.zeros(n, dtype=np.int64)  # round a thread's end last changed
        # Round state carried from round to round.  A chunk's scan result
        # depends on its forwarded state and its records alone, so a round
        # rescans only the ``dirty`` chunks, where one of the two changed
        # (the ledger still charges a whole-store scan every round).
        end_p = np.empty(n, dtype=np.int64)  # forwarded predecessor end states
        end_p[0] = start
        end_p[1:] = end_c[:-1]
        found = np.zeros(n, dtype=bool)
        hit = np.zeros(n, dtype=np.int64)
        dirty = np.ones(n, dtype=bool)

        for f in range(n):
            with self._phase_span(
                "verify_recover.round", stats, frontier=f
            ) as round_span:
                # --- communication: forward predecessor end states -------
                stats.charge_comm(phase, n - 1 if n > 1 else 0)

                # --- verification scan -----------------------------------
                # A chunk that is not dirty would find what it found last
                # round, and its end already holds that hit.  With no dirty
                # chunk and no recovery, no end state moves this round.
                rows = dirty.nonzero()[0]
                quiet = rows.size == 0
                if not quiet:
                    dirty[rows] = False
                    found[rows], hit[rows] = vr.scan(rows, end_p[rows])
                    changed = found & (hit != end_c)
                    np.copyto(end_c, hit, where=changed)
                stats.charge_verify(
                    phase, checks_per_thread=scan_depth, total_checks=n_records
                )

                mark = bool(found[f])
                if mark:
                    stats.matches += 1
                else:
                    stats.mismatches += 1
                stats.charge_sync(phase)

                n_active = 0
                if not mark:
                    # stability: a forwarded state is stable when its
                    # producer's end state did not change in the previous
                    # round (changed this round ⇒ unstable next).
                    stable = np.ones(n, dtype=bool)
                    stable[1:] = last_change_round[:-1] < f
                if not quiet:
                    last_change_round[changed] = f + 1
                if not mark:
                    ctx = RoundContext(
                        frontier=f,
                        end_p=end_p,
                        found=found,
                        stable=stable,
                        partition=partition,
                        prediction=prediction,
                        vr=vr,
                    )
                    assignments = self.schedule(ctx)
                    n_active = len(assignments)
                    if assignments:
                        recovered, touched = self._execute_recoveries(
                            assignments, partition, end_c, vr, stats, f
                        )
                        last_change_round[recovered] = f + 1
                        scan_depth, n_records = vr.scan_cost()
                        vr.charge_shared_traffic(stats, phase)
                        dirty[touched] = True
                        quiet = False
                    else:
                        stats.record_recovery_round(active_threads=0)
                if not quiet:
                    # Forward the round's end states: a chunk whose
                    # forwarded state moved (by its predecessor's scan or
                    # recovery) is dirty next round.
                    dirty[1:] |= end_p[1:] != end_c[:-1]
                    end_p[1:] = end_c[:-1]
                if oracle_ends is not None:
                    self._audit_verified_prefix(end_c, oracle_ends, f)
                if round_span:
                    round_span.set_attr("matched", mark)
                    round_span.set_attr("active_threads", n_active)

        with self._phase_span(KernelPhase.MERGE, stats):
            pass
        return int(end_c[n - 1]), end_c

    # ------------------------------------------------------------------
    def _audit_verified_prefix(
        self, end_c: np.ndarray, oracle_ends: np.ndarray, f: int
    ) -> None:
        """Selfcheck ``frontier_oracle``: after round ``f`` the whole
        verified prefix ``end_c[:f+1]`` equals the ground truth."""
        lanes = np.flatnonzero(end_c[: f + 1] != oracle_ends[: f + 1])
        if lanes.size:
            from repro.errors import SelfCheckError

            first = int(lanes[0])
            raise SelfCheckError(
                f"verified chunk end {int(end_c[first])} != oracle "
                f"{int(oracle_ends[first])} at chunk {first} after "
                f"verification round {f}",
                invariant="frontier_oracle",
                scheme=self.name,
                backend=self.engine.name,
                frontier=f,
                lanes=lanes.tolist(),
            )

    # ------------------------------------------------------------------
    def _execute_recoveries(
        self,
        assignments: List[Assignment],
        partition: Partition,
        end_c: np.ndarray,
        vr: VRStore,
        stats: KernelStats,
        frontier: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run one parallel recovery batch and fold its results into ``vr``
        and ``end_c``; returns the threads that re-ran their own chunk and
        the chunks the batch ran on (those whose records may have grown)."""
        n = partition.n_chunks
        phase = KernelPhase.VERIFY_RECOVER
        threads, chunk_of, start_of = np.asarray(assignments, dtype=np.int64).T
        active = np.zeros(n, dtype=bool)
        active[threads] = True
        lanes = np.arange(n, dtype=np.int64)
        cids = lanes.copy()
        cids[threads] = chunk_of
        starts = np.zeros(n, dtype=np.int64)
        starts[threads] = start_of
        own = chunk_of == threads
        stats.record_recovery_round(active_threads=len(assignments))
        stats.recoveries_executed += len(assignments)

        before = stats.phase_cycles.get(phase, 0.0)
        ends = self.engine.run_gathered(
            partition.chunks,
            cids,
            starts,
            stats=stats,
            phase=phase,
            lengths=partition.lengths[cids],
            active=active,
            # Enumeration on other chunks is aggressive speculation: count
            # it as (potentially) redundant work for the redundancy metric.
            count_redundant=cids != lanes,
        )
        stats.recovery_exec_cycles += stats.phase_cycles.get(phase, 0.0) - before
        ends = ends[threads]
        vr.add_batch(chunk_of, start_of, ends, own=own)
        recovered = threads[own]
        end_c[recovered] = ends[own]
        stats.charge_sync(phase)
        return recovered, chunk_of
