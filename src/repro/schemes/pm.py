"""PM: Parallel Merge with enumerative speculation (Xia et al. PPoPP'20).

The state of the art GSpecPal is measured against, and the paper's baseline
(with ``spec-4``).  Each thread runs its chunk from the top-``k`` states of
its speculation queue, maintaining ``k`` transition paths (``spec-k``).
Verification is a parallel tree-like merge over ``log N`` rounds; when a
forwarded end state matches none of a chunk's speculative start states, PM
*delays* the recovery (marking paths invalid) and only re-executes when the
mismatch turns out to affect the ground truth — the must-be-done recoveries,
which run **sequentially**, one idle-GPU chunk at a time.  That sequential
tail is exactly the bottleneck the paper's speculative recovery removes.

Cost model follows Eq. 2:
``T_PM = C + T_p1·α_k + Σ_{log N}(T_comm(k) + T_ver(k))
       + Σ_i P_i·(T_comm(1) + T_ver(k) + T_p1)``.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import KernelPhase
from repro.schemes.base import Scheme
from repro.speculation.records import VRStore
from repro.errors import SchemeError

#: PM's paths per thread: the paper's PM-spec4 baseline, and the depth the
#: Fig. 6 tree's PM node and the drift anchor read.  Fig. 3's sweep varies
#: ``k`` on :class:`PMScheme` itself.
SPEC_K = 4


class PMScheme(Scheme):
    """Parallel Merge with spec-k enumerative speculation.

    Parameters
    ----------
    k:
        Number of speculative paths each thread maintains (default
        :data:`SPEC_K`, the paper's baseline).
    adaptive:
        Extension (motivated by §II-C's critique that a static ``k`` wastes
        resources on easy chunks and under-covers hard ones): choose each
        chunk's path count as the smallest queue prefix whose lookback
        weights cover ``adaptive_mass`` of the probability mass, capped at
        ``k``.  Easy chunks then run 1 path; hard chunks use the full k.
    """

    name = "pm"

    def __init__(
        self,
        sim,
        n_threads: int = 256,
        *,
        k: int = SPEC_K,
        adaptive: bool = False,
        adaptive_mass: float = 0.9,
        predictor=None,
        tracer=None,
    ):
        super().__init__(sim, n_threads=n_threads, predictor=predictor, tracer=tracer)
        if k < 1:
            raise SchemeError(f"spec-k needs k >= 1, got {k}")
        if not (0.0 < adaptive_mass <= 1.0):
            raise SchemeError("adaptive_mass must be in (0, 1]")
        self.k = k
        self.adaptive = adaptive
        self.adaptive_mass = adaptive_mass
        self.name = f"pm-adaptive{k}" if adaptive else f"pm-spec{k}"

    def _paths_run(self, prediction) -> np.ndarray:
        """How many of its queue's top candidates each chunk runs: spec-k
        runs ``min(size, k)``; adaptive stops at the first prefix whose
        share of the chunk's lookback weight reaches ``adaptive_mass``."""
        paths = np.minimum(prediction.sizes, self.k)
        if not self.adaptive:
            return paths
        lo, hi = prediction.bounds[:-1], prediction.bounds[1:]
        cum = np.concatenate(([0], np.cumsum(prediction.weights)))
        # Share of its weight each chunk's top 1..k candidates cover: 1 past
        # the queue's end (never short of a mass <= 1), 0 for a chunk with
        # no weight (so it keeps every path).  Integer prefix sums are
        # exact, so each share is the float a per-queue ``cumsum / total``
        # gives.
        prefix = np.minimum(lo[:, None] + np.arange(1, self.k + 1), hi[:, None])
        totals = np.maximum(cum[hi] - cum[lo], 1).astype(np.float64)
        covered = (cum[prefix] - cum[lo][:, None]) / totals[:, None]
        needed = 1 + np.count_nonzero(covered < self.adaptive_mass, axis=1)
        return np.minimum(paths, needed)

    def _root_attrs(self) -> dict:
        return {"k": self.k}

    # ------------------------------------------------------------------
    def _execute(self, partition, start, stats):
        n = partition.n_chunks
        prediction = self._predict(partition, start, stats)
        vr = VRStore(n_chunks=n, own_capacity=max(self.k, 16))
        self._stash_audit(vr=vr)

        # --- spec-k parallel execution (α_k ≈ k serialized paths) -------
        with self._phase_span(KernelPhase.SPECULATIVE_EXECUTION, stats):
            paths_run = self._paths_run(prediction)
            front = prediction.bounds[:-1]
            for j in range(self.k):
                active = paths_run > j
                if not active.any():
                    break
                # Path j starts from each active chunk's j-th candidate.
                starts = np.zeros(n, dtype=np.int64)
                starts[active] = prediction.states[front[active] + j]
                ends = self.engine.run_batch(
                    partition.chunks,
                    starts,
                    stats=stats,
                    phase=KernelPhase.SPECULATIVE_EXECUTION,
                    lengths=partition.lengths,
                    active=active,
                )
                vr.add_batch(
                    np.flatnonzero(active), starts[active], ends[active], own=True
                )
            stats.charge_sync(KernelPhase.SPECULATIVE_EXECUTION)

        # --- stage 1: parallel tree-like verification & merge -----------
        # Two levels, as in the paper's Fig. 2: ① intra-warp verification
        # first (register shuffles between neighbouring lanes), then ②
        # inter-warp rounds through shared memory with barriers.
        dev = self.sim.device
        with self._phase_span(KernelPhase.MERGE, stats):
            intra_rounds, n_warps, inter_rounds = self._tree_merge_rounds(n)
            for _ in range(intra_rounds):
                stats.comm_ops += self.k * n
                stats.charge(KernelPhase.MERGE, dev.shuffle_cycles)
                stats.charge_verify(
                    KernelPhase.MERGE,
                    checks_per_thread=self.k,
                    total_checks=self.k * n,
                )
            for _ in range(inter_rounds):
                stats.comm_ops += self.k * n_warps
                stats.charge(KernelPhase.MERGE, dev.comm_cycles)
                stats.charge_verify(
                    KernelPhase.MERGE,
                    checks_per_thread=self.k,
                    total_checks=self.k * n_warps,
                )
                stats.charge_sync(KernelPhase.MERGE)

        # --- stage 2: sequential verification and must-be-done recovery --
        end_p = vr.lookup(0, start)  # chunk 0 ran from the real start state
        chunk_ends = np.empty(n, dtype=np.int64)
        chunk_ends[0] = end_p
        for i in range(1, n):
            recorded = vr.lookup(i, int(end_p))
            if recorded is not None:
                stats.matches += 1
                end_p = int(recorded)
                chunk_ends[i] = end_p
                continue
            with self._phase_span(
                "verify_recover.round",
                stats,
                frontier=i,
                matched=False,
                active_threads=1,
            ):
                stats.mismatches += 1
                stats.charge_comm(KernelPhase.VERIFY_RECOVER, 1)
                stats.charge_verify(
                    KernelPhase.VERIFY_RECOVER,
                    checks_per_thread=self.k,
                    total_checks=self.k,
                )
                end_p = self._recover_chunk(partition, i, end_p, stats, vr)
                chunk_ends[i] = end_p

        self._charge_off_path(stats, partition)
        return end_p, chunk_ends
