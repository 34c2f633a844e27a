"""Default speculative DFA parallelization (Algorithm 2).

Spec-1 parallel execution followed by strictly sequential verification and
recovery: walk the chunks in order, re-executing any chunk whose speculated
start state disagrees with the verified end of its predecessor.  Each
recovery occupies one thread while all others idle — the under-utilization
the paper's speculative recovery removes.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import KernelPhase
from repro.schemes.base import Scheme
from repro.speculation.records import VRStore


class SpecSequentialScheme(Scheme):
    """Algorithm 2: speculation + sequential verification and recovery."""

    name = "spec-seq"

    def _execute(self, partition, start, stats):
        n = partition.n_chunks
        prediction = self._predict(partition, start, stats)
        vr = VRStore(n_chunks=n)
        self._stash_audit(vr=vr)
        self._speculative_execution(partition, prediction, stats, vr)

        # Sequential verification and recovery (lines 8-14 of Alg. 2).
        end_p = vr.lookup(0, start)  # chunk 0 started from the real state
        chunk_ends = np.empty(n, dtype=np.int64)
        chunk_ends[0] = end_p
        for i in range(1, n):
            with self._phase_span(
                "verify_recover.round", stats, frontier=i
            ) as round_span:
                stats.charge_comm(KernelPhase.VERIFY_RECOVER, 1)
                vr.charge_check(stats, i, KernelPhase.VERIFY_RECOVER)
                recorded = vr.lookup(i, int(end_p))
                matched = recorded is not None
                if matched:
                    stats.matches += 1
                    end_p = int(recorded)
                else:
                    stats.mismatches += 1
                    end_p = self._recover_chunk(partition, i, end_p, stats, vr)
                if round_span:
                    round_span.set_attr("matched", matched)
                    round_span.set_attr("active_threads", int(not matched))
                chunk_ends[i] = end_p
        with self._phase_span(KernelPhase.MERGE, stats):
            pass
        return end_p, chunk_ends
