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
from repro.schemes.base import Scheme, SchemeResult
from repro.speculation.records import VRStore


class SpecSequentialScheme(Scheme):
    """Algorithm 2: speculation + sequential verification and recovery."""

    name = "spec-seq"

    def run(self, data, start_state=None) -> SchemeResult:
        partition = self._partition(data)
        n = partition.n_chunks
        stats = self.sim.new_stats(n_threads=self.n_threads)
        with self._scheme_span(stats, n_chunks=n):
            with self._launch_span(stats):
                pass
            exec_start = self._exec_start(start_state)
            with self._phase_span(KernelPhase.PREDICT, stats):
                prediction = self._predict(partition, stats, exec_start=exec_start)
            vr = VRStore(n_chunks=n)
            self._stash_audit(
                partition=partition,
                prediction=prediction,
                vr=vr,
                exec_start=exec_start,
            )
            with self._phase_span(KernelPhase.SPECULATIVE_EXECUTION, stats):
                self._speculative_execution(partition, prediction, stats, vr)

            # Sequential verification and recovery (lines 8-14 of Alg. 2).
            end_p = vr.lookup(0, exec_start)  # chunk 0 started from the real state
            chunk_ends = np.empty(n, dtype=np.int64)
            chunk_ends[0] = end_p
            for i in range(1, n):
                with self._phase_span(
                    "verify_recover.round", stats, frontier=i
                ) as round_span:
                    stats.charge_comm(KernelPhase.VERIFY_RECOVER, 1)
                    vr.charge_check(stats, i, KernelPhase.VERIFY_RECOVER)
                    recorded = vr.lookup(i, int(end_p))
                    if recorded is None:
                        stats.mismatches += 1
                        end_c = self._recover_chunk(partition, i, end_p, stats, vr)
                    else:
                        stats.matches += 1
                        end_c = int(recorded)
                    if round_span:
                        round_span.set_attr("matched", recorded is not None)
                        round_span.set_attr(
                            "active_threads", 0 if recorded is not None else 1
                        )
                    end_p = end_c
                    chunk_ends[i] = end_c
            with self._phase_span(KernelPhase.MERGE, stats):
                vr.charge_shared_traffic(stats, KernelPhase.VERIFY_RECOVER)
                result = self._finish(end_p, stats, chunk_ends_exec=chunk_ends)
        return result
