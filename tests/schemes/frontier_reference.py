"""The full-width frontier loop the event-driven one replaced.

``reference_execute`` is the former body of ``FrontierLoopScheme._execute``:
every round forwards all predecessor end states, scans the whole
``VRStore`` for them and recomputes every chunk's end, whether or not any
of that round's inputs changed.  It stays here as the oracle — the
event-driven loop, which rescans only the chunks whose forwarded state or
records changed, must leave the same answer, ledger, span tree, prediction
cursors and ``VRStore`` behind.  Install it with
``monkeypatch.setattr(FrontierLoopScheme, "_execute", reference_execute)``.
"""

import numpy as np

from repro.gpu.kernel import KernelPhase
from repro.schemes.recovery_common import RoundContext
from repro.speculation.records import VRStore


def reference_execute(self, partition, start, stats):
    """Algorithm 3's frontier loop with a whole-store scan every round."""
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
        oracle_ends = self._audit_stash["oracle_chain"]
    end_c = self._speculative_execution(partition, prediction, stats, vr)
    end_c = end_c.astype(np.int64)

    phase = KernelPhase.VERIFY_RECOVER
    scan_depth, n_records = vr.scan_cost()
    prev_snapshot = end_c.copy()
    last_change_round = np.zeros(n, dtype=np.int64)
    every_chunk = np.arange(n)

    for f in range(n):
        with self._phase_span("verify_recover.round", stats, frontier=f) as round_span:
            end_p = np.empty(n, dtype=np.int64)
            end_p[0] = start
            end_p[1:] = prev_snapshot[:-1]
            stats.charge_comm(phase, n - 1 if n > 1 else 0)

            found, hit = vr.scan(every_chunk, end_p)
            new_end = np.where(found, hit, end_c)
            stats.charge_verify(
                phase, checks_per_thread=scan_depth, total_checks=n_records
            )
            changed = new_end != end_c
            end_c = new_end

            mark = bool(found[f])
            if mark:
                stats.matches += 1
            else:
                stats.mismatches += 1
            stats.charge_sync(phase)

            stable = np.ones(n, dtype=bool)
            stable[1:] = last_change_round[:-1] < f
            last_change_round[changed] = f + 1

            n_active = 0
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
                    recovered, _ = self._execute_recoveries(
                        assignments, partition, end_c, vr, stats, f
                    )
                    last_change_round[recovered] = f + 1
                    scan_depth, n_records = vr.scan_cost()
                else:
                    stats.record_recovery_round(active_threads=0)
            vr.charge_shared_traffic(stats, phase)
            prev_snapshot = end_c.copy()
            if oracle_ends is not None:
                self._audit_verified_prefix(end_c, oracle_ends, f)
            if round_span:
                round_span.set_attr("matched", mark)
                round_span.set_attr("active_threads", n_active)

    with self._phase_span(KernelPhase.MERGE, stats):
        pass
    return int(end_c[n - 1]), end_c
