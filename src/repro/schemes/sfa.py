"""SFA: misprediction-free parallelization via simultaneous finite automata.

Sin'ya & Matsuzaki's simultaneous finite automata (arXiv:1405.0562) sidestep
speculation entirely: instead of guessing each chunk's start state, every
chunk computes its *full* state→state transition function — the end state
from **every** possible start — as a ``(n_states,)`` mapping row.  The
mappings then compose left-to-right (function composition is associative,
so the combine parallelizes into a ``log N`` tree like PM's merge), and the
answer is exact with **zero** recovery rounds: there is no mispredict path
because nothing was predicted.

The price is construction cost: each chunk runs ``n_states`` lanes instead
of one, so SFA only wins where speculation accuracy is so low that the four
speculative schemes degrade toward their sequential worst case.  Two
levers keep the cost bounded:

* **Fingerprint deduplication** (the arXiv:1512.09228 SDFA trick):
  chunks are grouped by a hash-and-verify fingerprint of their content —
  :func:`~repro.automata.minimize.group_rows`, whose exact check means a
  hash collision can never change the answer — and one mapping is built
  per *unique* chunk: periodic or low-entropy inputs collapse to a
  handful of constructions.
* **Reachable-width pruning happens naturally**: after a few symbols the
  image of the full state set typically collapses to a small set of
  surviving states, which is why the cost model prices SFA with the
  profiled ``reachable_width`` feature rather than ``n_states``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.automata.minimize import group_rows
from repro.automata.properties import distinct_per_row
from repro.gpu.kernel import KernelPhase
from repro.schemes.base import Scheme


def group_chunks(
    chunks: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Group identical chunks: ``(representatives, inverse)``.

    ``representatives[g]`` is the first chunk of group ``g`` and
    ``inverse[i]`` the group of chunk ``i``; groups are numbered in order
    of first appearance.  One :func:`~repro.automata.minimize.group_rows`
    call groups the ``[chunks | lengths]`` rows: the padding past a chunk's
    length is zero, so two rows are equal exactly when the chunks are.
    """
    first, inv = group_rows(np.column_stack((chunks, lengths)))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inv]


class SFAScheme(Scheme):
    """Simultaneous-finite-automata execution: exact, speculation-free.

    Three phases replace the predict/speculate/recover pipeline:

    1. **dedupe** — fingerprint the chunks and keep one representative
       per distinct content;
    2. **mapping** — build each unique chunk's full state→state mapping on
       the execution backend (``run_mappings``: ``n_states`` lanes per
       chunk advance in lockstep);
    3. **compose** — chain the mappings left-to-right through the carried
       state, charging the ``log N`` parallel combine the SFA paper's tree
       reduction would run on the device.
    """

    name = "sfa"
    #: the ledger's ``matches`` are exact mapping compositions, not
    #: verified speculation boundaries — never accuracy evidence.
    boundary_evidence = False

    def _root_attrs(self) -> dict:
        return {"n_states": self.sim.dfa.n_states}

    def _execute(self, partition, start, stats):
        n = partition.n_chunks

        # --- phase 1: fingerprint dedupe (host-side, cheap) -------------
        with self._phase_span(KernelPhase.PREDICT, stats, kind="fingerprint"):
            reps, inverse = group_chunks(partition.chunks, partition.lengths)
            # One hash pass over the input, pipelined across chunks:
            # charge it like a predictor replay, not a kernel.
            stats.charge(
                KernelPhase.PREDICT,
                2.0 * self.sim.device.transition_compute_cycles,
            )
        n_unique = int(reps.size)

        # --- phase 2: mapping construction (the expensive part) ---------
        with self._phase_span(KernelPhase.MAPPING, stats, unique_chunks=n_unique):
            mappings = self.engine.run_mappings(
                partition.chunks[reps],
                lengths=partition.lengths[reps],
                stats=stats,
                phase=KernelPhase.MAPPING,
                chunk_ids=reps,
            )
            stats.charge_sync(KernelPhase.MAPPING)

        # --- phase 3: log-depth mapping composition ---------------------
        # The device combine is a PM-style two-level tree (intra-warp
        # shuffles, then inter-warp rounds through shared memory), but each
        # merge forwards a full mapping — ``width`` states — not a scalar.
        # ``width`` is the realized image size, which the state-convergence
        # collapse keeps far below ``n_states``.
        dev = self.sim.device
        width = max(1, int(np.mean(distinct_per_row(mappings))))
        with self._phase_span(KernelPhase.MERGE, stats, width=width):
            intra_rounds, n_warps, inter_rounds = self._tree_merge_rounds(n)
            for _ in range(intra_rounds):
                stats.comm_ops += width * n
                stats.charge(KernelPhase.MERGE, width * dev.shuffle_cycles)
            for _ in range(inter_rounds):
                stats.comm_ops += width * n_warps
                stats.charge(KernelPhase.MERGE, dev.comm_cycles)
                stats.charge(KernelPhase.MERGE, (width - 1) * dev.shuffle_cycles)
                stats.charge_sync(KernelPhase.MERGE)

            # Functional chain through the carried state: exact by
            # construction, no verification and no recovery ever.
            chunk_ends = np.empty(n, dtype=np.int64)
            state = int(start)
            for i in range(n):
                state = int(mappings[inverse[i], state])
                chunk_ends[i] = state
            stats.matches += n

        # Every lane beyond the ground-truth path was insurance work.
        self._charge_off_path(stats, partition)
        self._stash_audit(sfa_mappings=mappings, sfa_reps=reps)
        return state, chunk_ends
