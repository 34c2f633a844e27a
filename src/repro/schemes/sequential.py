"""Sequential reference execution (one thread, the whole stream).

This is the ground truth every parallel scheme is checked against, and the
baseline for "speedup over sequential" reporting.  On the simulated device it
occupies a single lane of a single warp — the embarrassingly sequential
regime the paper sets out to break.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.kernel import KernelPhase
from repro.schemes.base import Scheme
from repro.speculation.chunks import Partition


class SequentialScheme(Scheme):
    """Single-thread DFA processing (Algorithm 1's FSM_Processing)."""

    name = "seq"

    def _partition(self, symbols) -> Partition:
        """The whole stream as one chunk (empty streams included)."""
        return Partition(
            chunks=symbols.reshape(1, -1),
            lengths=np.asarray([symbols.size]),
            offsets=np.zeros(1, dtype=np.int64),
            symbols=symbols,
        )

    def _execute(self, partition, start, stats):
        with self._phase_span(KernelPhase.SPECULATIVE_EXECUTION, stats):
            ends = self.engine.run_batch(
                partition.chunks,
                np.asarray([start], dtype=np.int64),
                stats=stats,
                phase=KernelPhase.SPECULATIVE_EXECUTION,
            )
        with self._phase_span(KernelPhase.MERGE, stats):
            pass
        return int(ends[0]), ends
