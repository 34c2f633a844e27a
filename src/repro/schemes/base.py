"""Shared scaffolding for all parallelization schemes.

A scheme is constructed around a :class:`~repro.gpu.kernel.GpuSimulator`
(which fixes the device, the table layout, and the optional frequency
transformation) plus a thread count.  ``run(data)`` executes the three-phase
pipeline of the paper — predict, speculative parallel execution, verify &
recover — and returns a :class:`SchemeResult` carrying both the functional
answer (end state / accept decision, guaranteed equal to the sequential
reference) and the :class:`~repro.gpu.stats.KernelStats` cost ledger.
"""

from __future__ import annotations

import abc
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.automata.dfa import DFA, _as_symbol_array
from repro.automata.properties import profile_state_frequencies
from repro.engine.base import validate_starts
from repro.gpu.device import RTX3090, DeviceSpec
from repro.gpu.kernel import GpuSimulator, KernelPhase
from repro.gpu.stats import KernelStats
from repro.observability import NULL_TRACER
from repro.speculation.chunks import Partition, partition_input
from repro.speculation.observations import LiveObservations
from repro.speculation.predictor import Prediction, predict_start_states
from repro.speculation.records import VRStore
from repro.selfcheck.audit import audit_scheme_run, oracle_chain
from repro.errors import MissingTrainingInputWarning, SchemeError


@dataclass
class SchemeResult:
    """Outcome of one scheme execution.

    Attributes
    ----------
    end_state:
        Final DFA state.
    accepts:
        Whether the end state is accepting.
    stats:
        Cycle/operation ledger of the simulated kernel.
    scheme:
        Name of the scheme that produced this result.
    n_chunks:
        Number of chunks/threads used.
    chunk_ends:
        ``(n_chunks,)`` array of *verified* end states per chunk; enables
        post-hoc queries like first-match offsets without a rescan.
    observations:
        :class:`~repro.speculation.observations.LiveObservations` for this
        run — predictor hits/misses at the scheme's spec-k, recovery effort
        and traffic volume (segments, symbols).  Attached to every result by
        :meth:`Scheme.run`; the serving tier feeds it to the drift monitor.
    """

    end_state: int
    accepts: bool
    stats: KernelStats
    scheme: str
    n_chunks: int
    chunk_ends: np.ndarray
    observations: Optional[LiveObservations] = None

    @property
    def cycles(self) -> float:
        return self.stats.cycles

    @property
    def time_ms(self) -> float:
        return self.stats.time_ms


class Scheme(abc.ABC):
    """Base class: owns the simulator, the thread count, the one ``run``
    and the phases the schemes share.

    Parameters
    ----------
    sim:
        The automaton loaded on the simulated device.  Use
        :meth:`Scheme.for_dfa` to build both in one call.
    n_threads:
        Number of GPU threads == number of input chunks ``N``.
    """

    name: str = "abstract"
    #: whether this scheme's ledger ``matches``/``mismatches`` count
    #: *verified speculation boundaries*.  Misprediction-free schemes
    #: whose matches are exact by construction (SFA's mapping
    #: compositions) set this False so their runs carry traffic shape
    #: but zero accuracy evidence — the drift monitor never moves its
    #: EWMA on a sample-free run.
    boundary_evidence: bool = True

    def __init__(
        self, sim: GpuSimulator, n_threads: int = 256, predictor=None, tracer=None
    ):
        if n_threads < 1:
            raise SchemeError(f"n_threads must be >= 1, got {n_threads}")
        self.sim = sim
        self.n_threads = int(n_threads)
        self.predictor = predictor  # None -> the paper's lookback-2
        #: span sink; the no-op default keeps tracing opt-in and free.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: runtime invariant audits (repro.selfcheck): the simulator's
        #: resolved switch, overridable per instance.
        self.selfcheck = sim.selfcheck
        #: per-run scratch the audit reads; a dict only while an audited
        #: run is in flight (see ``_stash_audit``), ``None`` otherwise.
        self._audit_stash = None

    def _stash_audit(self, **kw) -> None:
        """Expose run internals (partition/prediction/vr/…) to the audit.

        No-op unless an audited run is in flight, so un-audited runs pay
        nothing.
        """
        if self._audit_stash is not None:
            self._audit_stash.update(kw)

    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The execution backend every transition step routes through."""
        return self.sim.engine

    # ------------------------------------------------------------------
    @classmethod
    def for_dfa(
        cls,
        dfa: DFA,
        *,
        n_threads: int = 256,
        device: DeviceSpec = RTX3090,
        training_input=None,
        use_transformation: bool = True,
        backend: Optional[str] = None,
        **kwargs,
    ) -> "Scheme":
        """Convenience constructor: load ``dfa`` on a device and build the
        scheme.  ``training_input`` feeds the frequency profile; when absent
        the transformation is skipped (hash layout with a trivial profile)
        and a :class:`~repro.errors.MissingTrainingInputWarning` is emitted.
        ``backend`` selects the execution engine (``"sim"``/``"fast"``,
        default per ``$REPRO_BACKEND``); a ``tracer`` kwarg is forwarded to
        the scheme."""
        if training_input is None and use_transformation:
            use_transformation = False
            warnings.warn(
                f"{cls.__name__}.for_dfa: no training_input to profile state "
                "frequencies, so the frequency transformation is disabled "
                "(falling back to the hash hot layout); pass a training "
                "input, or use_transformation=False to silence this",
                MissingTrainingInputWarning,
                stacklevel=2,
            )
        sim = GpuSimulator(
            dfa=dfa,
            device=device,
            use_transformation=use_transformation,
            profile=(
                profile_state_frequencies(dfa, bytes(training_input))
                if training_input is not None
                else None
            ),
            backend=backend,
        )
        return cls(sim, n_threads=n_threads, **kwargs)

    # ------------------------------------------------------------------
    # tracing helpers
    # ------------------------------------------------------------------
    def _phase_span(self, name: str, stats: KernelStats, **attrs):
        """A cycle-stamped span using the run's ledger as its clock, so the
        span's ``cycles`` is exactly what was charged while it was open."""
        return self.tracer.span(name, cycle_source=stats, **attrs)

    # ------------------------------------------------------------------
    # shared phases
    # ------------------------------------------------------------------
    def _partition(self, data) -> Partition:
        return partition_input(data, self.n_threads)

    def _predict(
        self, partition: Partition, start: int, stats: KernelStats
    ) -> Prediction:
        """Phase 1, in its span: all-state lookback-2 prediction (cost = the
        constant C).

        A custom predictor set on the scheme (any callable with
        :func:`~repro.speculation.predictor.predict_start_states`' signature)
        replaces the paper's lookback-2 default, which is looked up here at
        call time so it can be patched on this module.
        """
        predict = self.predictor if self.predictor is not None else predict_start_states
        with self._phase_span(KernelPhase.PREDICT, stats):
            prediction = predict(
                self.sim.dfa, partition, start, stats=stats, device=self.sim.device
            )
        self._stash_audit(prediction=prediction)
        return prediction

    def _speculative_execution(
        self,
        partition: Partition,
        prediction: Prediction,
        stats: KernelStats,
        vr: VRStore,
    ) -> np.ndarray:
        """Phase 2 (spec-1 flavour), in its span: every thread runs its own
        chunk from the front of its speculation queue; records land in
        ``VR_i^end``.

        The front candidate is *dequeued* so later recovery scheduling
        enumerates genuinely new states.
        """
        phase = KernelPhase.SPECULATIVE_EXECUTION
        with self._phase_span(phase, stats):
            starts = prediction.dequeue_fronts()
            ends = self.engine.run_batch(
                partition.chunks,
                starts,
                stats=stats,
                phase=phase,
                lengths=partition.lengths,
            )
            vr.add_batch(np.arange(partition.n_chunks), starts, ends, own=True)
            stats.charge_sync(phase)
        return ends

    def _recover_chunk(
        self,
        partition: Partition,
        chunk: int,
        start: int,
        stats: KernelStats,
        vr: VRStore,
    ) -> int:
        """One must-be-done recovery (Alg. 2 l.11, PM's stage 2): a single
        thread re-executes ``chunk`` from the verified ``start`` while every
        other thread idles — the sequential bottleneck.  The record lands
        in ``VR_chunk^end``; returns the chunk's end state."""
        phase = KernelPhase.VERIFY_RECOVER
        stats.record_recovery_round(active_threads=1)
        stats.recoveries_executed += 1
        before = stats.phase_cycles.get(phase, 0.0)
        ends = self.engine.run_batch(
            partition.chunks[chunk : chunk + 1],
            np.asarray([start], dtype=np.int64),
            stats=stats,
            phase=phase,
            lengths=partition.lengths[chunk : chunk + 1],
            chunk_ids=np.asarray([chunk]),
        )
        stats.recovery_exec_cycles += stats.phase_cycles.get(phase, 0.0) - before
        end = int(ends[0])
        vr.add(chunk, start, end, own=True)
        return end

    def _tree_merge_rounds(self, n: int) -> Tuple[int, int, int]:
        """``(intra_rounds, n_warps, inter_rounds)`` of a two-level tree
        merge over ``n`` chunks, as in the paper's Fig. 2: ``log`` rounds of
        register shuffles inside a warp, then ``log`` rounds between warps
        through shared memory."""
        warp = self.sim.device.warp_size
        intra_rounds = math.ceil(math.log2(min(n, warp))) if n > 1 else 0
        n_warps = -(-n // warp)
        inter_rounds = math.ceil(math.log2(n_warps)) if n_warps > 1 else 0
        return intra_rounds, n_warps, inter_rounds

    @staticmethod
    def _charge_off_path(stats: KernelStats, partition: Partition) -> None:
        """Count every transition beyond the ground-truth path — one pass
        over each chunk — as redundant."""
        useful = int(partition.lengths.sum())
        stats.redundant_transitions += max(0, stats.transitions - useful)

    def _finish(
        self, end_state: int, stats: KernelStats, chunk_ends: np.ndarray
    ) -> SchemeResult:
        """The run's result, before its observations are attached."""
        end_state = int(end_state)
        return SchemeResult(
            end_state=end_state,
            accepts=end_state in self.sim.dfa.accepting,
            stats=stats,
            scheme=self.name,
            n_chunks=self.n_threads,
            chunk_ends=np.asarray(chunk_ends, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    def run(self, data, start_state: Optional[int] = None) -> SchemeResult:
        """Execute the scheme over ``data`` from ``start_state`` (default
        the DFA's initial state) and return the result.

        The one ``run`` of every scheme: it partitions the input, opens the
        ledger and the ``scheme:<name>`` root and launch spans, hands the
        scheme's algorithm (:meth:`_execute`) its range-checked start,
        audits the run when :attr:`selfcheck` is on and attaches the run's
        :class:`LiveObservations` — the serving tier's drift signal — on
        every path.
        """
        symbols = _as_symbol_array(data)
        partition = self._partition(symbols)
        stats = self.sim.new_stats(n_threads=partition.n_chunks)
        audited = self.selfcheck
        try:
            # The root opens at cycle 0 to cover the launch overhead
            # ``new_stats`` pre-charged, and a zero-width launch span claims
            # it, so the phase spans tile the ledger exactly.
            with self.tracer.span(
                f"scheme:{self.name}",
                cycle_source=stats,
                cycle_start=0.0,
                scheme=self.name,
                n_threads=self.n_threads,
                n_chunks=partition.n_chunks,
                **self._root_attrs(),
            ):
                with self.tracer.span(
                    KernelPhase.LAUNCH, cycle_source=stats, cycle_start=0.0
                ):
                    pass
                dfa = self.sim.dfa
                start = dfa.start if start_state is None else int(start_state)
                if not 0 <= start < dfa.n_states:  # scalar test: no numpy per feed
                    # Not left to the backend: SFA's chain would read a
                    # start of -1 as ``mappings[:, -1]``.
                    validate_starts(
                        [start], n_states=dfa.n_states, backend=self.engine.name
                    )
                if audited:
                    self._audit_stash = {
                        "partition": partition,
                        "oracle_chain": oracle_chain(
                            self, symbols, partition, start_state
                        ),
                    }
                end_state, chunk_ends = self._execute(partition, start, stats)
                result = self._finish(end_state, stats, chunk_ends)
            if audited:
                audit_scheme_run(self, symbols, start_state, result)
        finally:
            self._audit_stash = None
        # The evidence is at the depth the scheme verified: PM's ``k``,
        # the front candidate (spec-1) for every other scheme.
        result.observations = LiveObservations.from_run(
            stats,
            symbols,
            scheme=self.name,
            spec_k=getattr(self, "k", 1),
            boundary_evidence=self.boundary_evidence,
        )
        return result

    @abc.abstractmethod
    def _execute(
        self, partition: Partition, start: int, stats: KernelStats
    ) -> Tuple[int, np.ndarray]:
        """The scheme's algorithm over ``partition`` from ``start``,
        charging ``stats`` and opening its phase spans; returns the end
        state and every chunk's end."""

    def _root_attrs(self) -> dict:
        """Extra attributes of this scheme's ``scheme:<name>`` span."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_threads={self.n_threads}, dfa={self.sim.dfa.name!r})"
