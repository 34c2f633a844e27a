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
import functools
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.automata.dfa import DFA
from repro.automata.properties import profile_state_frequencies
from repro.engine import ExecutionBackend
from repro.gpu.device import RTX3090, DeviceSpec
from repro.gpu.kernel import GpuSimulator, KernelPhase
from repro.gpu.stats import KernelStats
from repro.observability import NULL_TRACER
from repro.speculation.chunks import Partition, partition_input
from repro.speculation.observations import LiveObservations
from repro.speculation.predictor import Prediction, predict_start_states
from repro.speculation.records import VRStore
from repro.selfcheck.audit import selfcheck_enabled
from repro.errors import MissingTrainingInputWarning, SchemeError


@dataclass
class SchemeResult:
    """Outcome of one scheme execution.

    Attributes
    ----------
    end_state:
        Final DFA state in the *original* (untransformed) numbering.
    accepts:
        Whether the end state is accepting.
    stats:
        Cycle/operation ledger of the simulated kernel.
    scheme:
        Name of the scheme that produced this result.
    n_chunks:
        Number of chunks/threads used.
    chunk_ends:
        Optional ``(n_chunks,)`` array of *verified* end states per chunk
        (original numbering).  Filled by schemes that materialize the chain;
        enables post-hoc queries like first-match offsets without a rescan.
    observations:
        :class:`~repro.speculation.observations.LiveObservations` for this
        run — predictor hits/misses at the scheme's spec-k, recovery effort
        and traffic volume (segments, symbols).  Attached universally by the run
        wrapper; the serving tier feeds it to the drift monitor.
    """

    end_state: int
    accepts: bool
    stats: KernelStats
    scheme: str
    n_chunks: int
    chunk_ends: Optional[np.ndarray] = None
    observations: Optional[LiveObservations] = None

    @property
    def cycles(self) -> float:
        return self.stats.cycles

    @property
    def time_ms(self) -> float:
        return self.stats.time_ms


def _wrap_run_with_audit(run):
    """Wrap a scheme's ``run`` so the selfcheck audit fires after it and
    the run's :class:`LiveObservations` are attached to the result.

    Applied once per class by ``Scheme.__init_subclass__``; the audit half
    is skipped when :attr:`Scheme.selfcheck` is off, but the observation
    record is attached on every path — it is the serving tier's drift
    signal, not a debugging aid.
    """

    @functools.wraps(run)
    def audited_run(self, data, start_state=None):
        if not self.selfcheck:
            result = run(self, data, start_state)
            _attach_observations(self, data, result)
            return result
        from repro.selfcheck.audit import audit_scheme_run

        self._audit_stash = {}
        try:
            result = run(self, data, start_state)
            audit_scheme_run(self, data, start_state, result)
        finally:
            self._audit_stash = None
        _attach_observations(self, data, result)
        return result

    audited_run._selfcheck_wrapped = True
    return audited_run


def _attach_observations(scheme, data, result) -> None:
    """Fill ``result.observations`` from the run's ledger and input.

    The spec-k of the evidence is the depth the scheme actually verified
    at: PM exposes its configured ``k``; every other speculative scheme
    checks the front-of-queue candidate first, i.e. spec-1.  Schemes
    without boundary verification (sfa, seq) naturally carry zero samples.
    """
    if result is None or getattr(result, "observations", None) is not None:
        return
    from repro.automata.dfa import _as_symbol_array

    result.observations = LiveObservations.from_run(
        result.stats,
        _as_symbol_array(data),
        scheme=scheme.name,
        spec_k=getattr(scheme, "k", 1),
        boundary_evidence=scheme.boundary_evidence,
    )


class Scheme(abc.ABC):
    """Base class: owns the simulator, the thread count, and phase 1–2.

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
    #: but zero accuracy evidence — the drift monitor's dormancy
    #: contract depends on it.
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
        #: runtime invariant audits (repro.selfcheck); defaults to the
        #: ``REPRO_SELFCHECK`` environment variable, overridable per
        #: instance (GSpecPal threads its config's flag through here).
        self.selfcheck = selfcheck_enabled()
        #: per-run scratch the audit reads; a dict only while an audited
        #: run is in flight (see ``_stash_audit``), ``None`` otherwise.
        self._audit_stash = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        run = cls.__dict__.get("run")
        if run is not None and not getattr(run, "_selfcheck_wrapped", False):
            cls.run = _wrap_run_with_audit(run)

    def _stash_audit(self, **kw) -> None:
        """Expose run internals (partition/prediction/vr/…) to the audit.

        No-op unless an audited run is in flight, so un-audited runs pay
        nothing.
        """
        if self._audit_stash is not None:
            self._audit_stash.update(kw)

    # ------------------------------------------------------------------
    @property
    def engine(self) -> ExecutionBackend:
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
        metrics=None,
        backend: Optional[str] = None,
        **kwargs,
    ) -> "Scheme":
        """Convenience constructor: load ``dfa`` on a device and build the
        scheme.  ``training_input`` feeds the frequency profile; when absent
        the transformation is skipped (hash layout with a trivial profile)
        and a :class:`~repro.errors.MissingTrainingInputWarning` is emitted.
        ``metrics`` attaches a registry to the executor; ``backend`` selects
        the execution engine (``"sim"``/``"fast"``, default per
        ``$REPRO_BACKEND``); a ``tracer`` kwarg is forwarded to the scheme."""
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
            if metrics is not None:
                metrics.counter("scheme.transformation_auto_disabled").inc()
        sim = GpuSimulator(
            dfa=dfa,
            device=device,
            use_transformation=use_transformation,
            profile=(
                profile_state_frequencies(dfa, bytes(training_input))
                if training_input is not None
                else None
            ),
            metrics=metrics,
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

    def _scheme_span(self, stats: KernelStats, **attrs):
        """Root span of one ``run()``: opens at cycle 0 so it covers the
        launch overhead ``new_stats`` pre-charged before tracing began."""
        return self.tracer.span(
            f"scheme:{self.name}",
            cycle_source=stats,
            cycle_start=0.0,
            scheme=self.name,
            n_threads=self.n_threads,
            **attrs,
        )

    def _launch_span(self, stats: KernelStats):
        """Zero-width span claiming the pre-charged kernel-launch cycles, so
        sibling phase spans tile the ledger exactly."""
        return self.tracer.span(
            KernelPhase.LAUNCH, cycle_source=stats, cycle_start=0.0
        )

    # ------------------------------------------------------------------
    # shared phases
    # ------------------------------------------------------------------
    def _partition(self, data) -> Partition:
        return partition_input(data, self.n_threads)

    def _predict(
        self,
        partition: Partition,
        stats: KernelStats,
        exec_start: Optional[int] = None,
    ) -> Prediction:
        """Phase 1: all-state lookback-2 prediction (cost = the constant C).

        Frequency ties are broken in *original* state space so speculation
        order does not depend on whether the frequency transformation is on.
        A custom predictor set on the scheme (any callable with
        :func:`~repro.speculation.predictor.predict_start_states`' signature)
        replaces the paper's lookback-2 default, which is looked up here at
        call time so it can be patched on this module.
        """
        start = exec_start if exec_start is not None else self.sim.exec_start_state
        predict = self.predictor if self.predictor is not None else predict_start_states
        return predict(
            self.sim.exec_dfa,
            partition,
            start,
            stats=stats,
            device=self.sim.device,
            tie_break=self.sim.to_user_states,
        )

    def _speculative_execution(
        self,
        partition: Partition,
        prediction: Prediction,
        stats: KernelStats,
        vr: VRStore,
    ) -> np.ndarray:
        """Phase 2 (spec-1 flavour): every thread runs its own chunk from the
        front of its speculation queue; records land in ``VR_i^end``.

        The front candidate is *dequeued* so later recovery scheduling
        enumerates genuinely new states.
        """
        starts = prediction.dequeue_fronts()
        ends = self.engine.run_batch(
            partition.chunks,
            starts,
            stats=stats,
            phase=KernelPhase.SPECULATIVE_EXECUTION,
            lengths=partition.lengths,
        )
        vr.add_batch(np.arange(partition.n_chunks), starts, ends, own=True)
        stats.charge_sync(KernelPhase.SPECULATIVE_EXECUTION)
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

    def _finish(
        self,
        end_state_exec: int,
        stats: KernelStats,
        chunk_ends_exec: Optional[np.ndarray] = None,
    ) -> SchemeResult:
        """Translate the end state back to user space and wrap up."""
        end_user = self.sim.to_user_state(int(end_state_exec))
        chunk_ends = (
            self.sim.to_user_states(np.asarray(chunk_ends_exec, dtype=np.int64))
            if chunk_ends_exec is not None
            else None
        )
        return SchemeResult(
            end_state=end_user,
            accepts=end_user in self.sim.dfa.accepting,
            stats=stats,
            scheme=self.name,
            n_chunks=self.n_threads,
            chunk_ends=chunk_ends,
        )

    def _exec_start(self, start_state: Optional[int]) -> int:
        """Executor-space start state (defaults to the DFA's q0)."""
        if start_state is None:
            return self.sim.exec_start_state
        return self.sim.to_exec_state(int(start_state))

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def run(self, data, start_state: "Optional[int]" = None) -> SchemeResult:
        """Execute the scheme over ``data`` from ``start_state`` (default
        the DFA's initial state) and return the result."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_threads={self.n_threads}, dfa={self.sim.dfa.name!r})"
