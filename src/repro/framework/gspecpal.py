"""The GSpecPal framework (paper §IV): profile → select → run.

:class:`GSpecPal` is the latency-sensitive front end tying the four
components together — state prediction, state transition (with the
frequency-based transformation), verification & recovery, and the parallel
scheme selector.  Typical use::

    pal = GSpecPal(dfa)
    result = pal.run(stream)           # selects a scheme automatically
    result = pal.run(stream, scheme="nf")  # or force one

Every framework instance is backed by one :class:`~repro.plan.CompiledPlan`
— the paper's whole offline phase (profile → select → transform → train)
frozen into an artifact.  ``GSpecPal(dfa, config, training_input=...)``
compiles it on first need, once, from the training input (or, when none was
supplied, from a leading slice of the first data seen — 0.5% by default,
mirroring the paper's 1 MB-of-20×10 MB methodology).  For serving, the
compile can be hoisted out entirely (:mod:`repro.plan`)::

    plan = compile_plan(dfa, training, config)      # offline, once
    pal = GSpecPal.from_plan(plan)                  # online, zero profiling
    result = pal.run(stream)                        # plan's selection

Either way features, the scheme selection, the frequency transformation and
the hotness profile all come from the artifact, and the simulator is built
from those precomputed pieces — which constructor produced the plan never
changes an answer or a cycle count.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.automata.dfa import DFA, _as_symbol_array
from repro.gpu.kernel import GpuSimulator
from repro.observability import NULL_TRACER
from repro.schemes import SCHEME_REGISTRY, SchemeResult
from repro.schemes.base import Scheme
from repro.schemes.pm import SPEC_K
from repro.selector.cost_model import estimate_costs
from repro.selector.decision_tree import DecisionTreeSelector
from repro.selector.features import FSMFeatures
from repro.framework.config import GSpecPalConfig
from repro.errors import PlanError, SchemeError


class GSpecPal:
    """Latency-sensitive speculative FSM parallelization framework."""

    #: Schemes the selector may pick: the Fig. 6 tree's leaves (the
    #: paper's four plus the misprediction-free SFA leaf).
    SELECTABLE = DecisionTreeSelector.SCHEMES
    #: Every registered scheme name; ``run``/``stream``/``build_scheme``
    #: also accept PM's served name, :data:`PM_ALIAS`.
    KNOWN_SCHEMES = tuple(SCHEME_REGISTRY)
    #: The name ``pm`` serves under: ``pm-spec4``, the paper's baseline.
    PM_ALIAS = f"pm-spec{SPEC_K}"

    def __init__(
        self,
        dfa: DFA,
        config: Optional[GSpecPalConfig] = None,
        *,
        training_input=None,
        tracer=None,
    ):
        self.dfa = dfa
        self.config = config if config is not None else GSpecPalConfig()
        #: the span sink; defaults to the no-op tracer, so instrumented
        #: paths cost nothing unless asked for.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: explicit sample the plan is compiled from (``None`` = the
        #: leading slice of the first data seen).
        self._training: Optional[np.ndarray] = (
            _as_symbol_array(training_input) if training_input is not None else None
        )
        #: the compile-once artifact everything below reads: compiled on
        #: first need (:meth:`compile_plan`) or handed in by :meth:`from_plan`.
        self._plan = None
        self._sim: Optional[GpuSimulator] = None
        #: cached cross-stream gang scheduler (built on first use; shares
        #: the simulator, so it sees the same table/backend every stream
        #: session does).
        self._fused = None

    # ------------------------------------------------------------------
    # compile-once / serve-many
    # ------------------------------------------------------------------
    @classmethod
    def from_plan(
        cls,
        plan,
        *,
        backend: Optional[str] = None,
        selfcheck: Optional[bool] = None,
        tracer=None,
    ) -> "GSpecPal":
        """Serve a :class:`~repro.plan.CompiledPlan` with zero profiling.

        The plan supplies the DFA, the profiled features, the scheme
        selection and the transformation/hotness artifacts; no training
        bytes are touched and no ``compile`` span is ever emitted.  The
        config is the plan's compile-time one, rebuilt with the runtime
        switches ``backend`` / ``selfcheck`` (not part of the compiled
        artifact; ``None`` resolves from the environment).
        """
        plan.verify()
        config = plan.build_config(backend=backend, selfcheck=selfcheck)
        pal = cls(plan.dfa, config, tracer=tracer)
        pal._plan = plan
        return pal

    def compile_plan(self, data=None):
        """The backing :class:`~repro.plan.CompiledPlan`, compiled on first use.

        ``data`` is only needed when the plan does not exist yet and no
        training input was supplied at construction time (a profiling
        slice is taken from it).  The compile runs once per instance,
        under this framework's tracer (one ``compile`` span tree).
        """
        if self._plan is None:
            from repro.plan import compile_plan

            self._plan = compile_plan(
                self.dfa, self._training_slice(data), self.config, tracer=self.tracer
            )
        return self._plan

    @property
    def plan(self):
        """The backing :class:`~repro.plan.CompiledPlan` (see :meth:`compile_plan`)."""
        return self.compile_plan()

    def adopt_plan(self, plan) -> None:
        """Atomically swap in a *revision* of the current backing plan.

        The online-adaptation hot-swap hook: the drift monitor revises a
        plan from live observations (``revise_plan``) and installs it here.
        Only revisions are accepted — same content fingerprint and same
        config hash — which guarantees the frequency/transformation
        artifacts are byte-identical, so the warmed simulator and fused
        engine stay valid and only the *selection* changes.  Open stream
        sessions re-consult ``select_scheme`` on their next segment and
        rebuild their runner on the name change, i.e. the swap lands
        exactly at segment boundaries and never mid-segment.
        """
        current = self.plan
        if plan.fingerprint != current.fingerprint:
            raise PlanError(
                f"adopt_plan: revision is for fingerprint {plan.fingerprint[:12]}…, "
                f"this framework serves {current.fingerprint[:12]}…"
            )
        if plan.config_hash != current.config_hash:
            raise PlanError(
                "adopt_plan: revision was compiled under a different config "
                f"({plan.config_hash[:12]}… vs {current.config_hash[:12]}…)"
            )
        self._plan = plan

    def current_decision_path(self) -> tuple:
        """The Fig. 6 node path behind the current selection: the compiled
        (possibly revised) walk, replayed from the plan."""
        return tuple(self.plan.decision_path)

    # ------------------------------------------------------------------
    # scheme-name validation (fail fast, before any expensive phase)
    # ------------------------------------------------------------------
    @classmethod
    def validate_scheme_name(cls, name: Optional[str]) -> None:
        """Reject an unknown forced-scheme name with an actionable error,
        before any profiling, compile or simulator work.

        Class-level so callers that have no framework instance yet — the
        serving pool validating ``open(scheme=...)`` before paying a
        compile — fail as fast as the run path does.  ``None`` (selector's
        choice) always passes.
        """
        known = cls.KNOWN_SCHEMES + (cls.PM_ALIAS,)
        if name is not None and name not in known:
            raise SchemeError(
                f"unknown scheme {name!r}; known schemes: {', '.join(known)}"
            )

    # ------------------------------------------------------------------
    # profiling
    # ------------------------------------------------------------------
    def _training_slice(self, data) -> np.ndarray:
        if self._training is not None:
            return self._training
        if data is None:
            raise SchemeError(
                "no training input available: pass one to GSpecPal() or "
                "give profile()/run() the data stream"
            )
        symbols = _as_symbol_array(data)
        n = max(
            min(self.config.min_training_symbols, symbols.size),
            int(symbols.size * self.config.training_fraction),
        )
        return symbols[:n]

    def profile(self, data=None) -> FSMFeatures:
        """The plan's profiled FSM feature vector.

        ``data`` is only needed when no training input was supplied at
        construction time (see :meth:`compile_plan`).
        """
        return self.compile_plan(data).features

    def _simulator(self) -> GpuSimulator:
        """The (cached) device-loaded automaton, its table layout derived
        from the plan's hotness profile — raw training bytes are never
        re-profiled here."""
        if self._sim is None:
            self._sim = GpuSimulator(
                dfa=self.dfa,
                device=self.config.device,
                use_transformation=self.config.use_transformation,
                profile=self.plan.frequency_profile(),
                backend=self.config.backend,
                selfcheck=self.config.selfcheck,
            )
        return self._sim

    # ------------------------------------------------------------------
    # selection and execution
    # ------------------------------------------------------------------
    def select_scheme(self, data=None) -> str:
        """The plan's Fig. 6 selection (compiled, or revised since).

        The tree was walked when the plan was compiled; this replays the
        decision.  With tracing enabled, a ``select`` span records the
        feature vector, the tree's decision path and ``from_plan=True``.
        """
        plan = self.compile_plan(data)
        with self.tracer.span("select") as span:
            if span:
                span.set_attr("features", dict(plan.features.as_dict()))
                span.set_attr("path", list(plan.decision_path))
                span.set_attr("decision", plan.scheme)
                span.set_attr("from_plan", True)
            return plan.scheme

    def build_scheme(self, name: str) -> Scheme:
        """Instantiate a scheme sharing this framework's simulator/config
        (and its tracer, so scheme phase spans nest under framework spans)."""
        build = SCHEME_REGISTRY.get("pm" if name == self.PM_ALIAS else name)
        if build is None:
            raise SchemeError(f"unknown scheme {name!r}")
        return build(self._simulator(), self.config, self.tracer)

    def estimate_costs(
        self, data=None, input_length: Optional[int] = None
    ) -> Dict[str, float]:
        """Evaluate the analytical cost model (Eqs. 1–4) under this config.

        The estimates are for ``input_length`` symbols — by default the
        length of ``data``, else of the training input the plan was
        compiled on (see :func:`~repro.selector.cost_model.estimate_costs`).
        """
        plan = self.compile_plan(data)
        if input_length is None:
            input_length = (
                _as_symbol_array(data).size
                if data is not None
                else plan.training_symbols
            )
        return estimate_costs(plan.features, self.config, input_length)

    def run(self, data, scheme: Optional[str] = None) -> SchemeResult:
        """Process ``data``: compile the plan (first use only), select, execute.

        Parameters
        ----------
        scheme:
            Force a specific scheme instead of consulting the selector.
        """
        self.validate_scheme_name(scheme)
        symbols = _as_symbol_array(data)
        with self.tracer.span(
            "gspecpal.run", input_symbols=int(symbols.size)
        ) as span:
            self.compile_plan(symbols)
            name = scheme if scheme is not None else self.select_scheme()
            result = self.build_scheme(name).run(symbols)
            if span:
                span.set_attr("scheme", name)
                span.set_attr("forced", scheme is not None)
                span.set_attr("cycles", result.cycles)
        return result

    def compare_schemes(
        self, data, schemes: Optional[Iterable[str]] = None
    ) -> Dict[str, SchemeResult]:
        """Run several schemes on the same stream (benchmark helper).

        Each compared scheme runs through :meth:`run` (forced), so every
        one gets its own traced ``gspecpal.run`` span — compared runs show
        up in ``repro trace`` like any other — all nested under one
        ``gspecpal.compare`` parent.
        """
        names = tuple(schemes) if schemes is not None else self.SELECTABLE
        for name in names:
            self.validate_scheme_name(name)
        with self.tracer.span("gspecpal.compare", schemes=list(names)):
            return {name: self.run(data, scheme=name) for name in names}

    # ------------------------------------------------------------------
    # match reporting and streaming
    # ------------------------------------------------------------------
    def find_first_match(self, data, scheme: Optional[str] = None) -> Optional[int]:
        """Offset of the first position after which the DFA accepts.

        Requires sticky (absorbing) accepting states — the scanner semantics
        ``compile_regex``/``compile_disjunction`` produce by default — so
        acceptance is monotone along the stream.  The parallel run yields
        verified per-chunk end states; only the single chunk where
        acceptance flips is rescanned to pinpoint the offset.  Returns
        ``None`` when the stream never matches.
        """
        symbols = _as_symbol_array(data)
        result = self.run(symbols, scheme=scheme)
        if not result.accepts:
            return None
        from repro.speculation.chunks import partition_input

        accept = self.dfa.accepting_mask
        partition = partition_input(symbols, result.n_chunks)
        flip = int(np.argmax(accept[np.asarray(result.chunk_ends)]))
        chunk_start_state = (
            self.dfa.start
            if flip == 0
            else int(result.chunk_ends[flip - 1])
        )
        path = self.dfa.run_path(partition.chunk(flip), start=chunk_start_state)
        within = int(np.argmax(accept[path]))
        return int(partition.offsets[flip]) + within

    def fused_engine(self):
        """The (cached) cross-stream gang scheduler for this matcher.

        A :class:`~repro.engine.fused.FusedBatchEngine` sharing this
        framework's simulator: it advances many streams on this plan in a
        single ``(streams × lanes)`` lockstep dispatch instead of N
        per-stream scheme runs (the serving pool fuses across plans with
        :class:`~repro.engine.fused.FusedUnion` instead).  Fused
        dispatches are answer-identical to per-stream feeds (the
        differential suites pin this); handed a ledger, one is Algorithm
        1's stream-level baseline.
        """
        if self._fused is None:
            from repro.engine.fused import FusedBatchEngine

            self._fused = FusedBatchEngine(self._simulator())
        return self._fused

    def stream(self, scheme: Optional[str] = None) -> "StreamSession":
        """Open an incremental session: feed segments, carry state across.

        Each segment is processed with the full parallel machinery from the
        carried DFA state — the framework's answer to long-running feeds
        (network taps) that cannot be buffered whole.  A forced ``scheme``
        is validated here, before any profiling or simulator work.
        """
        self.validate_scheme_name(scheme)
        return StreamSession(self, scheme=scheme)


class StreamSession:
    """Incremental scanning with carried DFA state (see GSpecPal.stream).

    ``total_cycles`` accumulates per-segment simulated cycles while the
    execution backend accounts them; the first segment processed on an
    answer-only backend (``fast``) sets it to ``float('nan')`` — sticky —
    because the ledger then holds no execution cycles to sum.

    Thread-ownership contract: a session is a single-owner object.  Its
    carried ``state``/counters are updated without any internal locking,
    so at most one thread may be inside :meth:`feed` at a time and a
    session must not be fed once its owner has released it.  Multi-tenant
    front-ends serialize externally —
    :class:`~repro.serving.MatcherPool` holds a per-stream lock across
    every feed/close, which is exactly this contract enforced.
    """

    def __init__(self, pal: GSpecPal, scheme: Optional[str] = None):
        self._pal = pal
        self._scheme = scheme
        self.state: int = pal.dfa.start
        self.segments: int = 0
        self.total_symbols: int = 0
        self.total_cycles: float = 0.0
        #: scheme instance reused across segments (rebuilt only when the
        #: selected scheme *name* changes — schemes hold no cross-run
        #: state, so per-segment re-instantiation was pure waste).
        self._runner = None
        self._runner_name: Optional[str] = None
        #: the ``seq`` instance that serves segments shorter than the
        #: plan's thread count (built on the first such segment).
        self._short_runner = None
        #: how many times the serving scheme changed between segments —
        #: each increment is one segment-boundary hot-swap (drift-driven
        #: plan revision, or a live selector changing its mind).
        self.scheme_switches: int = 0
        #: the Fig. 6 node path behind the most recent selection
        #: (``("forced",)`` for sessions opened with an explicit scheme,
        #: set immediately so even a never-fed forced session reports it).
        self.decision_path: tuple = ("forced",) if scheme is not None else ()

    @property
    def accepts(self) -> bool:
        """Whether the stream so far ends in an accepting state."""
        return self.state in self._pal.dfa.accepting

    @property
    def scheme(self) -> Optional[str]:
        """Name of the scheme this session runs under.

        The scheme the last segment actually ran (once fed), else the
        forced scheme (when one was requested at open), else ``None`` —
        a never-fed, unforced session has not consulted the selector yet.
        """
        if self._runner_name is not None:
            return self._runner_name
        return self._scheme

    def _scheme_runner(self, name: str):
        """The cached scheme instance for ``name`` (rebuild on change).

        The rebuild-on-name-change branch is the segment-boundary hot-swap
        point: when a drift revision (``GSpecPal.adopt_plan``) changes the
        selection between two feeds, the next segment rebuilds here and
        ``scheme_switches`` records that the stream was swapped.
        """
        if self._runner is None or self._runner_name != name:
            if self._runner is not None:
                self.scheme_switches += 1
            self._runner = self._pal.build_scheme(name)
            self._runner_name = name
        return self._runner

    def feed(self, segment) -> SchemeResult:
        """Process one segment from the carried state; returns its result."""
        symbols = _as_symbol_array(segment)
        with self._pal.tracer.span(
            "stream.feed",
            segment=self.segments,
            segment_symbols=int(symbols.size),
            carried_state=self.state,
        ) as span:
            self._pal.compile_plan(symbols)
            name = (
                self._scheme
                if self._scheme is not None
                else self._pal.select_scheme()
            )
            self.decision_path = (
                ("forced",)
                if self._scheme is not None
                else self._pal.current_decision_path()
            )
            if symbols.size < self._pal.config.n_threads:
                # Too short to give every thread a symbol (partition_input
                # would refuse it): one sequential lane, no speculation —
                # and so no boundary samples for the drift monitor.  The
                # session's selected scheme (and switch count) is untouched.
                if self._short_runner is None:
                    self._short_runner = self._pal.build_scheme("seq")
                runner = self._short_runner
            else:
                runner = self._scheme_runner(name)
            result = runner.run(symbols, start_state=self.state)
            if span:
                span.set_attr("scheme", result.scheme)
                span.set_attr("end_state", result.end_state)
        self.state = result.end_state
        self.segments += 1
        self.total_symbols += int(symbols.size)
        if runner.engine.accounts_cycles:
            self.total_cycles += result.cycles
        else:
            # Answer-only backend: the ledger never holds execution
            # cycles, so an accumulated total would silently understate
            # cost.  NaN is sticky and poisons any downstream comparison.
            self.total_cycles = float("nan")
        return result

    def apply_fused(self, symbols, end_state: int) -> None:
        """Account one segment advanced by a fused cross-stream dispatch.

        The gang scheduler (:meth:`MatcherPool.feed_many`) computes this
        session's new carried state inside one batched dispatch; this
        method applies it under the session's usual single-owner contract
        (the pool holds the per-stream lock across the whole dispatch).
        Fused execution bypasses the scheme layer and charges no ledger,
        so ``total_cycles`` goes NaN-sticky exactly as on the answer-only
        backend.
        """
        symbols = _as_symbol_array(symbols)
        self.state = int(end_state)
        self.segments += 1
        self.total_symbols += int(symbols.size)
        self.total_cycles = float("nan")
