"""The offline compile phase: ``compile_plan``.

The compile path is an explicit staged pipeline; every expensive per-FSM
step runs exactly once, inside a named stage, and the results are frozen
into a :class:`~repro.plan.artifact.CompiledPlan`:

``normalize``
    Validate inputs, apply config defaults, coerce the training stream.
``canonicalize``
    Compute the language-level identity: minimize + BFS-renumber the DFA
    and hash the canonical form (:meth:`DFA.canonical_fingerprint`), or
    just hash the form a caller already holds (``canonical=``).  The
    plan keeps executing the *submitted* DFA — canonicalization only
    establishes identity, it never rewrites state numbering under a tenant.
``profile``
    The Table-II feature vector on the training slice.  The stage walks
    the slice once (``dfa.run_path``) and predicts its chunk starts once;
    ``transform`` and ``train`` reuse both.
``select``
    The Fig. 6 decision-tree walk.
``transform``
    State-frequency profiling: the hotness order the Fig. 4 layout is
    derived from when the plan is served on the sim backend
    (``SimBackend``).
``train``
    Cost-model evaluation (Eq. 1–4) and lookback-2 predictor training,
    as ``cost_model`` / ``predictor`` sub-steps.

Every stage is traced (one ``compile`` span with one child per stage),
timed (wall-clock milliseconds recorded in the plan's
``stage_timings_ms`` and, when a :class:`MetricsRegistry` is supplied, in
``compile.stage.<name>_ms`` histograms), and the canonical fingerprint is
stored alongside the content fingerprint so the serving tier can dedupe
language-equivalent submissions.  Compile spans carry no cycle source
(this is host-side work, not simulated kernel time), so the scheme-run
cycle tiling is untouched.

``revise_plan`` is the *online* counterpart: it re-runs the cheap back
half of the pipeline (select → train) from live
:class:`~repro.speculation.observations.LiveObservations` folded into the
plan's feature vector — no DFA re-profiling, no frequency re-counting —
inside one traced ``compile.revise`` stage.  The serving tier's drift
monitor calls it when production accuracy diverges from the profiled
anchors (see ``docs/architecture.md``, *Online adaptation*).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Optional

from repro.automata.dfa import DFA, _as_symbol_array
from repro.automata.minimize import canonical_form
from repro.automata.properties import profile_state_frequencies
from repro.errors import PlanError, SelfCheckError
from repro.gpu.memory import MemoryModel
from repro.observability import NULL_TRACER
from repro.plan.artifact import (
    PLAN_FORMAT_VERSION,
    CompiledPlan,
    config_fingerprint,
    config_snapshot,
)
from repro.selector.cost_model import estimate_costs
from repro.selector.decision_tree import DecisionTreeSelector
from repro.selector.features import profile_features
from repro.speculation.chunks import partition_input
from repro.speculation.predictor import LOOKBACK, predict_start_states

#: Stage names, in execution order (the contract `repro compile --stats`
#: and the docs expose).
COMPILE_STAGES = (
    "normalize",
    "canonicalize",
    "profile",
    "select",
    "transform",
    "train",
)

#: The one stage online revision adds on top of :data:`COMPILE_STAGES`.
REVISE_STAGE = "revise"


def _predictor_stats(prediction, features) -> dict:
    """Trained lookback-2 statistics: accuracies plus queue geometry.

    ``prediction`` is the ``profile`` stage's full-slice prediction.  The
    queue sizes measure how many candidate states the all-state replay
    leaves alive per boundary — the quantity that decides how much work
    enumerative recovery (RR/NF) has to burn per mis-speculation.
    """
    sizes = prediction.sizes[1:]
    return {
        "predictor": f"lookback-{LOOKBACK}",
        "lookback": int(LOOKBACK),
        "boundaries": int(sizes.size),
        "spec1_accuracy": float(features.spec1_accuracy),
        "spec4_accuracy": float(features.spec4_accuracy),
        "spec16_accuracy": float(features.spec16_accuracy),
        "mean_queue_size": float(sizes.mean()) if sizes.size else 1.0,
        "max_queue_size": int(sizes.max()) if sizes.size else 1,
    }


def compile_plan(
    dfa: DFA,
    training_input,
    config=None,
    *,
    canonical: Optional[DFA] = None,
    tracer=None,
    metrics=None,
) -> CompiledPlan:
    """Compile ``dfa`` against ``training_input`` into an immutable plan.

    Parameters
    ----------
    dfa:
        The automaton to compile for.
    training_input:
        Representative sample stream (the paper's ~0.5% profiling slice).
        Any non-empty stream compiles: a short one is profiled over fewer
        chunks (down to one, which has no boundary to speculate across).
    config:
        Compile-time tunables (defaults to ``GSpecPalConfig()``).  The
        plan records a config hash; serving verifies it.
    canonical:
        ``canonical_form(dfa)`` when the caller already holds it (the plan
        cache does); self-checking re-derives it and compares.
    tracer:
        Optional span sink; the phase emits one ``compile`` span tree with
        one child span per pipeline stage.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; each stage
        observes its wall-clock duration into ``compile.stage.<name>_ms``.
    """
    from repro.framework.config import GSpecPalConfig

    tracer = tracer if tracer is not None else NULL_TRACER
    timings: Dict[str, float] = {}

    @contextmanager
    def stage(name: str, **attrs):
        t0 = time.perf_counter()
        with tracer.span(name, **attrs) as span:
            yield span
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        timings[name] = elapsed_ms
        if metrics is not None:
            metrics.histogram(f"compile.stage.{name}_ms").observe(elapsed_ms)

    with tracer.span("compile", fsm=dfa.name) as cspan:
        with stage("normalize"):
            if config is None:
                config = GSpecPalConfig()
            symbols = _as_symbol_array(training_input)
            if symbols.size == 0:
                raise PlanError("compile_plan needs a non-empty training input")
            # Profiling width: one chunk per thread up to 64, narrowed so a
            # short slice still leaves every chunk four symbols.
            n_chunks = max(1, min(64, config.n_threads, symbols.size // 4))

        with stage("canonicalize") as cnspan:
            if canonical is None:
                canonical = canonical_form(dfa)
            elif config.selfcheck:
                derived = canonical_form(dfa).fingerprint()
                if derived != canonical.fingerprint():
                    raise SelfCheckError(
                        f"the canonical form handed in is not {dfa.name!r}'s, "
                        f"which canonicalizes to {derived[:12]}…",
                        invariant="canonical_form",
                    )
            canonical_fp = canonical.fingerprint()
            if cnspan:
                cnspan.set_attr("canonical_states", canonical.n_states)
                cnspan.set_attr("canonical_fingerprint", canonical_fp[:16])

        with stage("profile"):
            # One walk of the slice and one full-slice prediction, shared
            # by the profile, transform and train stages.
            walk = dfa.run_path(symbols)
            prediction = predict_start_states(dfa, partition_input(symbols, n_chunks))
            features = profile_features(
                dfa, symbols, n_chunks=n_chunks, path=walk, prediction=prediction
            )

        with stage("select") as sspan:
            scheme, path = DecisionTreeSelector().decide(features, span=sspan)

        with stage("transform") as tspan:
            freq = profile_state_frequencies(dfa, symbols, path=walk)
            if tspan:
                memory = MemoryModel.for_dfa(config.device, dfa.n_states, dfa.n_symbols)
                layout = "rank" if config.use_transformation else "hash"
                tspan.set_attr("layout", layout)
                tspan.set_attr("hot_states", int(memory.hot_state_count))

        with stage("train"):
            with tracer.span("cost_model"):
                estimates = estimate_costs(features, config, symbols.size)
            with tracer.span("predictor"):
                predictor_stats = _predictor_stats(prediction, features)

        plan = CompiledPlan(
            dfa=dfa,
            fingerprint=dfa.fingerprint(),
            canonical_fingerprint=canonical_fp,
            config_hash=config_fingerprint(config),
            config=config_snapshot(config),
            features=features,
            scheme=scheme,
            decision_path=tuple(path),
            cost_estimates=estimates,
            frequency_counts=freq.counts,
            frequency_order=freq.order,
            training_symbols=int(symbols.size),
            predictor_stats=predictor_stats,
            stage_timings_ms=dict(timings),
        )
        if cspan:
            cspan.set_attr("training_symbols", int(symbols.size))
            cspan.set_attr("fingerprint", plan.fingerprint)
            cspan.set_attr("canonical_fingerprint", plan.canonical_fingerprint)
            cspan.set_attr("scheme", plan.scheme)
    return plan


def revise_plan(
    plan: CompiledPlan,
    observations,
    *,
    tracer=None,
    metrics=None,
) -> CompiledPlan:
    """Re-select and re-train ``plan`` from live observations, no re-profiling.

    The expensive compile stages — canonicalize, profile, transform,
    predictor training — are carried over verbatim (the FSM and its
    frequency structure have not changed; only the input distribution
    has), so a revision costs one decision-tree walk plus one cost-model
    evaluation.  The revised plan keeps both fingerprints and the config
    hash, bumps ``revision``, and records the evidence in
    ``live_provenance``.

    Parameters
    ----------
    plan:
        The artifact to revise (any revision; offline or already revised).
    observations:
        Aggregated :class:`~repro.speculation.observations.LiveObservations`.
        With zero boundary samples the plan is returned unchanged — there
        is no accuracy evidence to revise from.
    tracer / metrics:
        Same sinks as :func:`compile_plan`; the work lands in one traced
        ``compile.revise`` stage and a ``compile.stage.revise_ms``
        histogram.
    """
    import dataclasses

    if observations is None or observations.boundary_samples == 0:
        return plan
    tracer = tracer if tracer is not None else NULL_TRACER

    t0 = time.perf_counter()
    with tracer.span(
        f"compile.{REVISE_STAGE}",
        fsm=plan.dfa.name,
        fingerprint=plan.fingerprint[:16],
        revision=plan.revision + 1,
    ) as rspan:
        config = plan.build_config()
        features = plan.features.update_from_observations(observations)

        with tracer.span("select") as sspan:
            scheme, path = DecisionTreeSelector().decide(features, span=sspan)

        with tracer.span("train"):
            estimates = estimate_costs(features, config, plan.training_symbols)

        if rspan:
            rspan.set_attr("scheme", scheme)
            rspan.set_attr("prior_scheme", plan.scheme)
            rspan.set_attr("live_accuracy", float(observations.spec_accuracy))

    elapsed_ms = (time.perf_counter() - t0) * 1e3
    if metrics is not None:
        metrics.histogram(f"compile.stage.{REVISE_STAGE}_ms").observe(elapsed_ms)
    timings = dict(plan.stage_timings_ms)
    timings[REVISE_STAGE] = elapsed_ms

    provenance = dict(observations.summary())
    provenance["prior_scheme"] = plan.scheme
    provenance["prior_revision"] = int(plan.revision)
    return dataclasses.replace(
        plan,
        features=features,
        scheme=scheme,
        decision_path=tuple(path),
        cost_estimates=estimates,
        stage_timings_ms=timings,
        revision=plan.revision + 1,
        live_provenance=provenance,
        version=PLAN_FORMAT_VERSION,
    )
