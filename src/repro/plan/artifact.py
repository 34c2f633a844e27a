"""The immutable compile-once artifact: :class:`CompiledPlan`.

GSpecPal's pipeline is explicitly two-phase: *offline* profiling
(speculation accuracy, input sensitivity, convergence — Table II; the
frequency transformation — Fig. 4; the selector walk — Fig. 6) versus
*online* latency-sensitive execution.  A :class:`CompiledPlan` freezes
everything the offline phase decides into one serializable artifact so the
online phase — :meth:`repro.framework.GSpecPal.from_plan` and the
:mod:`repro.serving` layer — can execute with **zero profiling work**:

* the profiled :class:`~repro.selector.features.FSMFeatures` vector;
* the state-frequency profile whose hotness order fixes the table layout
  (the Fig. 4 rank-ordered table and its hot rows) — the layout itself is
  derived from it by :class:`~repro.engine.sim.SimBackend`, not stored;
* the trained lookback-2 predictor statistics measured on the training
  slice;
* the selector's decision plus the tree path that produced it, and the
  Eq. 1–4 cost estimates;
* a content :meth:`~repro.automata.dfa.DFA.fingerprint` and a
  configuration hash, so a plan can never silently be served against the
  wrong automaton or the wrong tunables.

Plans are value objects: compiling the same DFA on the same training input
under the same config yields an identical plan, and
``save_plan``/``load_plan`` round-trip them bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.automata.dfa import DFA
from repro.automata.properties import StateFrequencyProfile
from repro.errors import PlanError
from repro.gpu.memory import MemoryModel
from repro.selector.features import FSMFeatures

#: Bump when the artifact layout changes incompatibly.
#: v2: adds the canonical (language-level) fingerprint and per-stage
#: compile timings.
#: v3: online adaptation — ``revision`` counter and ``live_provenance``
#: (the live-feature evidence behind a revised selection).  v2 artifacts
#: still load: the new fields default (see ``SUPPORTED_PLAN_VERSIONS``).
#: v4: the hotness order is the only layout input — the stored
#: ``permutation`` and ``hot_state_count`` are gone (both were functions
#: of the order and the device); v2/v3 files still carry them and load,
#: the entries ignored.
PLAN_FORMAT_VERSION = 4

#: Artifact versions ``load_plan`` accepts.  Older-but-supported versions
#: are upgraded on load by defaulting the fields they predate.
SUPPORTED_PLAN_VERSIONS = (2, 3, 4)

#: GSpecPalConfig fields frozen into a plan.  Runtime-only knobs —
#: ``backend`` (execution engine) and ``selfcheck`` (audits) — are
#: deliberately excluded: they change how a plan is *served*, never what
#: was *compiled*.
_CONFIG_FIELDS = (
    "n_threads",
    "use_transformation",
    "training_fraction",
    "min_training_symbols",
)


def config_snapshot(config) -> Dict[str, Any]:
    """JSON-able snapshot of the compile-relevant configuration fields."""
    snap: Dict[str, Any] = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    snap["device"] = asdict(config.device)
    return snap


def config_fingerprint(config) -> str:
    """Deterministic hash of :func:`config_snapshot` (the plan's config key)."""
    payload = json.dumps(config_snapshot(config), sort_keys=True)
    return hashlib.sha256(f"cfg/v1:{payload}".encode()).hexdigest()


def _config_from_snapshot(snapshot: Dict[str, Any], **overrides):
    """Rebuild a ``GSpecPalConfig`` from a stored snapshot.

    Keys outside :data:`_CONFIG_FIELDS` — the ``spec_k``, register-budget
    and ``thresholds`` entries older plans carry — are ignored: those are
    constants now.
    """
    from repro.framework.config import GSpecPalConfig
    from repro.gpu.device import DeviceSpec

    kwargs = {name: snapshot[name] for name in _CONFIG_FIELDS}
    kwargs["device"] = DeviceSpec(**snapshot["device"])
    kwargs.update(overrides)
    return GSpecPalConfig(**kwargs)


@dataclass(frozen=True)
class CompiledPlan:
    """Everything the offline phase decided, frozen for serving.

    Attributes
    ----------
    dfa:
        The automaton the plan was compiled for (embedded so the artifact
        is self-contained — ship the plan, serve anywhere).
    fingerprint:
        ``dfa.fingerprint()`` at compile time; re-verified on load and on
        every cache lookup.
    canonical_fingerprint:
        The fingerprint of the DFA's minimal, BFS-renumbered canonical
        form at compile time, identical for all language-equivalent DFAs.
        The serving cache keys plan dedupe and single-flight on this;
        ``load_plan`` re-derives it, :meth:`verify` does not.
    config_hash:
        :func:`config_fingerprint` of the compile-time configuration.
    config:
        The :func:`config_snapshot` the hash covers (kept readable so
        operators can inspect what a plan was compiled under).
    features:
        The profiled Table-II feature vector.
    scheme / decision_path:
        The Fig. 6 selector's pick and the tree nodes it visited.
    cost_estimates:
        ``CostModel.estimate_all`` output at compile time (cycles per
        selectable scheme on the training-sized input).
    frequency_counts / frequency_order / training_symbols:
        The state-frequency profile and the number of training symbols it
        was collected over.  ``frequency_order`` (state ids, hottest
        first) is the table layout's only input: ``SimBackend`` ranks the
        table's rows by it, under either layout.  It must be a
        permutation of the DFA's states, with one count per state.
    predictor_stats:
        Trained lookback-2 statistics: window, per-k accuracies and the
        candidate-queue geometry measured on the training boundaries.
    stage_timings_ms:
        Wall-clock milliseconds per compile-pipeline stage
        (``normalize``/``canonicalize``/``profile``/``select``/
        ``transform``/``train``, plus ``revise`` on revised plans), as
        measured when this plan was built.  Observability metadata only —
        excluded from plan equality so compiling the same inputs still
        yields value-equal plans.
    revision:
        How many times this plan has been revised from live observations
        (0 = the offline compile).  ``revise_plan`` increments it; the
        serving cache never lets a lower revision overwrite a higher one.
    live_provenance:
        Scalar summary of the live evidence the latest revision was made
        from (live accuracy, boundary samples, traffic volume, the scheme
        that gathered it, and the prior scheme/revision) — empty on
        offline compiles and on loaded v2 artifacts.
    """

    dfa: DFA
    fingerprint: str
    canonical_fingerprint: str
    config_hash: str
    config: Dict[str, Any]
    features: FSMFeatures
    scheme: str
    decision_path: Tuple[str, ...]
    cost_estimates: Dict[str, float]
    frequency_counts: np.ndarray
    frequency_order: np.ndarray
    training_symbols: int
    predictor_stats: Dict[str, float] = field(default_factory=dict)
    stage_timings_ms: Dict[str, float] = field(default_factory=dict, compare=False)
    revision: int = 0
    live_provenance: Dict[str, Any] = field(default_factory=dict)
    version: int = PLAN_FORMAT_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "frequency_counts",
            np.ascontiguousarray(self.frequency_counts, dtype=np.int64),
        )
        object.__setattr__(
            self,
            "frequency_order",
            np.ascontiguousarray(self.frequency_order, dtype=np.int64),
        )
        object.__setattr__(self, "decision_path", tuple(self.decision_path))
        n = self.dfa.n_states
        if self.frequency_counts.shape != (n,):
            raise PlanError(
                f"plan frequency_counts has shape {self.frequency_counts.shape} "
                f"for {n} states (corrupt or tampered plan)"
            )
        order = self.frequency_order
        if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
            raise PlanError(
                f"plan frequency_order is not a permutation of the {n} states "
                "(corrupt or tampered plan)"
            )

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(self, dfa: Optional[DFA] = None) -> None:
        """Check the plan still matches its automaton (and optionally
        another DFA a caller wants to serve with it).

        Content fingerprints only, no minimization: an in-memory plan's
        canonical fingerprint is trusted, as ``compile_plan``,
        ``revise_plan`` or ``load_plan`` (where plan bytes enter the
        process) established it.  A DFA's table is read-only and its
        digest memoized, so a DFA already hashed is not hashed again.

        Raises :class:`~repro.errors.PlanError` on any mismatch — the
        invalidation rule of the plan lifecycle: a plan is valid exactly
        as long as the DFA's behaviourally relevant content is unchanged.
        """
        actual = self.dfa.fingerprint()
        if actual != self.fingerprint:
            raise PlanError(
                f"plan fingerprint mismatch: artifact says {self.fingerprint[:12]}…, "
                f"embedded DFA hashes to {actual[:12]}… (corrupt or tampered plan)"
            )
        if dfa is not None and dfa.fingerprint() != self.fingerprint:
            raise PlanError(
                f"plan was compiled for fingerprint {self.fingerprint[:12]}… "
                f"but DFA {dfa.name!r} hashes to {dfa.fingerprint()[:12]}…; "
                "recompile the plan for this automaton"
            )

    # ------------------------------------------------------------------
    # executable artifacts
    # ------------------------------------------------------------------
    def frequency_profile(self) -> StateFrequencyProfile:
        """The stored hotness profile (no training bytes needed)."""
        return StateFrequencyProfile(
            counts=self.frequency_counts,
            order=self.frequency_order,
            sample_length=int(self.training_symbols),
        )

    def build_config(self, *, backend: Optional[str] = None, selfcheck=None):
        """The compile-time ``GSpecPalConfig``, with runtime knobs applied."""
        return _config_from_snapshot(self.config, backend=backend, selfcheck=selfcheck)

    # ------------------------------------------------------------------
    # presentation
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Operator-facing one-screen description (used by ``repro compile``)."""
        hot = MemoryModel.for_dfa(
            self.build_config().device, self.dfa.n_states, self.dfa.n_symbols
        ).hot_state_count
        layout = "RANK" if self.config["use_transformation"] else "HASH"
        lines = [
            f"plan for  : {self.dfa.name} ({self.dfa.n_states} states, "
            f"{self.dfa.n_symbols} symbols)",
            f"fingerprint: {self.fingerprint}",
            f"canonical  : {self.canonical_fingerprint}",
            f"config     : {self.config_hash[:16]}… "
            f"(n_threads={self.config['n_threads']}, "
            f"device={self.config['device']['name']})",
            f"scheme     : {self.scheme}  (path: {' -> '.join(self.decision_path)})"
            + (f"  [revision {self.revision}]" if self.revision else ""),
            f"hot states : {hot} ({layout} layout)",
            f"trained on : {self.training_symbols} symbols",
        ]
        lines.append("features   :")
        for key, value in self.features.as_dict().items():
            lines.append(f"  {key:22s} {value}")
        lines.append("cost model :")
        for name, cycles in sorted(self.cost_estimates.items(), key=lambda kv: kv[1]):
            lines.append(f"  {name:6s} {cycles:14.0f} cycles")
        return "\n".join(lines)
