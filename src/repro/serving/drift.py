"""Drift detection: live speculation accuracy vs the plan's profiled anchors.

A :class:`~repro.plan.CompiledPlan` bakes offline-profiled speculation
accuracy into an immutable selection, but accuracy is a property of the
*input distribution* — when production traffic drifts, a plan that chose
PM/SRE degrades toward its sequential worst case while the pinned plan
never notices.  :class:`DriftMonitor` watches the live evidence every
scheme run already produces (:class:`~repro.speculation.observations.
LiveObservations`) and fires when the live accuracy diverges from the
plan's anchor by more than a configurable margin.

Design points:

* **EWMA + hysteresis, so it can't flap.**  Per-segment accuracy is a
  noisy few-boundary sample; the monitor smooths it with an exponentially
  weighted moving average, refuses to judge before ``min_samples``
  verified boundaries have accumulated, and only fires after
  ``hysteresis`` *consecutive* breaching observations.  A borderline
  stream oscillating around the threshold resets the breach run and never
  fires.
* **Fires once.**  ``observe`` latches after the first trigger; the pool
  runs a single background revise and re-arms the monitor against the
  revised plan's anchors.  A monitor re-armed onto a misprediction-free
  scheme (sfa/seq) goes dormant — those runs carry no boundary samples,
  so there is no accuracy signal left to diverge.
* **Not thread-safe by itself.**  :class:`~repro.serving.MatcherPool`
  calls ``observe``/``snapshot``/``rearm`` under the pool lock — the
  monitor is state, unlike the ``drift.*`` metrics recorded beside it,
  which are safe from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ServingError
from repro.speculation.observations import LiveObservations


@dataclass(frozen=True)
class DriftConfig:
    """Tunables of the serving tier's drift detection.

    Attributes
    ----------
    threshold:
        Minimum divergence (anchor accuracy − live EWMA) that counts as a
        breach.
    min_samples:
        Verified chunk boundaries that must accumulate since the last
        (re-)arm before the monitor may judge at all.
    ewma_alpha:
        Weight of the newest per-observation accuracy sample in the EWMA.
    hysteresis:
        Consecutive breaching observations required to fire.
    synchronous:
        Run the revise inline inside the feeding thread instead of a
        background worker.  Deterministic — meant for tests and
        benchmarks; production pools keep the default background mode.
    """

    threshold: float = 0.3
    min_samples: int = 64
    ewma_alpha: float = 0.3
    hysteresis: int = 3
    synchronous: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.threshold <= 1.0):
            raise ServingError(
                f"drift threshold must be in (0, 1], got {self.threshold}",
                code="drift-config",
            )
        if self.min_samples < 1:
            raise ServingError(
                f"drift min_samples must be >= 1, got {self.min_samples}",
                code="drift-config",
            )
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise ServingError(
                f"drift ewma_alpha must be in (0, 1], got {self.ewma_alpha}",
                code="drift-config",
            )
        if self.hysteresis < 1:
            raise ServingError(
                f"drift hysteresis must be >= 1, got {self.hysteresis}",
                code="drift-config",
            )


#: Schemes that verify no chunk boundaries — a monitor anchored to one of
#: these never receives accuracy evidence and stays dormant.
_SAMPLE_FREE_SCHEMES = ("sfa", "seq")


class DriftMonitor:
    """Per-language-class drift detector (one per pool matcher).

    The anchor is the plan's profiled accuracy curve
    (``FSMFeatures.accuracy_at``) at the depth live traffic actually
    verifies: spec-k for PM plans, spec-1 for the other speculative
    schemes.  A depth the profiler did not measure (PM at ``k`` other than
    4 or 16) gets the interpolated value.  ``observe`` folds one run's
    evidence in and returns ``True`` exactly once — when a sustained
    collapse crosses the configured threshold.
    """

    def __init__(self, plan, config: DriftConfig):
        self.config = config
        self.fired = False
        self._ewma: Optional[float] = None
        self._breaches = 0
        self._aggregate = LiveObservations()
        #: evidence gathered during the current consecutive-breach run —
        #: what the revise is computed from.  A lifetime aggregate would
        #: dilute the post-drift signal with pre-drift evidence (the calm
        #: phase's hits would drag the revised features back toward the
        #: stale anchors); the breach window holds only the traffic that
        #: made the monitor fire.
        self._window = LiveObservations()
        self._post_fire_segments = 0
        self._anchor_to(plan)

    # ------------------------------------------------------------------
    def _anchor_to(self, plan) -> None:
        self._scheme = plan.scheme
        if plan.scheme.startswith("pm"):
            k = int(plan.config.get("spec_k", 4))
        else:
            k = 1
        self._spec_k = k
        self._anchor = float(plan.features.accuracy_at(k))

    @property
    def anchor(self) -> float:
        """The profiled accuracy the live EWMA is compared against."""
        return self._anchor

    @property
    def dormant(self) -> bool:
        """True when the anchored scheme produces no accuracy evidence."""
        return self._scheme in _SAMPLE_FREE_SCHEMES

    @property
    def samples(self) -> int:
        """Verified boundaries accumulated since the last (re-)arm."""
        return self._aggregate.boundary_samples

    @property
    def divergence(self) -> float:
        """Current anchor − EWMA gap (0 before any accuracy evidence)."""
        if self._ewma is None:
            return 0.0
        return max(0.0, self._anchor - self._ewma)

    # ------------------------------------------------------------------
    def observe(self, observations: LiveObservations) -> bool:
        """Fold one run's evidence in; ``True`` when the revise should fire.

        Called under the pool lock.  Sample-free observations (fused
        stashes, sfa/seq runs) still aggregate into the traffic volume but
        never move the EWMA or the breach counter.
        """
        if observations is None:
            return False
        self._aggregate.absorb(observations)
        if self.fired:
            self._post_fire_segments += observations.segments
            return False
        batch = observations.boundary_samples
        if batch == 0:
            return False
        accuracy = observations.spec_accuracy
        if self._ewma is None:
            self._ewma = accuracy
        else:
            a = self.config.ewma_alpha
            self._ewma = a * accuracy + (1.0 - a) * self._ewma
        if self.divergence > self.config.threshold:
            self._breaches += 1
            self._window.absorb(observations)
        else:
            self._breaches = 0
            self._window = LiveObservations()
        if self.samples < self.config.min_samples:
            return False
        if self._breaches >= self.config.hysteresis:
            self.fired = True
            return True
        return False

    def snapshot(self) -> LiveObservations:
        """The evidence to revise from: the current breach window.

        Falls back to the lifetime aggregate when the window is empty
        (only possible if a caller snapshots an unfired monitor).
        """
        if self._window.boundary_samples:
            return self._window.copy()
        return self._aggregate.copy()

    def rearm(self, plan) -> int:
        """Re-anchor against a freshly revised plan; reset all state.

        Returns the number of segments observed between the trigger and
        this re-arm — the observation lag the ``drift.observation_lag_segments``
        histogram records (0 under ``synchronous`` revises).
        """
        lag = self._post_fire_segments
        self.fired = False
        self._ewma = None
        self._breaches = 0
        self._aggregate = LiveObservations()
        self._window = LiveObservations()
        self._post_fire_segments = 0
        self._anchor_to(plan)
        return lag
