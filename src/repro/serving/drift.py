"""Drift detection: live speculation accuracy vs the plan's profiled anchors.

A :class:`~repro.plan.CompiledPlan` bakes offline-profiled speculation
accuracy into an immutable selection, but accuracy is a property of the
*input distribution* — when production traffic drifts, a plan that chose
PM/SRE degrades toward its sequential worst case while the pinned plan
never notices.  :class:`DriftMonitor` watches the live evidence every
scheme run already produces (:class:`~repro.speculation.observations.
LiveObservations`) and fires when the live accuracy diverges from the
plan's anchor by more than :data:`THRESHOLD`.

The policy is fixed: the four module constants below are the only values
it reads, and ``MatcherPool(drift=True)`` is the only switch.  They are
sized for short segments at few lanes (the ``drift`` scenario's ~100–190
byte segments at 8 lanes): a heavy newest-sample weight so a handful of
collapsed segments drags the EWMA through the threshold, two consecutive
breaches to fire, and a warm-up that a few calm segments already satisfy.

Design points:

* **EWMA + hysteresis, so it can't flap.**  Per-segment accuracy is a
  noisy few-boundary sample; the monitor smooths it with an exponentially
  weighted moving average, refuses to judge before :data:`MIN_SAMPLES`
  verified boundaries have accumulated, and only fires after
  :data:`HYSTERESIS` *consecutive* breaching observations.  A borderline
  stream oscillating around the threshold resets the breach run and never
  fires.
* **Fires once.**  ``observe`` latches after the first trigger; the feed
  that fired runs a single revise inline and re-arms the monitor against
  the revised plan's anchors.  Sample-free observations (sfa/seq runs,
  fused stashes) carry no accuracy signal, so they never move the EWMA.
* **Not thread-safe by itself.**  :class:`~repro.serving.MatcherPool`
  calls ``observe``/``snapshot``/``rearm`` under the pool lock — the
  monitor is state, unlike the ``drift.*`` metrics recorded beside it,
  which are safe from any thread.
"""

from __future__ import annotations

from typing import Optional

from repro.schemes.pm import SPEC_K
from repro.speculation.observations import LiveObservations

#: Minimum divergence (anchor accuracy − live EWMA) that counts as a breach.
THRESHOLD = 0.3
#: Verified chunk boundaries that must accumulate since the last (re-)arm
#: before the monitor may judge at all.
MIN_SAMPLES = 32
#: Weight of the newest per-observation accuracy sample in the EWMA.
EWMA_ALPHA = 0.5
#: Consecutive breaching observations required to fire.
HYSTERESIS = 2


class DriftMonitor:
    """Per-language-class drift detector (one per pool class record).

    The anchor is the plan's profiled accuracy curve
    (``FSMFeatures.accuracy_at``) at the depth live traffic actually
    verifies: spec-:data:`~repro.schemes.pm.SPEC_K` for PM plans (the
    depth PM is served at), spec-1 for the other speculative schemes.
    ``observe`` folds one run's evidence in and returns ``True`` exactly
    once — when a sustained collapse crosses :data:`THRESHOLD`.
    """

    def __init__(self, plan):
        self._arm(plan)

    def _arm(self, plan) -> None:
        self.fired = False
        #: verified boundaries accumulated since the last (re-)arm.
        self.samples = 0
        self._ewma: Optional[float] = None
        self._breaches = 0
        #: evidence gathered during the current consecutive-breach run —
        #: what the revise is computed from.  Evidence from before the run
        #: would dilute the post-drift signal (the calm phase's hits would
        #: drag the revised features back toward the stale anchors); the
        #: breach window holds only the traffic that made the monitor fire.
        self._window = LiveObservations()
        self._post_fire_segments = 0
        k = SPEC_K if plan.scheme.startswith("pm") else 1
        self._anchor = float(plan.features.accuracy_at(k))

    @property
    def divergence(self) -> float:
        """Current anchor − EWMA gap (0 before any accuracy evidence)."""
        if self._ewma is None:
            return 0.0
        return max(0.0, self._anchor - self._ewma)

    # ------------------------------------------------------------------
    def observe(self, observations: LiveObservations) -> bool:
        """Fold one run's evidence in; ``True`` when the revise should fire.

        Called under the pool lock.  Once fired, observations only count
        toward the re-arm lag; sample-free ones never move the EWMA, the
        warm-up count or the breach counter.
        """
        if self.fired:
            self._post_fire_segments += observations.segments
            return False
        batch = observations.boundary_samples
        if batch == 0:
            return False
        self.samples += batch
        accuracy = observations.spec_accuracy
        if self._ewma is None:
            self._ewma = accuracy
        else:
            self._ewma = EWMA_ALPHA * accuracy + (1.0 - EWMA_ALPHA) * self._ewma
        if self.divergence > THRESHOLD:
            self._breaches += 1
            self._window.absorb(observations)
        else:
            self._breaches = 0
            self._window = LiveObservations()
        if self.samples < MIN_SAMPLES:
            return False
        if self._breaches >= HYSTERESIS:
            self.fired = True
            return True
        return False

    def snapshot(self) -> LiveObservations:
        """The evidence to revise from: the breach window that fired.

        Called after a fire, when the window holds the :data:`HYSTERESIS`
        (or more) breaching observations, each with boundary samples — a
        latched monitor never touches the window again.
        """
        return self._window.copy()

    def rearm(self, plan) -> int:
        """Re-anchor against a freshly revised plan; reset all state.

        Returns the number of segments observed between the trigger and
        this re-arm — the observation lag the ``drift.observation_lag_segments``
        histogram records: segments other streams of the class fed while
        the firing feed ran its revise.
        """
        lag = self._post_fire_segments
        self._arm(plan)
        return lag
