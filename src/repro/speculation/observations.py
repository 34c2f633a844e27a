"""Live speculation-quality observations: the runtime drift signal.

The offline profile (:mod:`repro.selector.features`) bakes speculation
accuracy into an immutable plan, but accuracy is a property of the *input
distribution*, not the FSM alone — when production traffic drifts, the
plan's anchors go stale while the plan never notices.  Every scheme run
already observes the ground truth at each chunk boundary (the verify phase
counts predictor hits and misses); :class:`LiveObservations` lifts those
counts into a structured record that rides on
:class:`~repro.schemes.base.SchemeResult` and feeds the serving tier's
:class:`~repro.serving.drift.DriftMonitor`.

The record is deliberately cheap: four counters from the run's
:class:`~repro.gpu.stats.KernelStats` ledger plus the segment's length.
Misprediction-free runs (``sfa``, ``seq``) carry zero boundary samples —
they contribute traffic volume but never accuracy evidence, so a pool that has already swapped to
SFA never fires again instead of flapping.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass
class LiveObservations:
    """Speculation-quality evidence from one (or many merged) scheme runs.

    Attributes
    ----------
    scheme:
        Name of the scheme that produced the evidence (``"merged"`` after
        aggregating across heterogeneous runs).
    spec_k:
        Queue depth the speculative execution actually ran at — the depth
        ``spec_hits / (spec_hits + spec_misses)`` measures accuracy *for*.
        PM contributes its configured ``k``; the frontier schemes
        (sre/rr/nf) and spec-seq verify the front-of-queue candidate, so
        they observe spec-1.
    spec_hits / spec_misses:
        Chunk boundaries where the predictor's top-``spec_k`` candidates
        did / did not cover the verified true start state.
    recovery_rounds / recoveries_executed:
        Verify & recover effort behind the misses.
    segments / symbols:
        Traffic volume the evidence was gathered over.
    """

    scheme: str = ""
    spec_k: int = 1
    segments: int = 0
    symbols: int = 0
    spec_hits: int = 0
    spec_misses: int = 0
    recovery_rounds: int = 0
    recoveries_executed: int = 0

    @property
    def boundary_samples(self) -> int:
        """Chunk boundaries with accuracy evidence (0 for sfa/seq runs)."""
        return self.spec_hits + self.spec_misses

    @property
    def spec_accuracy(self) -> float:
        """Live top-``spec_k`` accuracy; NaN when no boundary was observed."""
        total = self.boundary_samples
        if total == 0:
            return float("nan")
        return self.spec_hits / total

    def absorb(self, other: "LiveObservations") -> None:
        """Merge ``other`` into this record in place (monitor aggregation).

        The merged ``spec_k`` keeps the depth of the accuracy evidence: a
        record with boundary samples wins over a sample-free one, so fused
        symbol-only stashes never dilute the anchor comparison.
        """
        if other.boundary_samples and not self.boundary_samples:
            self.spec_k = other.spec_k
        if self.scheme != other.scheme:
            self.scheme = self.scheme or other.scheme
            if other.scheme and other.scheme != self.scheme:
                self.scheme = "merged"
        self.segments += other.segments
        self.symbols += other.symbols
        self.spec_hits += other.spec_hits
        self.spec_misses += other.spec_misses
        self.recovery_rounds += other.recovery_rounds
        self.recoveries_executed += other.recoveries_executed

    def copy(self) -> "LiveObservations":
        return dataclasses.replace(self)

    def summary(self) -> dict:
        """JSON-safe scalar view (plan provenance, reports)."""
        acc = self.spec_accuracy
        return {
            "scheme": self.scheme,
            "spec_k": int(self.spec_k),
            "segments": int(self.segments),
            "symbols": int(self.symbols),
            "boundary_samples": int(self.boundary_samples),
            "spec_accuracy": float(acc) if acc == acc else -1.0,
            "recovery_rounds": int(self.recovery_rounds),
            "recoveries_executed": int(self.recoveries_executed),
        }

    @classmethod
    def from_run(
        cls,
        stats,
        symbols,
        *,
        scheme: str,
        spec_k: int,
        boundary_evidence: bool = True,
    ):
        """Build the record for one scheme run from its ledger + input.

        ``stats`` is the run's :class:`~repro.gpu.stats.KernelStats`
        (matches/mismatches count verified chunk boundaries); ``symbols``
        the segment.  ``boundary_evidence=False`` keeps
        only the traffic shape: schemes whose ledger ``matches`` are
        exact-by-construction compositions rather than verified
        speculation boundaries (SFA) must not masquerade as accuracy-1.0
        evidence.
        """
        return cls(
            scheme=scheme,
            spec_k=int(spec_k),
            segments=1,
            symbols=len(symbols),
            spec_hits=int(stats.matches) if boundary_evidence else 0,
            spec_misses=int(stats.mismatches) if boundary_evidence else 0,
            recovery_rounds=int(stats.recovery_rounds),
            recoveries_executed=int(stats.recoveries_executed),
        )
