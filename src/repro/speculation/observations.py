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
:class:`~repro.gpu.stats.KernelStats` ledger plus a symbol histogram
sketch (one ``np.bincount`` over the segment).  Misprediction-free runs
(``sfa``, ``seq``) carry zero boundary samples — they contribute traffic
shape but never accuracy evidence, so a pool that has already swapped to
SFA goes dormant instead of flapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


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
    symbol_sketch:
        ``(n_symbols,)`` int64 histogram of the observed input — the
        distribution fingerprint a revised selection is provenanced with.
    """

    scheme: str = ""
    spec_k: int = 1
    segments: int = 0
    symbols: int = 0
    spec_hits: int = 0
    spec_misses: int = 0
    recovery_rounds: int = 0
    recoveries_executed: int = 0
    symbol_sketch: Optional[np.ndarray] = field(default=None, repr=False)

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
        if other.symbol_sketch is not None:
            if self.symbol_sketch is None:
                self.symbol_sketch = other.symbol_sketch.copy()
            elif self.symbol_sketch.shape == other.symbol_sketch.shape:
                self.symbol_sketch += other.symbol_sketch

    def copy(self) -> "LiveObservations":
        sketch = None if self.symbol_sketch is None else self.symbol_sketch.copy()
        return LiveObservations(
            scheme=self.scheme,
            spec_k=self.spec_k,
            segments=self.segments,
            symbols=self.symbols,
            spec_hits=self.spec_hits,
            spec_misses=self.spec_misses,
            recovery_rounds=self.recovery_rounds,
            recoveries_executed=self.recoveries_executed,
            symbol_sketch=sketch,
        )

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
        n_symbols: int,
        boundary_evidence: bool = True,
    ):
        """Build the record for one scheme run from its ledger + input.

        ``stats`` is the run's :class:`~repro.gpu.stats.KernelStats`
        (matches/mismatches count verified chunk boundaries); ``symbols``
        the segment as a symbol array.  ``boundary_evidence=False`` keeps
        only the traffic shape: schemes whose ledger ``matches`` are
        exact-by-construction compositions rather than verified
        speculation boundaries (SFA) must not masquerade as accuracy-1.0
        evidence.
        """
        symbols = np.asarray(symbols)
        sketch = np.bincount(
            symbols.astype(np.int64, copy=False), minlength=int(n_symbols)
        ).astype(np.int64)
        return cls(
            scheme=scheme,
            spec_k=int(spec_k),
            segments=1,
            symbols=int(symbols.size),
            spec_hits=int(stats.matches) if boundary_evidence else 0,
            spec_misses=int(stats.mismatches) if boundary_evidence else 0,
            recovery_rounds=int(stats.recovery_rounds),
            recoveries_executed=int(stats.recoveries_executed),
            symbol_sketch=sketch,
        )
