"""Serve-many: plan caching and multi-tenant stream pooling.

The online half of the compile-once / serve-many split (see
:mod:`repro.plan` for the offline half): :class:`PlanCache` is a
fingerprint-keyed LRU with single-flight compiles (at most one compile per
automaton, never blocking other fingerprints), and :class:`MatcherPool`
multiplexes many concurrent stream sessions over the cached plans with
per-stream locking, admission control, and zero profiling on the serving
path.  :mod:`repro.serving.stress` is the deterministic multithreaded soak
harness auditing the whole tier against the sequential oracle
(``python -m repro.cli stress``).
"""

from repro.serving.cache import PlanCache
from repro.serving.drift import DriftConfig, DriftMonitor
from repro.serving.pool import FeedOutcome, MatcherPool, StreamStats
from repro.serving.stress import StressReport, run_stress

__all__ = [
    "DriftConfig",
    "DriftMonitor",
    "FeedOutcome",
    "MatcherPool",
    "PlanCache",
    "StreamStats",
    "StressReport",
    "run_stress",
]
