"""Serve-many: plan caching and multi-tenant stream pooling.

The online half of the compile-once / serve-many split (see
:mod:`repro.plan` for the offline half): :class:`PlanCache` is a
fingerprint-keyed LRU with single-flight compiles (at most one compile per
automaton, never blocking other fingerprints), and :class:`MatcherPool`
multiplexes many concurrent stream sessions over the cached plans with
per-stream locking, admission control, and zero profiling on the serving
path.  The whole tier is soaked and audited against the sequential oracle
over the gateway by the ``soak`` / ``soak-fused`` / ``equivalent-mix`` /
``drift`` documents of :mod:`repro.scenarios`
(``python -m repro.cli scenario soak``).
"""

from repro.serving.cache import PlanCache
from repro.serving.drift import DriftMonitor
from repro.serving.pool import FeedOutcome, MatcherPool, StreamStats

__all__ = [
    "DriftMonitor",
    "FeedOutcome",
    "MatcherPool",
    "PlanCache",
    "StreamStats",
]
