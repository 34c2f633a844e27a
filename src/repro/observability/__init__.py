"""Phase-level tracing and metrics (the observability layer).

Two complementary instruments:

* :class:`Tracer` / :class:`Span` — a nestable, cycle- and wall-clock-
  stamped span tree per run.  Schemes emit one span per phase and per
  verify/recovery round; the framework wraps runs and stream segments in
  root spans; the selector records its decision path.  Export with
  :meth:`Tracer.to_jsonl`, inspect with
  :func:`~repro.observability.render.render_timeline` or
  ``python -m repro.cli trace``.
* :class:`MetricsRegistry` — counters/gauges/histograms the serving
  tier records its own counts into (cache, pool, drift, gateway, compile
  stages).  Simulated kernel work is not a metric: it is the run's
  :class:`~repro.gpu.stats.KernelStats` ledger (transitions, shared/global
  accesses, warp steps and their divergence), which ``repro trace``
  prints beside the timeline.

Tracing defaults to *off*: every instrumented object holds
:data:`NULL_TRACER` (a no-op) unless the caller opts in, so the simulated
cycle accounting — and therefore every ``SchemeResult`` — is
bit-identical with tracing enabled or disabled.
"""

from repro.observability.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.observability.render import render_timeline
from repro.observability.tracer import (
    NULL_SPAN,
    NULL_TRACER,
    SPAN_SCHEMA_KEYS,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "SPAN_SCHEMA_KEYS",
    "Span",
    "Tracer",
    "render_timeline",
]
