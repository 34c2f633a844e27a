"""Per-layer metrics of a traced run, derived from the recorded spans.

Three kinds of figure, all from the traced trials unless said:

* **per main-verb request** — wire codec and loop-hop self times, per
  request of the verb the workload is about (``open`` on
  ``gw_tenant_churn``, the feed verb elsewhere);
* **per feed request** — session, scheme, predictor, engine and executor
  self times, per ``feed`` (``feed_many`` on ``gw_gang_fused``);
* **per call** — ``pool.*_self_ms``, ``cache.get_or_compile_self_ms`` and
  the ``plan.*`` compile times, per call of that entry point over every
  traced request, set-ups included (that is where the cold compiles are).

Counts come from the gateway's, cache's and pool's own counters, summed
over the rounds, and from the sim-backend replay.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from tracing import Span, tiling_gap_ns

_STAGES = ("canonicalize", "profile", "transform", "train")


def _self_ms_by_name(roots: List[Span]) -> Counter:
    totals: Counter = Counter()
    for root in roots:
        for span in root.walk():
            totals[span.name] += span.self_ns() / 1e6
    return totals


def _spans(roots: List[Span], name: str) -> List[Span]:
    return [s for root in roots for s in root.walk() if s.name == name]


def layer_metrics(run, replay: dict) -> Dict[str, float]:
    workload = run.workload
    roots = run.recorder.roots
    trial_roots = [r for r in roots if r.attrs["section"][1] != "setup"]
    main = [r for r in trial_roots if r.attrs["verb"] == workload.main_verb]
    feeds = [r for r in trial_roots if r.attrs["verb"] == workload.feed_verb]
    main_ms, feed_ms, all_ms = (_self_ms_by_name(x) for x in (main, feeds, roots))

    def per(totals: Counter, name: str, count: int) -> float:
        return totals[name] / count if count else 0.0

    def per_call(name: str) -> float:
        return per(all_ms, name, len(_spans(roots, name)))

    symbols = sum(r.attrs["symbols"] for r in trial_roots)
    out = {
        f"protocol.{side}_ms": per(main_ms, f"protocol.{side}", len(main))
        for side in ("client_encode", "server_decode", "server_encode", "client_decode")
    }
    out["protocol.wire_bytes_per_symbol"] = (
        sum(r.attrs["wire_bytes"] for r in trial_roots) / symbols
    )
    out["gateway.loop_hop_ms"] = per(main_ms, f"request.{workload.main_verb}", len(main))
    out["gateway.requests"] = run.counts["gateway.requests"]
    out["gateway.rejects"] = run.counts["gateway.rejects"]

    for verb in ("open", "feed", "feed_many", "close"):
        out[f"pool.{verb}_self_ms"] = per_call(f"pool.{verb}")
    width_n = run.counts["fused_width_n"]
    out["pool.fused_batch_width"] = run.counts["fused_width_sum"] / width_n if width_n else 0.0
    out["pool.fused_fallbacks"] = run.counts["pool.fused_fallbacks"]

    out["cache.get_or_compile_self_ms"] = per_call("cache.get_or_compile")
    for key in ("hits", "misses", "alias_hits", "evictions", "compiles"):
        out[f"cache.{key}"] = run.counts[f"cache.{key}"]
    lookups = out["cache.hits"] + out["cache.misses"]
    out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0

    compiles = _spans(roots, "plan.compile")
    out["plan.compile_ms"] = per_call("plan.compile")
    for stage in _STAGES:
        out[f"plan.stage.{stage}_ms"] = (
            sum(s.attrs["stage_ms"][stage] for s in compiles) / len(compiles)
            if compiles
            else 0.0
        )

    n_feeds = len(feeds)
    out["session.feed_self_ms"] = per(feed_ms, "session.feed", n_feeds)
    out["session.apply_fused_ms"] = per(feed_ms, "session.apply_fused", n_feeds)
    out["scheme.run_self_ms"] = per(feed_ms, "scheme.run", n_feeds)
    scheme_runs = _spans(feeds, "scheme.run")
    hits = sum(s.attrs["spec_hits"] for s in scheme_runs)
    misses = sum(s.attrs["spec_misses"] for s in scheme_runs)
    out["scheme.recovery_rounds_per_feed"] = (
        sum(s.attrs["recovery_rounds"] for s in scheme_runs) / len(scheme_runs)
        if scheme_runs
        else 0.0
    )
    out["scheme.spec_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["speculation.predict_ms"] = per(feed_ms, "speculation.predict", n_feeds)

    out["engine.run_batch_ms"] = per(feed_ms, "engine.run_batch", n_feeds)
    out["engine.run_streams_ms"] = per(feed_ms, "engine.run_streams", n_feeds)
    out["engine.dispatch_self_ms"] = per(feed_ms, "engine.dispatch", n_feeds)
    engine_calls = [
        s
        for name in ("engine.run_batch", "engine.run_streams")
        for s in _spans(feeds, name)
        if s.parent.layer != "engine"
    ]
    out["engine.calls_per_feed"] = len(engine_calls) / n_feeds if n_feeds else 0.0
    lane_steps = sum(
        s.attrs["lane_steps"] for r in feeds for s in r.walk() if s.attrs and "lane_steps" in s.attrs
    )
    out["engine.lane_steps_per_symbol"] = lane_steps / symbols
    out["gpu.executor_ms"] = per(feed_ms, "gpu.executor", n_feeds)

    out.update({k: v for k, v in replay.items() if k.startswith(("gpu.cycles.", "selector."))})
    out["harness.tiling_gap_ms"] = (
        sum(tiling_gap_ns(r) for r in trial_roots) / len(trial_roots) / 1e6
    )
    return out


def layer_budget(run) -> dict:
    """Share of the traced trials' request time each layer's self time
    takes, all verbs together — the README's budget table."""
    trial_roots = [r for r in run.recorder.roots if r.attrs["section"][1] != "setup"]
    total = sum(r.duration_ns for r in trial_roots)
    by_layer: Counter = Counter()
    by_name: Counter = Counter()
    for root in trial_roots:
        for span in root.walk():
            by_layer[span.layer] += span.self_ns()
            by_name[span.name] += span.self_ns()
    return {
        "workload": run.workload.name,
        "requests": len(trial_roots),
        "request_ms_total": total / 1e6,
        "layer_share_pct": {k: round(v / total * 100, 2) for k, v in by_layer.most_common()},
        "span_share_pct": {k: round(v / total * 100, 2) for k, v in by_name.most_common()},
    }
