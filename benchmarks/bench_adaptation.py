"""Online adaptation vs a pinned stale plan on two-phase drifting traffic.

The drifting-phase workload trains calm (the selector rightly picks PM),
then the live distribution flips hot and PM's speculation collapses to
near-sequential recovery.  A drift-enabled pool (``drift=True``: the one
fixed policy of :mod:`repro.serving.drift`) must detect the collapse,
revise inside the feed that fired (one ``revise_plan``, no recompile)
and hot-swap to SFA at a segment boundary; a pinned pool keeps serving the
stale PM plan.  On the post-swap segments the adapted pool must win by
≥2× in modeled cycles — and both pools must stay bit-identical to the
sequential oracle, or no number is trusted.

The run prints the post-swap speedup (EXPERIMENTS.md "Serving
extensions").

Env knobs: ``REPRO_BENCH_ADAPT_STATES`` (default 128),
``REPRO_BENCH_ADAPT_SEGMENT`` (segment bytes, default 4096),
``REPRO_BENCH_ADAPT_THREADS`` (default 32).
"""

import os

from repro.framework import GSpecPalConfig
from repro.observability import MetricsRegistry
from repro.serving import MatcherPool, PlanCache
from repro.workloads import classic

N_STATES = int(os.environ.get("REPRO_BENCH_ADAPT_STATES", 128))
SEGMENT_LEN = int(os.environ.get("REPRO_BENCH_ADAPT_SEGMENT", 4096))
N_THREADS = int(os.environ.get("REPRO_BENCH_ADAPT_THREADS", 32))
CALM_SEGMENTS = 4
HOT_SEGMENTS = 12
MIN_SPEEDUP = 2.0


def _segments():
    calm = [
        classic.drifting_phase_input(SEGMENT_LEN, drift_at=1.0, seed=100 + i)
        for i in range(CALM_SEGMENTS)
    ]
    hot = [
        classic.drifting_phase_input(SEGMENT_LEN, drift_at=0.0, seed=200 + i)
        for i in range(HOT_SEGMENTS)
    ]
    return calm + hot


def _serve(drift):
    """Feed the two-phase schedule through one pool; per-segment cycles."""
    config = GSpecPalConfig(n_threads=N_THREADS, backend="sim")
    metrics = MetricsRegistry()
    cache = PlanCache(capacity=2, config=config, metrics=metrics)
    pool = MatcherPool(
        cache,
        config=config,
        backend="sim",
        metrics=metrics,
        drift=drift,
    )
    dfa = classic.drifting_phase(N_STATES)
    training = classic.drifting_phase_input(4096, drift_at=1.0, seed=7)
    compiled = cache.get_or_compile(dfa, training, config)
    assert compiled.scheme == "pm", compiled.scheme  # calm training -> PM

    sid = pool.open(dfa, training_input=training)
    fed = bytearray()
    cycles, revised_at = [], None
    for i, segment in enumerate(_segments()):
        result = pool.feed(sid, segment)
        fed += segment
        cycles.append(float(result.stats.cycles))
        if revised_at is None and metrics.as_dict().get("drift.revises", 0):
            revised_at = i  # revised inline: the swap serves from i + 1 on
    stats = pool.close(sid)

    # Correctness before speed: bit-identical to the sequential oracle.
    oracle = int(dfa.run(bytes(fed)))
    assert stats.end_state == oracle
    assert stats.accepts == (oracle in dfa.accepting)
    return stats, cycles, revised_at, metrics.as_dict(), cache, dfa, training, config


def test_hot_swap_beats_pinned_stale_plan():
    pinned_stats, pinned_cycles, _, pinned_metrics, *_ = _serve(False)
    assert pinned_stats.scheme_switches == 0
    assert pinned_metrics.get("drift.revises", 0) == 0

    (
        stats,
        cycles,
        revised_at,
        exported,
        cache,
        dfa,
        training,
        config,
    ) = _serve(True)

    # Exactly one inline revise + segment-boundary hot-swap.
    assert exported["drift.triggers"] == 1
    assert exported["drift.revises"] == 1
    assert exported["drift.swaps"] == 1
    assert exported.get("drift.revise_errors", 0) == 0
    assert stats.scheme_switches == 1
    assert stats.scheme == "sfa"
    assert stats.decision_path == ("speculation_floor",)
    assert revised_at is not None and revised_at >= CALM_SEGMENTS

    revised = cache.get_or_compile(dfa, training, config)
    assert revised.revision == 1

    # Post-swap segments: the adapted pool serves SFA, the pinned pool
    # keeps paying PM's recovery storm on the same bytes.
    post = slice(revised_at + 1, None)
    adapted_cycles = sum(cycles[post])
    stale_cycles = sum(pinned_cycles[post])
    speedup = stale_cycles / adapted_cycles
    print(
        f"\nadaptation on {dfa.name} ({SEGMENT_LEN}B x {N_THREADS} threads): "
        f"swap after segment {revised_at}; post-swap "
        f"{adapted_cycles:.0f} cycles adapted vs {stale_cycles:.0f} pinned "
        f"-> {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"adapted speedup {speedup:.2f}x below the {MIN_SPEEDUP}x guard"
    )
