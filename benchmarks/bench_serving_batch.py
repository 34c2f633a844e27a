"""Serving-tier gang scheduling: fused batch vs per-stream feeds.

N concurrent streams sharing one CompiledPlan are fed identical traffic two
ways — one ``pool.feed`` per stream per segment (the PR-4/5 serving path)
and one gang-scheduled ``pool.feed_many`` per round (ISSUE 6's fused
``(streams × lanes)`` dispatch) — on the answer-only ``fast`` backend, with
the end states cross-checked for bit-identity before any timing is trusted.

The run is a speedup **guard**: fused must beat per-stream by ≥3× at 32
streams (a wall-clock ratio gate like the ones in ``bench_kernels.py``).
It prints the measured speedup and fused throughput (EXPERIMENTS.md
"Serving extensions").

Env knobs: ``REPRO_BENCH_STREAMS`` (default 32), ``REPRO_BENCH_SEGMENT``
(default 512 bytes), ``REPRO_BENCH_ROUNDS`` (default 8).
"""

import os
import time

import numpy as np

from repro.framework import GSpecPalConfig
from repro.serving import MatcherPool, PlanCache
from repro.workloads import classic

N_STREAMS = int(os.environ.get("REPRO_BENCH_STREAMS", 32))
SEGMENT_LEN = int(os.environ.get("REPRO_BENCH_SEGMENT", 512))
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", 8))
MIN_SPEEDUP = 3.0


def _best_of(fn, repeats: int = 5) -> float:
    """Minimum wall-clock of ``repeats`` calls (noise-robust timing)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _build_pool(fused: bool) -> MatcherPool:
    config = GSpecPalConfig(n_threads=8, backend="fast")
    return MatcherPool(
        PlanCache(capacity=2, config=config),
        config=config,
        backend="fast",
        fused=fused,
        max_streams=N_STREAMS,
    )


def _traffic(rng) -> list:
    """ROUNDS rounds × N_STREAMS segments of identical shared-plan traffic."""
    return [
        [
            bytes(
                rng.integers(97, 123, size=SEGMENT_LEN).astype(np.uint8)
            )
            for _ in range(N_STREAMS)
        ]
        for _ in range(ROUNDS)
    ]


def _serve_per_stream(pool, dfa, training, traffic) -> list:
    sids = [pool.open(dfa, training_input=training) for _ in range(N_STREAMS)]
    for segments in traffic:
        for sid, segment in zip(sids, segments):
            pool.feed(sid, segment)
    return [pool.close(sid).end_state for sid in sids]


def _serve_fused(pool, dfa, training, traffic) -> list:
    sids = [pool.open(dfa, training_input=training) for _ in range(N_STREAMS)]
    for segments in traffic:
        outcomes = pool.feed_many(list(zip(sids, segments)))
        assert all(o.ok for o in outcomes)
    return [pool.close(sid).end_state for sid in sids]


def test_fused_serving_speedup_guard():
    rng = np.random.default_rng(20260808)
    dfa = classic.keyword_scanner(b"gangsched")
    training = bytes(rng.integers(97, 123, size=2048).astype(np.uint8))
    traffic = _traffic(rng)

    # Correctness before speed: both paths, and the oracle, must agree on
    # every stream before any timing is recorded.
    per_stream_ends = _serve_per_stream(
        _build_pool(fused=False), dfa, training, traffic
    )
    fused_ends = _serve_fused(_build_pool(fused=True), dfa, training, traffic)
    oracle_ends = [
        dfa.run(b"".join(traffic[r][i] for r in range(ROUNDS)))
        for i in range(N_STREAMS)
    ]
    assert fused_ends == per_stream_ends == oracle_ends

    # Warm pools (plan compiled, matcher + fused engine built) so the
    # timing isolates the steady-state feed path, not the cold compile.
    seq_pool = _build_pool(fused=False)
    fused_pool = _build_pool(fused=True)
    t_seq = _best_of(
        lambda: _serve_per_stream(seq_pool, dfa, training, traffic)
    )
    t_fused = _best_of(
        lambda: _serve_fused(fused_pool, dfa, training, traffic)
    )

    total_symbols = N_STREAMS * SEGMENT_LEN * ROUNDS
    speedup = t_seq / t_fused
    print(
        f"\nfused-vs-per-stream serving ({N_STREAMS} streams x "
        f"{ROUNDS} x {SEGMENT_LEN}B): {speedup:.1f}x "
        f"({t_seq * 1e3:.1f} ms -> {t_fused * 1e3:.1f} ms, "
        f"{total_symbols / t_fused / 1e6:.2f} Msym/s fused)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"fused serving only {speedup:.2f}x faster than per-stream at "
        f"{N_STREAMS} streams (guard: >= {MIN_SPEEDUP}x)"
    )


if __name__ == "__main__":
    test_fused_serving_speedup_guard()
