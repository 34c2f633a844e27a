"""Serving-tier gang scheduling: fused batch vs per-stream feeds.

N concurrent streams sharing one CompiledPlan are fed identical traffic —
one ``pool.feed`` per stream per segment, and one gang-scheduled
``pool.feed_many`` per round (the fused ``(streams × lanes)`` dispatch) —
on the answer-only ``fast`` backend, with the end states cross-checked
for bit-identity before any timing is trusted.

Two speedup **guards** (wall-clock ratio gates like the ones in
``bench_kernels.py``):

* fused must beat per-stream *scheme* feeds by ≥3× at 32 streams.  The
  per-stream streams are opened forced to the plan's scheme: an unforced
  feed this short is answered by the scalar walk instead, so forcing keeps
  the guard timing the speculation path it has always timed.  The
  fused-vs-walk ratio (fused against unforced, walked per-stream feeds) is
  printed beside it;
* an unforced 512 B feed (one walk) must beat the forced-scheme feed of
  the same segment by ≥5×.

It prints the measured ratios and fused throughput (EXPERIMENTS.md
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
MIN_WALK_SPEEDUP = 5.0


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


def _serve_per_stream(pool, dfa, training, traffic, scheme=None) -> list:
    sids = [
        pool.open(dfa, training_input=training, scheme=scheme)
        for _ in range(N_STREAMS)
    ]
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


def _plan_scheme(dfa, training) -> str:
    pool = _build_pool(fused=False)
    return pool.cache.get_or_compile(dfa, training, pool.config).scheme


def test_fused_serving_speedup_guard():
    rng = np.random.default_rng(20260808)
    dfa = classic.keyword_scanner(b"gangsched")
    training = bytes(rng.integers(97, 123, size=2048).astype(np.uint8))
    traffic = _traffic(rng)
    scheme = _plan_scheme(dfa, training)

    # Correctness before speed: every path, and the oracle, must agree on
    # every stream before any timing is recorded.
    per_stream_ends = _serve_per_stream(
        _build_pool(fused=False), dfa, training, traffic, scheme
    )
    walked_ends = _serve_per_stream(_build_pool(fused=False), dfa, training, traffic)
    fused_ends = _serve_fused(_build_pool(fused=True), dfa, training, traffic)
    oracle_ends = [
        dfa.run(b"".join(traffic[r][i] for r in range(ROUNDS)))
        for i in range(N_STREAMS)
    ]
    assert fused_ends == per_stream_ends == walked_ends == oracle_ends

    # Warm pools (plan compiled, matcher + fused engine built) so the
    # timing isolates the steady-state feed path, not the cold compile.
    seq_pool = _build_pool(fused=False)
    walk_pool = _build_pool(fused=False)
    fused_pool = _build_pool(fused=True)
    t_seq = _best_of(
        lambda: _serve_per_stream(seq_pool, dfa, training, traffic, scheme)
    )
    t_walk = _best_of(lambda: _serve_per_stream(walk_pool, dfa, training, traffic))
    t_fused = _best_of(
        lambda: _serve_fused(fused_pool, dfa, training, traffic)
    )

    total_symbols = N_STREAMS * SEGMENT_LEN * ROUNDS
    speedup = t_seq / t_fused
    print(
        f"\nfused-vs-per-stream serving ({N_STREAMS} streams x "
        f"{ROUNDS} x {SEGMENT_LEN}B, per-stream forced to {scheme}): "
        f"{speedup:.1f}x ({t_seq * 1e3:.1f} ms -> {t_fused * 1e3:.1f} ms, "
        f"{total_symbols / t_fused / 1e6:.2f} Msym/s fused); "
        f"fused-vs-walk {t_walk / t_fused:.2f}x ({t_walk * 1e3:.1f} ms walked)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"fused serving only {speedup:.2f}x faster than per-stream at "
        f"{N_STREAMS} streams (guard: >= {MIN_SPEEDUP}x)"
    )


def test_walk_speedup_guard():
    """An unforced short feed is one scalar walk; it must beat the forced
    run of the plan's scheme over the same segment by >= 5x."""
    rng = np.random.default_rng(20261020)
    dfa = classic.keyword_scanner(b"gangsched")
    training = bytes(rng.integers(97, 123, size=2048).astype(np.uint8))
    segments = [
        bytes(rng.integers(97, 123, size=SEGMENT_LEN).astype(np.uint8))
        for _ in range(ROUNDS)
    ]
    scheme = _plan_scheme(dfa, training)
    pool = _build_pool(fused=False)
    walked = pool.open(dfa, training_input=training)
    forced = pool.open(dfa, training_input=training, scheme=scheme)
    results = {}

    def feed_all(sid):
        for segment in segments:
            results[sid] = pool.feed(sid, segment)

    t_walk = _best_of(lambda: feed_all(walked))
    t_scheme = _best_of(lambda: feed_all(forced))
    assert results[walked].scheme == "walk" and results[forced].scheme != "walk"
    expected = dfa.run(b"".join(segments) * 5)  # _best_of feeds each 5 times
    assert pool.close(walked).end_state == pool.close(forced).end_state == expected
    speedup = t_scheme / t_walk
    print(
        f"\nwalk-vs-{scheme} ({SEGMENT_LEN}B feeds): {speedup:.1f}x "
        f"({t_scheme / ROUNDS * 1e6:.0f} us -> {t_walk / ROUNDS * 1e6:.0f} us a feed)"
    )
    assert speedup >= MIN_WALK_SPEEDUP, (
        f"a walked {SEGMENT_LEN}B feed only {speedup:.2f}x faster than a "
        f"forced {scheme} feed (guard: >= {MIN_WALK_SPEEDUP}x)"
    )


if __name__ == "__main__":
    test_fused_serving_speedup_guard()
    test_walk_speedup_guard()
