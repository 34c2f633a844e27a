"""Online adaptation: drift detection, background revise, and plan hot-swap.

The acceptance bar (ISSUE 9): on the two-phase ``classic.drifting_phase``
workload a drift-enabled pool must run **exactly one** background revise
and segment-boundary hot-swap (PM → SFA) while every closed stream stays
bit-identical to the sequential ``dfa.run`` oracle — on both backends.
The :class:`DriftMonitor` unit suite pins the hysteresis contract (no
flapping, warm-up gate, fire-once latch, dormant on misprediction-free
schemes), and the cache suite pins revision monotonicity (a re-submitted
stale plan can never roll back a revise).
"""

from types import SimpleNamespace

import pytest

from repro.errors import ServingError
from repro.framework import GSpecPalConfig
from repro.observability import MetricsRegistry
from repro.plan import revise_plan
from repro.selector.features import FSMFeatures
from repro.serving import DriftConfig, DriftMonitor, MatcherPool, PlanCache
from repro.speculation import LiveObservations
from repro.workloads import classic


def _plan(scheme="pm", spec1=0.30, spec4=0.95, spec16=1.0, spec_k=4):
    """A duck-typed plan: DriftMonitor only reads scheme/features/config."""
    features = FSMFeatures(
        name="duck",
        n_states=64,
        spec1_accuracy=spec1,
        spec4_accuracy=spec4,
        spec16_accuracy=spec16,
        sensitivity=0.0,
        convergence_states=4.0,
        profiling_seconds=0.0,
        reachable_width=4.0,
    )
    return SimpleNamespace(
        scheme=scheme, features=features, config={"spec_k": spec_k}
    )


def _obs(hits, misses, segments=1, spec_k=4):
    return LiveObservations(
        scheme="pm-spec4",
        spec_k=spec_k,
        segments=segments,
        symbols=(hits + misses + 1) * 32,
        spec_hits=hits,
        spec_misses=misses,
    )


BAD = dict(hits=1, misses=15)  # accuracy 1/16 — far below the 0.95 anchor
GOOD = dict(hits=15, misses=1)  # accuracy 15/16 — right at the anchor


# ----------------------------------------------------------------------
# DriftConfig validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"threshold": 0.0},
        {"threshold": 1.5},
        {"min_samples": 0},
        {"ewma_alpha": 0.0},
        {"ewma_alpha": 1.5},
        {"hysteresis": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ServingError) as info:
        DriftConfig(**kwargs)
    assert info.value.code == "drift-config"


# ----------------------------------------------------------------------
# DriftMonitor hysteresis contract
# ----------------------------------------------------------------------
def test_warmup_gate_blocks_early_firing():
    monitor = DriftMonitor(
        _plan(),
        DriftConfig(threshold=0.3, min_samples=50, ewma_alpha=1.0, hysteresis=1),
    )
    # Three collapsed observations = 48 boundaries: still warming up.
    for _ in range(3):
        assert monitor.observe(_obs(**BAD)) is False
    assert not monitor.fired
    # The fourth crosses min_samples and the sustained breach fires.
    assert monitor.observe(_obs(**BAD)) is True
    assert monitor.fired


def test_borderline_oscillation_never_fires():
    monitor = DriftMonitor(
        _plan(),
        DriftConfig(threshold=0.3, min_samples=1, ewma_alpha=1.0, hysteresis=3),
    )
    # Two breaches, then a recovery, forever: the consecutive-breach run
    # resets before reaching the hysteresis depth, so a borderline stream
    # oscillating around the threshold cannot flap the plan.
    for _ in range(10):
        assert monitor.observe(_obs(**BAD)) is False
        assert monitor.observe(_obs(**BAD)) is False
        assert monitor.observe(_obs(**GOOD)) is False
    assert not monitor.fired
    assert monitor.divergence < 0.3


def test_sustained_collapse_fires_exactly_once():
    monitor = DriftMonitor(
        _plan(),
        DriftConfig(threshold=0.3, min_samples=1, ewma_alpha=1.0, hysteresis=2),
    )
    assert monitor.observe(_obs(**BAD)) is False
    assert monitor.observe(_obs(**BAD)) is True
    # Latched: further evidence is absorbed but never re-fires.
    for _ in range(5):
        assert monitor.observe(_obs(**BAD, segments=2)) is False
    lag = monitor.rearm(_plan(scheme="sfa"))
    assert lag == 10  # 5 post-fire observations x 2 segments
    assert not monitor.fired
    assert monitor.samples == 0
    assert monitor.dormant  # re-armed onto a misprediction-free scheme


def test_snapshot_returns_breach_window_not_lifetime():
    monitor = DriftMonitor(
        _plan(),
        DriftConfig(threshold=0.3, min_samples=1, ewma_alpha=1.0, hysteresis=2),
    )
    for _ in range(3):
        monitor.observe(_obs(**GOOD))
    monitor.observe(_obs(**BAD))
    assert monitor.observe(_obs(**BAD)) is True
    window = monitor.snapshot()
    # Only the two breaching observations: the calm evidence that would
    # dilute the revise back toward the stale anchors is excluded.
    assert window.boundary_samples == 32
    assert window.spec_accuracy == pytest.approx(2 / 32)
    # The lifetime aggregate still saw everything.
    assert monitor.samples == 80


def test_sample_free_observations_never_move_the_ewma():
    monitor = DriftMonitor(
        _plan(scheme="sfa"),
        DriftConfig(threshold=0.3, min_samples=1, ewma_alpha=1.0, hysteresis=1),
    )
    assert monitor.dormant
    sketchy = LiveObservations(scheme="sfa", spec_k=1, segments=1, symbols=512)
    assert monitor.observe(sketchy) is False
    assert monitor.divergence == 0.0
    assert not monitor.fired


# ----------------------------------------------------------------------
# Cache revision monotonicity
# ----------------------------------------------------------------------
def test_cache_never_rolls_back_a_revision():
    dfa = classic.drifting_phase(128)
    training = classic.drifting_phase_input(4096, drift_at=1.0, seed=7)
    config = GSpecPalConfig(n_threads=32)
    cache = PlanCache(capacity=2, config=config)
    stale = cache.get_or_compile(dfa, training, config)
    revised = revise_plan(
        stale,
        LiveObservations(
            scheme="pm-spec4",
            spec_k=4,
            segments=2,
            symbols=4096,
            spec_hits=6,
            spec_misses=56,
        ),
    )
    assert revised.revision == stale.revision + 1
    cache.put(revised)
    cache.put(stale)  # a racing re-submit of the stale artifact
    resident = cache.get_or_compile(dfa, training, config)
    assert resident.revision == revised.revision
    assert resident.scheme == revised.scheme
    assert cache.stats()["compiles"] == 1  # revises never touch the compiler


# ----------------------------------------------------------------------
# Pool integration: the ISSUE 9 acceptance scenario
# ----------------------------------------------------------------------
def _drift_pool(backend, metrics, cache=None, fused=False, **drift_kwargs):
    config = GSpecPalConfig(n_threads=32)
    cache = cache or PlanCache(capacity=2, config=config, metrics=metrics)
    kwargs = dict(
        threshold=0.3,
        min_samples=60,
        ewma_alpha=0.5,
        hysteresis=2,
        synchronous=True,
    )
    kwargs.update(drift_kwargs)
    pool = MatcherPool(
        cache,
        config=config,
        backend=backend,
        metrics=metrics,
        fused=fused,
        drift=DriftConfig(**kwargs),
    )
    return pool, cache, config


@pytest.mark.parametrize("backend", ["sim", "fast"])
def test_drifting_phase_revises_once_and_stays_oracle_exact(backend):
    dfa = classic.drifting_phase(128)
    training = classic.drifting_phase_input(4096, drift_at=1.0, seed=7)
    metrics = MetricsRegistry()
    pool, cache, config = _drift_pool(backend, metrics)
    compiled = cache.get_or_compile(dfa, training, config)
    assert compiled.scheme == "pm"  # calm training anchors to PM

    sid = pool.open(dfa, training_input=training)
    fed = bytearray()
    for i in range(4):
        seg = classic.drifting_phase_input(2048, drift_at=1.0, seed=100 + i)
        pool.feed(sid, seg)
        fed += seg
    for i in range(8):
        seg = classic.drifting_phase_input(2048, drift_at=0.0, seed=200 + i)
        pool.feed(sid, seg)
        fed += seg
    stats = pool.close(sid)

    # Bit-identical to the sequential oracle across the hot-swap.
    expected = int(dfa.run(bytes(fed)))
    assert stats.end_state == expected
    assert stats.accepts == (expected in dfa.accepting)
    assert stats.total_symbols == len(fed)
    # Exactly one segment-boundary swap, onto the misprediction-free plan.
    assert stats.scheme == "sfa"
    assert stats.scheme_switches == 1
    assert stats.decision_path == ("speculation_floor",)

    exported = metrics.as_dict()
    assert exported["drift.triggers"] == 1
    assert exported["drift.revises"] == 1
    assert exported["drift.swaps"] == 1
    assert exported.get("drift.revise_errors", 0) == 0

    revised = cache.get_or_compile(dfa, training, config)
    assert revised.revision == 1
    assert revised.scheme == "sfa"
    assert revised.live_provenance["prior_scheme"] == "pm"

    # A stream opened after the swap serves the revised selection from
    # its first segment — no switch, revised decision path.
    sid2 = pool.open(dfa, training_input=training)
    seg = classic.drifting_phase_input(1024, drift_at=0.0, seed=999)
    pool.feed(sid2, seg)
    stats2 = pool.close(sid2)
    assert stats2.scheme == "sfa"
    assert stats2.scheme_switches == 0
    assert stats2.decision_path == ("speculation_floor",)
    assert stats2.end_state == int(dfa.run(seg))


def test_fused_gang_stashes_one_sample_free_observation(monkeypatch):
    """A fused gang verifies no boundaries: it reports its volume once."""
    dfa = classic.drifting_phase(128)
    training = classic.drifting_phase_input(4096, drift_at=1.0, seed=7)
    pool, _, _ = _drift_pool("fast", MetricsRegistry(), fused=True)
    seen = []
    monkeypatch.setattr(
        pool, "_observe", lambda _canonical, obs: seen.append(obs) or False
    )
    sids = [pool.open(dfa, training_input=training) for _ in range(3)]
    segments = [
        classic.drifting_phase_input(n, drift_at=0.5, seed=500 + n)
        for n in (700, 0, 33)
    ]
    outcomes = pool.feed_many(list(zip(sids, segments)))
    assert all(o.ok and o.fused for o in outcomes)
    (obs,) = seen
    assert obs.scheme == "fused" and obs.symbols == 733
    assert obs.segments == 3 and obs.boundary_samples == 0
    for sid in sids:
        pool.close(sid)


def test_forced_stream_is_exempt_from_swaps():
    dfa = classic.drifting_phase(128)
    training = classic.drifting_phase_input(4096, drift_at=1.0, seed=7)
    metrics = MetricsRegistry()
    pool, _, _ = _drift_pool("fast", metrics)
    sid = pool.open(dfa, training_input=training, scheme="seq")
    fed = bytearray()
    for i in range(6):
        seg = classic.drifting_phase_input(1024, drift_at=0.0, seed=300 + i)
        pool.feed(sid, seg)
        fed += seg
    stats = pool.close(sid)
    # Sequential runs verify no boundaries, so the monitor never fires,
    # and the per-stream override pins the scheme regardless.
    assert stats.scheme == "seq"
    assert stats.scheme_switches == 0
    assert stats.decision_path == ("forced",)
    assert stats.end_state == int(dfa.run(bytes(fed)))
    assert metrics.as_dict().get("drift.triggers", 0) == 0


def test_calm_traffic_never_triggers():
    dfa = classic.drifting_phase(128)
    training = classic.drifting_phase_input(4096, drift_at=1.0, seed=7)
    metrics = MetricsRegistry()
    pool, _, _ = _drift_pool("fast", metrics)
    sid = pool.open(dfa, training_input=training)
    for i in range(12):
        pool.feed(
            sid, classic.drifting_phase_input(2048, drift_at=1.0, seed=400 + i)
        )
    stats = pool.close(sid)
    assert stats.scheme_switches == 0
    assert metrics.as_dict().get("drift.triggers", 0) == 0


def test_background_revise_lands_after_drain():
    dfa = classic.drifting_phase(128)
    training = classic.drifting_phase_input(4096, drift_at=1.0, seed=7)
    metrics = MetricsRegistry()
    pool, cache, config = _drift_pool("fast", metrics, synchronous=False)
    sid = pool.open(dfa, training_input=training)
    fed = bytearray()
    for i in range(4):
        seg = classic.drifting_phase_input(2048, drift_at=1.0, seed=100 + i)
        pool.feed(sid, seg)
        fed += seg
    for i in range(8):
        seg = classic.drifting_phase_input(2048, drift_at=0.0, seed=200 + i)
        pool.feed(sid, seg)
        fed += seg
    pool.drain_revisions(timeout=60.0)
    stats = pool.close(sid)
    assert stats.end_state == int(dfa.run(bytes(fed)))
    exported = metrics.as_dict()
    assert exported["drift.revises"] == 1
    assert exported.get("drift.revise_errors", 0) == 0
    assert cache.get_or_compile(dfa, training, config).revision == 1
    assert pool.stats()["revising"] == 0
