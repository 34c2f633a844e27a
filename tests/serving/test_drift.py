"""Online adaptation: drift detection, inline revise, and plan hot-swap.

The acceptance bar: on the two-phase ``classic.drifting_phase``
workload a drift-enabled pool must run **exactly one** revise, inside the
feed that fires it, and segment-boundary hot-swap (PM → SFA) while every
closed stream stays bit-identical to the sequential ``dfa.run`` oracle —
on both backends.
The :class:`DriftMonitor` unit suite pins the hysteresis contract of the
one shipped policy (no flapping, warm-up gate, fire-once latch, no signal
from misprediction-free schemes), the forced-stream probe pins that a
stream opened with a forced scheme cannot revise its class, and the cache
suite pins revision monotonicity (a re-submitted stale plan can never
roll back a revise).
"""

from types import SimpleNamespace

import pytest

from repro.errors import ServingError
from repro.framework import GSpecPalConfig
from repro.observability import MetricsRegistry
from repro.plan import revise_plan
from repro.selector.features import FSMFeatures
from repro.serving import DriftMonitor, MatcherPool, PlanCache
from repro.serving.drift import HYSTERESIS, MIN_SAMPLES, THRESHOLD
from repro.speculation import LiveObservations
from repro.workloads import classic


def _plan(scheme="pm", spec1=0.30, spec4=0.95, spec16=1.0):
    """A duck-typed plan: DriftMonitor only reads scheme/features."""
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
    return SimpleNamespace(scheme=scheme, features=features)


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
# DriftMonitor hysteresis contract (the shipped policy: threshold 0.3,
# 32 warm-up samples, EWMA alpha 0.5, 2 consecutive breaches)
# ----------------------------------------------------------------------
def test_warmup_gate_blocks_early_firing():
    monitor = DriftMonitor(_plan())
    # Collapsed 8-boundary observations breach from the first one, so by
    # the second only the warm-up gate holds the fire back: three of them
    # are 24 boundaries, still warming up.
    for _ in range(3):
        assert monitor.observe(_obs(hits=1, misses=7)) is False
    assert not monitor.fired
    assert monitor.samples == 24
    # The fourth reaches MIN_SAMPLES and the sustained breach fires.
    assert monitor.observe(_obs(hits=1, misses=7)) is True
    assert monitor.fired


def test_borderline_oscillation_never_fires():
    monitor = DriftMonitor(_plan())
    for _ in range(3):  # past the warm-up gate, EWMA at the anchor
        assert monitor.observe(_obs(**GOOD)) is False
    # A collapse, then a perfect recovery, forever: each collapse breaches
    # but the recovery pulls the EWMA back under the threshold, so the
    # consecutive-breach run resets before reaching HYSTERESIS and a
    # borderline stream oscillating around the threshold cannot flap.
    for _ in range(10):
        assert monitor.observe(_obs(**BAD)) is False
        assert monitor.divergence > THRESHOLD
        assert monitor.observe(_obs(hits=16, misses=0)) is False
        assert monitor.divergence < THRESHOLD
    assert not monitor.fired


def test_sustained_collapse_fires_exactly_once():
    monitor = DriftMonitor(_plan())
    assert monitor.observe(_obs(**BAD)) is False
    assert monitor.observe(_obs(**BAD)) is True
    # Latched: further evidence only counts toward the lag.
    for _ in range(5):
        assert monitor.observe(_obs(**BAD, segments=2)) is False
    lag = monitor.rearm(_plan(scheme="sfa"))
    assert lag == 10  # 5 post-fire observations x 2 segments
    assert not monitor.fired
    assert monitor.samples == 0
    # Re-armed onto a misprediction-free scheme: its runs carry no
    # boundary samples, so nothing can fire again.
    for _ in range(2 * HYSTERESIS):
        sfa_run = LiveObservations(scheme="sfa", spec_k=1, segments=1, symbols=512)
        assert monitor.observe(sfa_run) is False
    assert monitor.divergence == 0.0
    assert not monitor.fired


def test_snapshot_returns_breach_window_not_lifetime():
    monitor = DriftMonitor(_plan())
    for _ in range(3):
        monitor.observe(_obs(**GOOD))
    assert monitor.observe(_obs(**BAD)) is False
    assert monitor.observe(_obs(**BAD)) is True
    window = monitor.snapshot()
    # Only the two breaching observations: the calm evidence that would
    # dilute the revise back toward the stale anchors is excluded.
    assert window.boundary_samples == 32
    assert window.spec_accuracy == pytest.approx(2 / 32)
    # The warm-up count still saw everything.
    assert monitor.samples == 80


def test_sample_free_observations_never_move_the_ewma():
    monitor = DriftMonitor(_plan(scheme="sfa"))
    sketchy = LiveObservations(scheme="sfa", spec_k=1, segments=1, symbols=512)
    for _ in range(MIN_SAMPLES):
        assert monitor.observe(sketchy) is False
    assert monitor.divergence == 0.0
    assert monitor.samples == 0
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
def _drift_pool(backend, metrics, cache=None, fused=False):
    config = GSpecPalConfig(n_threads=32)
    cache = cache or PlanCache(capacity=2, config=config, metrics=metrics)
    pool = MatcherPool(
        cache,
        config=config,
        backend=backend,
        metrics=metrics,
        fused=fused,
        drift=True,
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


def test_revise_records_its_stage_time_in_the_pool_registry():
    """The revise a serving pool runs lands in the pool's registry as the
    documented ``compile.stage.revise_ms`` histogram."""
    dfa = classic.drifting_phase(128)
    training = classic.drifting_phase_input(4096, drift_at=1.0, seed=7)
    pool, _, _ = _drift_pool("fast", MetricsRegistry())
    sid = pool.open(dfa, training_input=training)
    for i in range(8):
        pool.feed(sid, classic.drifting_phase_input(2048, drift_at=0.0, seed=i))
    pool.close(sid)
    exported = pool.metrics.as_dict()
    assert exported["drift.revises"] == 1
    assert exported["compile.stage.revise_ms.count"] == 1
    assert exported["compile.stage.revise_ms.max"] > 0


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


@pytest.mark.parametrize(
    "backend, scheme, gang",
    [
        pytest.param(b, s, False, id=f"{b}-{s}")
        for b in ("sim", "fast")
        for s in ("sre", "nf", "pm-spec4")
    ]
    + [pytest.param("fast", "sre", True, id="fast-sre-fused-gang")],
)
def test_forced_stream_feeds_no_evidence_to_its_class(backend, scheme, gang):
    """A forced scheme's accuracy describes that scheme, not the plan's
    selection: forced SRE on calm traffic verifies spec-1 boundaries
    (~0.1 here) against PM's spec-4 anchor (~0.97), which once read as a
    collapse and swapped the whole class off its right plan.  A fused
    gang of forced streams feeds nothing either, not even the fused
    dispatch's sample-free traffic count."""
    dfa = classic.drifting_phase(128)
    training = classic.drifting_phase_input(4096, drift_at=1.0, seed=7)
    metrics = MetricsRegistry()
    pool, cache, config = _drift_pool(backend, metrics, fused=gang)
    sids = [
        pool.open(dfa, training_input=training, scheme=scheme)
        for _ in range(2 if gang else 1)
    ]
    (record,) = pool.state.classes.values()
    assert record.matcher.plan.scheme == "pm"
    fed = bytearray()
    for i in range(20):
        seg = classic.drifting_phase_input(4096, drift_at=1.0, seed=400 + i)
        if gang:
            outcomes = pool.feed_many([(sid, seg) for sid in sids])
            assert all(outcome.ok and outcome.fused for outcome in outcomes)
        else:
            pool.feed(sids[0], seg)
        fed += seg
    for sid in sids:
        stats = pool.close(sid)
        assert stats.scheme == scheme and stats.decision_path == ("forced",)
        assert stats.end_state == int(dfa.run(bytes(fed)))
    exported = metrics.as_dict()
    assert exported.get("drift.observations", 0) == 0
    assert exported.get("drift.triggers", 0) == 0
    assert exported.get("drift.revises", 0) == 0
    assert record.matcher.plan.revision == 0
    assert record.matcher.plan.scheme == "pm"
    resident = cache.get_or_compile(dfa, training, config)
    assert (resident.revision, resident.scheme) == (0, "pm")


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


def test_revise_lands_in_the_firing_feed(monkeypatch):
    """The feed that fires the monitor runs the revise itself: it starts
    no thread, and the revision is installed before the feed returns."""
    import repro.serving.pool

    def no_thread(*args, **kwargs):
        raise AssertionError("a drift revise started a thread")

    monkeypatch.setattr(repro.serving.pool.threading, "Thread", no_thread)
    dfa = classic.drifting_phase(128)
    training = classic.drifting_phase_input(4096, drift_at=1.0, seed=7)
    metrics = MetricsRegistry()
    pool, cache, config = _drift_pool("fast", metrics)
    sid = pool.open(dfa, training_input=training)
    (record,) = pool.state.classes.values()
    fed = bytearray()
    phases = [(1.0, 100 + i) for i in range(4)] + [(0.0, 200 + i) for i in range(8)]
    for drift_at, seed in phases:
        seg = classic.drifting_phase_input(2048, drift_at=drift_at, seed=seed)
        pool.feed(sid, seg)
        fed += seg
        exported = metrics.as_dict()
        revises = exported.get("drift.revises", 0)
        assert revises == exported.get("drift.triggers", 0)
        assert record.matcher.plan.revision == revises
    stats = pool.close(sid)
    assert stats.end_state == int(dfa.run(bytes(fed)))
    exported = metrics.as_dict()
    assert exported["drift.revises"] == 1
    assert exported.get("drift.revise_errors", 0) == 0
    # One stream: nothing else fed between the trigger and the install.
    assert exported["drift.observation_lag_segments.max"] == 0
    assert cache.get_or_compile(dfa, training, config).revision == 1


def test_close_racing_an_inline_revise_waits_for_it(monkeypatch):
    """A close that lands while the firing feed runs its revise waits on
    the stream lock, and the record it leaves behind serves the revision."""
    import threading

    import repro.plan

    entered, release = threading.Event(), threading.Event()
    revise = repro.plan.revise_plan

    def gated(*args, **kwargs):
        entered.set()
        assert release.wait(timeout=30)
        return revise(*args, **kwargs)

    monkeypatch.setattr(repro.plan, "revise_plan", gated)
    dfa = classic.drifting_phase(128)
    training = classic.drifting_phase_input(4096, drift_at=1.0, seed=7)
    metrics = MetricsRegistry()
    pool, cache, config = _drift_pool("fast", metrics)
    sid = pool.open(dfa, training_input=training)
    (key,) = pool.state.classes
    fed, summaries = bytearray(), []

    def feeder():
        for i in range(8):
            seg = classic.drifting_phase_input(2048, drift_at=0.0, seed=200 + i)
            try:
                pool.feed(sid, seg)
            except ServingError as exc:
                assert exc.code == "stream_closed"
                return
            fed.extend(seg)

    feeding = threading.Thread(target=feeder)
    feeding.start()
    assert entered.wait(timeout=30)
    closing = threading.Thread(target=lambda: summaries.append(pool.close(sid)))
    closing.start()
    closing.join(timeout=0.2)
    assert closing.is_alive()  # waits on the lock the revising feed holds
    release.set()
    closing.join(timeout=30)
    feeding.join(timeout=30)
    assert not closing.is_alive() and not feeding.is_alive()
    (stats,) = summaries
    assert stats.end_state == int(dfa.run(bytes(fed)))
    assert metrics.as_dict()["drift.revises"] == 1
    assert pool.state.classes[key].matcher.plan.revision == 1
    assert cache.get_or_compile(dfa, training, config).revision == 1
