"""Serving-tier concurrency: per-stream locks, single-flight compiles,
admission control, and the multithreaded soak audit.

The acceptance bar (ISSUE 5): ≥8 threads × ≥4 fingerprints × ≥200
interleaved operations with zero unexpected exceptions, exactly one
compile per distinct fingerprint, and every closed stream oracle-correct —
on both backends; plus a regression proving a cache hit is never blocked
behind another fingerprint's in-flight compile.

The soaks are the builtin scenario documents driven over the gateway
(8 connections = 8 pool threads behind its ``to_thread`` hop); the
barrier-synchronised races keep their dedicated tests below.
"""

import dataclasses
import gc
import sys
import threading
import weakref
from time import perf_counter, sleep

import numpy as np
import pytest

import repro.serving.cache as cache_mod
import repro.serving.pool as pool_mod
from repro.errors import SchemeError, ServingError
from repro.framework import GSpecPal, GSpecPalConfig
from repro.gateway import GatewayServer
from repro.observability import MetricsRegistry
from repro.plan import compile_plan, load_plan, save_plan
from repro.scenarios import builtin_scenario, run_scenario
from repro.serving import MatcherPool, PlanCache
from repro.workloads import classic


@pytest.fixture()
def config():
    return GSpecPalConfig(n_threads=8)


@pytest.fixture()
def training(rng):
    return bytes(rng.integers(97, 123, size=512).astype(np.uint8))


@pytest.fixture()
def fsms():
    return (classic.keyword_scanner(b"alpha"), classic.divisibility(7))


# ----------------------------------------------------------------------
# the soak audit (tentpole acceptance)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["sim", "fast"])
def test_soak_eight_threads_four_fingerprints(backend):
    scenario = builtin_scenario("soak").replace(backend=backend, seed=11)
    assert scenario.clients == 8 and len(scenario.tenants) == 4
    report = run_scenario(scenario)
    assert report.ok, report.summary()
    assert report.errors == []
    assert report.oracle_failures == []
    pool = report.gateway_stats["pool"]
    # Exactly one compile per distinct fingerprint, however many
    # connections raced the cold cache in the zero-gap first burst.
    assert {r.tenant for r in report.records} == {"kw0", "div3", "kw2", "div5"}
    assert pool["cache"]["compiles"] == 4
    # No stream summary lost or duplicated.
    assert report.completed == scenario.requests
    assert len({r.stream for r in report.records}) == scenario.requests
    assert pool["opened"] == pool["closed"] == scenario.requests
    assert pool["active_streams"] == 0


@pytest.mark.parametrize(
    "backend, fused",
    [("sim", False), ("fast", False), ("fast", True)],
    ids=["sim", "fast", "fast-fused"],
)
def test_drift_soak_revises_under_contention(backend, fused):
    """Drift document: live traffic collapses mid-run, inline revises
    and segment-boundary hot-swaps race the connections' pool threads
    (and, fused, their gang dispatches), and every closed stream still
    matches the oracle bit-for-bit."""
    scenario = builtin_scenario("drift").replace(backend=backend, seed=3)
    scenario = scenario.replace(
        pool=dataclasses.replace(scenario.pool, fused=fused)
    )
    report = run_scenario(scenario)
    assert report.ok, report.summary()
    assert report.metrics.get("drift.revise_errors", 0) == 0
    # The distribution shift provoked at least one revise, and
    # streams open across the swap were switched at a segment boundary
    # (visible in their wire close summaries).
    assert report.metrics["drift.revises"] >= 1
    assert report.metrics["drift.swaps"] >= 1
    assert sum(r.scheme_switches for r in report.records) >= 1
    # Revises never touch the compiler: still one compile per class.
    pool = report.gateway_stats["pool"]
    assert pool["cache"]["compiles"] == len(scenario.tenants)


def test_soak_is_deterministic_per_stream():
    scenario = builtin_scenario("soak").replace(clients=4, requests=24, seed=5)
    a, b = run_scenario(scenario), run_scenario(scenario)
    assert a.ok and b.ok

    # Interleaving may differ, but the schedule — every stream's tenant
    # and the traffic it was fed — is seed-determined.
    def traffic(report):
        return [
            (r.index, r.tenant, r.variant, r.segments, r.symbols)
            for r in report.records
        ]

    assert traffic(a) == traffic(b)


# ----------------------------------------------------------------------
# single-flight compiles
# ----------------------------------------------------------------------
def test_racing_cold_compiles_are_single_flight(training, config):
    dfa = classic.keyword_scanner(b"race")
    cache = PlanCache(config=config)
    n = 6
    real_compile = cache_mod.compile_plan

    def slow_compile(*args, **kwargs):
        # Hold the compile until every other racer is parked on the
        # in-flight event, so the overlap is guaranteed, not lucky timing.
        deadline = perf_counter() + 10.0
        while cache.stats()["compile_waits"] < n - 1 and perf_counter() < deadline:
            sleep(0.001)
        return real_compile(*args, **kwargs)

    cache_mod.compile_plan = slow_compile
    try:
        barrier = threading.Barrier(n)
        results, errors = [], []

        def racer():
            try:
                barrier.wait(timeout=10)
                results.append(cache.get_or_compile(dfa, training))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=racer) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        cache_mod.compile_plan = real_compile

    assert errors == []
    assert cache.stats()["compiles"] == 1  # one leader compiled; everyone else waited
    assert cache.stats()["compile_waits"] == n - 1
    assert len({id(plan) for plan in results}) == 1  # same plan object
    assert cache.stats()["in_flight"] == 0


def test_cache_hit_unblocked_while_other_compile_in_flight(training, config):
    """Regression: the global compile-under-lock is gone — a hit on
    fingerprint B completes while fingerprint A's compile is in flight."""
    slow_dfa = classic.keyword_scanner(b"slowpoke")
    hit_dfa = classic.divisibility(5)
    cache = PlanCache(config=config)
    resident = compile_plan(hit_dfa, training, config)
    cache.put(resident)

    gate = threading.Event()
    entered = threading.Event()
    real_compile = cache_mod.compile_plan

    def blocked_compile(*args, **kwargs):
        entered.set()
        assert gate.wait(timeout=30), "test deadlock: gate never opened"
        return real_compile(*args, **kwargs)

    cache_mod.compile_plan = blocked_compile
    try:
        leader = threading.Thread(
            target=cache.get_or_compile, args=(slow_dfa, training)
        )
        leader.start()
        assert entered.wait(timeout=30)  # A's compile is now in flight
        assert cache.stats()["in_flight"] == 1

        started = perf_counter()
        hit = cache.get_or_compile(hit_dfa)  # no training: must be a hit
        elapsed = perf_counter() - started
        assert hit is resident
        assert elapsed < 1.0, f"hit blocked {elapsed:.1f}s behind a compile"
        assert not gate.is_set()  # A really was still compiling
    finally:
        gate.set()
        cache_mod.compile_plan = real_compile
    leader.join(timeout=30)
    assert cache.stats()["compiles"] == 1
    assert slow_dfa.fingerprint() in cache


def test_leader_compile_failure_propagates_then_clears(training, config):
    dfa = classic.keyword_scanner(b"doomed")
    cache = PlanCache(config=config)
    real_compile = cache_mod.compile_plan
    boom = RuntimeError("compile exploded")

    started = threading.Event()
    release = threading.Event()

    def failing_compile(*args, **kwargs):
        started.set()
        assert release.wait(timeout=30)
        raise boom

    cache_mod.compile_plan = failing_compile
    try:
        leader_error, waiter_error = [], []

        def leader():
            try:
                cache.get_or_compile(dfa, training)
            except Exception as exc:  # noqa: BLE001
                leader_error.append(exc)

        def waiter():
            started.wait(timeout=30)
            try:
                cache.get_or_compile(dfa, training)
            except Exception as exc:  # noqa: BLE001
                waiter_error.append(exc)
            finally:
                release.set()

        threads = [
            threading.Thread(target=leader),
            threading.Thread(target=waiter),
        ]
        for t in threads:
            t.start()
        # Let the waiter park on the in-flight event before the leader
        # fails (release is set by the waiter thread itself only after it
        # issued its call — a best-effort ordering; either path is legal).
        sleep(0.05)
        release.set()
        for t in threads:
            t.join(timeout=30)
    finally:
        cache_mod.compile_plan = real_compile

    assert leader_error and leader_error[0] is boom
    # A waiter that overlapped the failed compile sees the same error; one
    # that arrived after the in-flight entry cleared becomes a new leader
    # (and fails on the restored real compile path only if it raced — here
    # the real compile works, so it may simply succeed).
    if waiter_error:
        assert waiter_error[0] is boom
    # The failed fingerprint is compilable again — single-flight state
    # cleared, and a retry with the real compiler succeeds.
    assert cache.stats()["in_flight"] == 0
    plan = cache.get_or_compile(dfa, training)
    assert plan.fingerprint == dfa.fingerprint()


# ----------------------------------------------------------------------
# per-stream locking and the feed/close race
# ----------------------------------------------------------------------
def test_feed_racing_close_gets_structured_error(
    fsms, training, config, monkeypatch
):
    pool = MatcherPool(config=config)
    sid = pool.open(fsms[0], training_input=training)
    checked = pool_mod._checked_symbols

    def close_first(segment, n_symbols, stream_id=None):
        # The feed has looked its entry up; the close wins the race to
        # the stream lock.
        pool.close(stream_id)
        return checked(segment, n_symbols, stream_id)

    monkeypatch.setattr(pool_mod, "_checked_symbols", close_first)
    with pytest.raises(ServingError) as excinfo:
        pool.feed(sid, b"abc")
    assert excinfo.value.code == "stream_closed"
    assert excinfo.value.stream_id == sid
    assert not excinfo.value.retryable


def test_unknown_stream_error_is_structured(config):
    pool = MatcherPool(config=config)
    with pytest.raises(ServingError) as excinfo:
        pool.feed(1234, b"x")
    assert excinfo.value.code == "unknown_stream"
    assert excinfo.value.stream_id == 1234


@pytest.mark.parametrize("op", ["feed", "close", "feed_many"])
@pytest.mark.parametrize("stream_id", [True, False, 1.0, 0.0, "1", None])
def test_stream_ids_are_exact_ints(fsms, training, config, op, stream_id):
    """Only the ``int`` ``open`` returned names a stream: ``True`` or
    ``1.0`` compare equal to stream 1 but are refused, not served."""
    pool = MatcherPool(config=config)
    sids = [pool.open(fsms[0], training_input=training) for _ in range(2)]
    assert sids == [0, 1]
    if op == "feed_many":
        (outcome,) = pool.feed_many([(stream_id, b"abc")])
        assert not outcome.ok
        error = outcome.error
    else:
        with pytest.raises(ServingError) as excinfo:
            getattr(pool, op)(stream_id, *([b"abc"] if op == "feed" else []))
        error = excinfo.value
    assert error.code == "unknown_stream"
    assert error.stream_id is stream_id
    for sid in sids:  # neither stream was fed or closed
        summary = pool.close(sid)
        assert (summary.stream_id, summary.segments) == (sid, 0)


@pytest.mark.parametrize("fused", [False, True], ids=["sequential", "fused"])
@pytest.mark.parametrize("bad_id", [[0], {}, {0}], ids=["list", "dict", "set"])
def test_feed_many_refuses_an_unhashable_id_alone(
    fsms, training, config, fused, bad_id
):
    """An id that cannot be hashed gets its own ``unknown_stream`` outcome
    and its batchmates are served — a repeated id still one per wave."""
    dfa = fsms[0]
    pool = MatcherPool(config=config, fused=fused)
    sids = [pool.open(dfa, training_input=training) for _ in range(2)]
    feeds = [
        (sids[0], b"xx alp"),
        (bad_id, b"alpha"),
        (sids[1], b"an alpha"),
        (sids[0], b"ha yy"),
    ]
    outcomes = pool.feed_many(feeds)
    assert [o.ok for o in outcomes] == [True, False, True, True]
    assert outcomes[1].error.code == "unknown_stream"
    assert outcomes[1].error.stream_id is bad_id
    assert outcomes[0].end_state == dfa.run(b"xx alp")
    assert outcomes[2].end_state == dfa.run(b"an alpha")
    assert outcomes[3].end_state == dfa.run(b"xx alpha yy")
    assert [pool.close(sid).segments for sid in sids] == [2, 1]


def test_closed_stream_classified_exactly(fsms, training, config):
    """A just-closed id reports stream_closed everywhere — the lone feed
    path, feed_many outcomes, and a second close — while a never-opened id
    stays unknown_stream; ids are never reused, so the classification is
    exact, not a race-dependent guess."""
    pool = MatcherPool(config=config)
    sid = pool.open(fsms[0], training_input=training)
    pool.feed(sid, b"abc" * 64)
    pool.close(sid)

    with pytest.raises(ServingError) as excinfo:
        pool.feed(sid, b"xyz" * 64)
    assert excinfo.value.code == "stream_closed"
    assert excinfo.value.stream_id == sid

    with pytest.raises(ServingError) as excinfo:
        pool.close(sid)
    assert excinfo.value.code == "stream_closed"

    outcomes = pool.feed_many([(sid, b"xyz" * 64), (sid + 999, b"xyz" * 64)])
    assert not outcomes[0].ok
    assert outcomes[0].error.code == "stream_closed"
    assert not outcomes[1].ok
    assert outcomes[1].error.code == "unknown_stream"


def test_concurrent_feeds_to_one_stream_never_interleave(
    fsms, training, config
):
    """Two threads hammering the same stream id must serialize: the final
    state equals the oracle over *some* permutation-free concatenation —
    here every thread feeds the same bytes, so any serialized order gives
    the same oracle state, while a lost-update race would not."""
    dfa = fsms[1]  # divisibility: every byte advances the counter
    pool = MatcherPool(config=config)
    sid = pool.open(dfa, training_input=training)
    segment = b"a" * 64
    per_thread = 8
    errors = []
    barrier = threading.Barrier(4)

    def hammer():
        try:
            barrier.wait(timeout=10)
            for _ in range(per_thread):
                pool.feed(sid, segment)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert errors == []
    stats = pool.close(sid)
    assert stats.segments == 4 * per_thread
    assert stats.total_symbols == 4 * per_thread * 64
    assert stats.end_state == dfa.run(segment * (4 * per_thread))


def test_record_pruning_under_churn_stays_exact(config):
    """More threads than cores churn six classes through a capacity-2
    cache: records are pruned and rebuilt concurrently, every answer stays
    oracle-exact, and once all streams close the pool holds no record the
    cache does not."""
    pool = MatcherPool(PlanCache(capacity=2, config=config), config=config)
    dfas = [classic.divisibility(m) for m in (3, 5, 7, 11, 13, 17)]
    train = b"01" * 256
    errors = []
    barrier = threading.Barrier(6)

    def churn(worker):
        try:
            barrier.wait(timeout=10)
            for i in range(8):
                dfa = dfas[(worker + i) % len(dfas)]
                data = bytes(48 + (worker * 7 + i * 3 + j) % 2 for j in range(96))
                sid = pool.open(dfa, training_input=train)
                assert pool.feed(sid, data).end_state == dfa.run(data)
                assert pool.close(sid).end_state == dfa.run(data)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    stats = pool.stats()
    assert stats["active_streams"] == 0
    assert stats["matchers"] <= stats["cache"]["size"] <= 2


def test_close_summary_reports_public_scheme(fsms, training, config):
    pool = MatcherPool(config=config)
    sid = pool.open(fsms[0], training_input=training, scheme="rr")
    session = pool.state.lookup(sid).session
    assert session.scheme == "rr"  # public property, pre-feed
    pool.feed(sid, b"abc" * 20)
    assert session.scheme == "rr"
    assert pool.close(sid).scheme == "rr"


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
def test_capacity_rejection_is_structured_and_retryable(
    fsms, training, config
):
    pool = MatcherPool(config=config, max_streams=1)
    pool.open(fsms[0], training_input=training)
    with pytest.raises(ServingError) as excinfo:
        pool.open(fsms[0], training_input=training)
    assert excinfo.value.code == "capacity"
    assert excinfo.value.retryable
    assert pool.stats()["rejected"] == 1


def test_bounded_wait_open_succeeds_when_slot_frees(fsms, training, config):
    pool = MatcherPool(config=config, max_streams=1, open_timeout=10.0)
    first = pool.open(fsms[0], training_input=training)
    closer = threading.Timer(0.1, pool.close, args=(first,))
    closer.start()
    try:
        second = pool.open(fsms[0], training_input=training)  # blocks briefly
    finally:
        closer.join()
    assert pool.active == 1
    pool.close(second)
    assert pool.stats()["rejected"] == 0


def test_bounded_wait_open_times_out(fsms, training, config):
    pool = MatcherPool(config=config, max_streams=1, open_timeout=0.05)
    pool.open(fsms[0], training_input=training)
    with pytest.raises(ServingError) as excinfo:
        pool.open(fsms[0], training_input=training)
    assert excinfo.value.code == "capacity"
    assert excinfo.value.retryable


# ----------------------------------------------------------------------
# close_all race tolerance
# ----------------------------------------------------------------------
def test_close_all_tolerates_racing_closes(fsms, training, config):
    pool = MatcherPool(config=config)
    n = 12
    for _ in range(n):
        pool.open(fsms[0], training_input=training)
    results = {}
    barrier = threading.Barrier(2)
    errors = []

    def drain(key):
        try:
            barrier.wait(timeout=10)
            results[key] = pool.close_all()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=drain, args=(k,)) for k in ("a", "b")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert errors == []  # racing closes are tolerated, never raised
    ids_a = {s.stream_id for s in results["a"]}
    ids_b = {s.stream_id for s in results["b"]}
    # The two calls partition the streams: no stream lost, none closed
    # (and summarized) twice.
    assert ids_a.isdisjoint(ids_b)
    assert len(ids_a) + len(ids_b) == n
    assert pool.active == 0


def test_close_all_returns_only_what_it_closed(fsms, training, config):
    pool = MatcherPool(config=config)
    keep = pool.open(fsms[0], training_input=training)
    pool.open(fsms[1], training_input=training)
    pool.close(keep)
    summaries = pool.close_all()
    assert len(summaries) == 1
    assert summaries[0].stream_id != keep


# ----------------------------------------------------------------------
# satellite regressions
# ----------------------------------------------------------------------
def test_equal_reloaded_plan_keeps_resident_matcher(
    fsms, training, config, tmp_path
):
    """put()-ing a plan reloaded from disk (same fingerprint + config) must
    not discard the resident matcher and its warmed simulator."""
    plan = compile_plan(fsms[0], training, config)
    pool = MatcherPool(config=config)
    sid = pool.open(plan=plan)
    key = (plan.canonical_fingerprint, plan.config_hash)
    matcher = pool.state.classes[key].matcher

    reloaded = load_plan(save_plan(plan, tmp_path / "plan.npz"))
    assert reloaded is not plan  # different object, same artifact
    sid2 = pool.open(plan=reloaded)
    assert pool.state.classes[key].matcher is matcher  # not rebuilt
    assert pool.stats()["matchers"] == 1
    for s in (sid, sid2):
        pool.feed(s, b"alpha" * 16)
    expected = fsms[0].run(b"alpha" * 16)
    assert pool.close(sid).end_state == expected
    assert pool.close(sid2).end_state == expected


def test_unknown_scheme_rejected_at_open_before_compile(
    fsms, training, config
):
    pool = MatcherPool(config=config)
    with pytest.raises(SchemeError, match="unknown scheme"):
        pool.open(fsms[0], training_input=training, scheme="bogus")
    # Fail-fast means fail *cheap*: no compile was paid for the typo, and
    # no stream slot leaked.
    assert pool.cache.stats()["compiles"] == 0
    assert pool.active == 0
    assert pool.stats()["opened"] == 0


def test_stream_rejects_unknown_scheme_at_open(fsms, training, config):
    pal = GSpecPal(fsms[0], config, training_input=training)
    with pytest.raises(SchemeError, match="unknown scheme"):
        pal.stream(scheme="bogus")


def test_spec_alias_accepted_at_open(fsms, training, config):
    pool = MatcherPool(config=config)
    sid = pool.open(fsms[0], training_input=training, scheme=GSpecPal.PM_ALIAS)
    pool.feed(sid, b"xyz" * 10)
    pool.close(sid)


# ----------------------------------------------------------------------
# fused gang scheduling (ISSUE 6)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["sim", "fast"])
def test_fused_soak(backend):
    """The fused gang-scheduling soak: every connection batches a segment
    for each stream of its gang into one feed_many call, racing the other
    connections' gang dispatches, opens and closes on the same
    fingerprints — and every closed stream still matches the sequential
    oracle exactly."""
    scenario = builtin_scenario("soak-fused").replace(backend=backend, seed=13)
    assert scenario.pool.fused
    report = run_scenario(scenario)
    assert report.ok, report.summary()
    # The schedule actually exercised gang dispatch, not just fallbacks.
    dispatches = report.metrics["serving.pool.fused_dispatches"]
    assert dispatches > 0
    assert report.metrics["serving.pool.fused_streams"] >= 2 * dispatches
    pool = report.gateway_stats["pool"]
    assert pool["opened"] == pool["closed"] == scenario.requests
    assert pool["cache"]["compiles"] == len(scenario.tenants)


def test_close_during_fused_batch_is_serialized(fsms, training, config):
    """A close racing a fused dispatch lands strictly before or after the
    batch — the per-stream lock is held across the whole dispatch — and a
    feed whose stream lost the race reports stream_closed in its outcome
    instead of poisoning its batchmates."""
    pool = MatcherPool(config=config, fused=True)
    survivor = pool.open(fsms[0], training_input=training)
    victim = pool.open(fsms[0], training_input=training)
    stop = threading.Event()
    closed = threading.Event()
    errors = []
    survivor_fed = bytearray()
    closed_seen = 0

    def feeder():
        nonlocal closed_seen
        try:
            while not stop.is_set():
                outcomes = pool.feed_many(
                    [(survivor, b"alpha" * 8), (victim, b"beta" * 8)]
                )
                assert outcomes[0].ok  # batchmate never poisoned
                survivor_fed.extend(b"alpha" * 8)
                if not outcomes[1].ok:
                    # A once-open id is always classified as closed, never
                    # collapsed into unknown_stream — whether the dispatch
                    # lost the race before or after the entry was released.
                    assert outcomes[1].error.code == "stream_closed"
                    closed_seen += 1
                    if closed_seen >= 3:
                        break
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    def closer():
        try:
            sleep(0.01)
            pool.close(victim)
            closed.set()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=feeder),
        threading.Thread(target=closer),
    ]
    for t in threads:
        t.start()
    assert closed.wait(timeout=30)
    stop.set()
    for t in threads:
        t.join(timeout=30)
    assert errors == []
    stats = pool.close(survivor)
    assert stats.end_state == fsms[0].run(bytes(survivor_fed))
    assert stats.total_symbols == len(survivor_fed)


def test_feed_many_falls_back_below_min_width(fsms, training, config):
    """A one-stream group (narrower than FUSED_MIN_STREAMS) runs the
    ordinary scheme path — and still lands the same answer."""
    registry = MetricsRegistry()
    pool = MatcherPool(config=config, fused=True, metrics=registry)
    sids = [pool.open(fsms[i], training_input=training) for i in range(2)]
    outcomes = pool.feed_many([(sid, b"alpha" * 10) for sid in sids])
    assert all(o.ok and not o.fused for o in outcomes)
    exported = registry.as_dict()
    assert exported.get("serving.pool.fused_dispatches", 0) == 0
    assert exported["serving.pool.fused_fallbacks"] == 2
    for i, sid in enumerate(sids):
        assert pool.close(sid).end_state == fsms[i].run(b"alpha" * 10)


def test_feed_many_mixed_fingerprints_fuse_in_one_pass(fsms, training, config):
    registry = MetricsRegistry()
    pool = MatcherPool(config=config, fused=True, metrics=registry)
    a = [pool.open(fsms[0], training_input=training) for _ in range(3)]
    b = [pool.open(fsms[1], training_input=training) for _ in range(2)]
    feeds = [(sid, b"xyzzy" * 6) for sid in a + b]
    outcomes = pool.feed_many(feeds)
    assert all(o.ok and o.fused for o in outcomes)
    exported = registry.as_dict()
    # Both fingerprint groups (widths 3 and 2) ride one kernel pass.
    assert exported["serving.pool.fused_dispatches"] == 1
    assert exported["serving.pool.fused_streams"] == 5
    assert exported["serving.pool.fused_batch_width.max"] == 5
    assert exported["serving.pool.fused_batch_width.min"] == 5
    for sid in a:
        assert pool.close(sid).end_state == fsms[0].run(b"xyzzy" * 6)
    for sid in b:
        assert pool.close(sid).end_state == fsms[1].run(b"xyzzy" * 6)


@pytest.mark.parametrize("backend", ["sim", "fast"])
def test_union_waves_race_closes_across_classes(fsms, training, config, backend):
    """Two threads issue overlapping two-class ``feed_many`` waves (one in
    reverse order, so locks taken in input order would deadlock) while a
    third closes streams of both classes.  Nothing hangs, every answer is
    exact, and a closed stream's outcome never poisons its batchmates."""
    pool = MatcherPool(config=config, backend=backend, fused=True)
    segment = b"xalpha7y"

    dfa_of = {}

    def open_each(n):
        for fsm in fsms:
            for _ in range(n):
                dfa_of[pool.open(fsm, training_input=training)] = fsm
        return list(dfa_of)[-n * len(fsms) :]

    # Each thread owns two streams per class; the victims are shared.
    owned, victims = [open_each(2), open_each(2)], open_each(2)
    fed = {sid: 0 for sid in dfa_of}
    errors = []

    def feeder(mine, reverse):
        try:
            for _ in range(60):
                feeds = [(sid, segment) for sid in mine + victims]
                outcomes = pool.feed_many(feeds[::-1] if reverse else feeds)
                for outcome in outcomes:
                    sid = outcome.stream_id
                    if sid in mine:
                        fed[sid] += 1
                        assert outcome.ok and outcome.fused
                        assert outcome.end_state == dfa_of[sid].run(segment * fed[sid])
                    elif not outcome.ok:
                        assert outcome.error.code == "stream_closed"
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    def closer():
        try:
            for sid in victims:
                sleep(0.002)
                stats = pool.close(sid)
                # Whatever interleaving the victim saw, it ran whole segments.
                k = stats.segments
                assert stats.total_symbols == k * len(segment)
                assert stats.end_state == dfa_of[sid].run(segment * k)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    # Daemon threads: a deadlocked run fails here instead of hanging exit.
    threads = [
        threading.Thread(target=feeder, args=(owned[0], False), daemon=True),
        threading.Thread(target=feeder, args=(owned[1], True), daemon=True),
        threading.Thread(target=closer, daemon=True),
    ]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often, inside the lock loop too
    try:
        for t in threads:
            t.start()
        deadline = perf_counter() + 30
        for t in threads:
            t.join(timeout=max(0.0, deadline - perf_counter()))
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads), "fused waves deadlocked"
    assert errors == []
    for sid in owned[0] + owned[1]:
        assert pool.close(sid).end_state == dfa_of[sid].run(segment * fed[sid])


def _count_union_builds(monkeypatch):
    """Record the class count of every union the pool builds."""
    builds = []

    class CountedUnion(pool_mod.FusedBatchEngine):
        def __init__(self, dfas, backend=None):
            builds.append(len(dfas))
            super().__init__(dfas, backend)

    monkeypatch.setattr(pool_mod, "FusedBatchEngine", CountedUnion)
    return builds


def test_union_wave_reports_closed_streams_and_keeps_unions_per_class_set(
    fsms, training, config, monkeypatch
):
    """A stream closed before its wave gets ``stream_closed`` while its
    batchmates of both classes are served.  Unions are kept per class set:
    alternating waves over {A, B} and {A, C} build two unions, once each.
    When B's streams close and its plan leaves the cache, the {A, B} union
    goes with B's record and is freed."""
    builds = _count_union_builds(monkeypatch)
    pool = MatcherPool(PlanCache(capacity=3, config=config), config=config, fused=True)
    # B opens first, so its plan is the cache's least recently used.
    b, a, c = (
        [pool.open(fsm, training_input=training) for _ in range(3)]
        for fsm in (fsms[1], fsms[0], classic.keyword_scanner(b"omega"))
    )
    pool.close(a[0])
    pool.close(b[0])
    outcomes = pool.feed_many([(sid, b"alpha12") for sid in a + b])
    assert [o.error.code for o in outcomes if not o.ok] == ["stream_closed"] * 2
    assert [o.stream_id for o in outcomes if o.ok] == a[1:] + b[1:]
    served = [o for o in outcomes if o.ok]
    for outcome, fsm in zip(served, [fsms[0]] * 2 + [fsms[1]] * 2):
        assert outcome.fused and outcome.end_state == fsm.run(b"alpha12")
    for _ in range(2):
        for sids in (a[1:] + c, a[1:] + b[1:]):
            outcomes = pool.feed_many((sid, b"9") for sid in sids)
            assert all(o.ok and o.fused for o in outcomes)
    assert builds == [2, 2]
    record = {
        name: pool.state.lookup(sids[1]).record for name, sids in zip("abc", (a, b, c))
    }
    ab, ac = (
        tuple(sorted(pair, key=lambda r: r.key))
        for pair in ((record["a"], record["b"]), (record["a"], record["c"]))
    )
    assert set(pool.state.unions) == {ab, ac}
    freed = weakref.ref(pool.state.unions[ab])
    for sid in b[1:]:
        pool.close(sid)
    pool.open(classic.keyword_scanner(b"delta"), training_input=training)
    assert list(pool.state.unions) == [ac]
    gc.collect()
    assert freed() is None


def test_unions_are_bounded_by_the_plan_cache(fsms, training, config, monkeypatch):
    """One-class waves keep their unions too, and a pool keeps at most its
    plan cache's capacity of them, dropping the least recently used."""
    builds = _count_union_builds(monkeypatch)
    pool = MatcherPool(PlanCache(capacity=2, config=config), config=config, fused=True)
    a, b, c = (
        [pool.open(fsm, training_input=training) for _ in range(2)]
        for fsm in (*fsms, classic.keyword_scanner(b"omega"))
    )
    for sids in (a, b, a, b):
        assert all(o.ok and o.fused for o in pool.feed_many((s, b"7") for s in sids))
    assert builds == [1, 1]
    for sids in (a + b, b + c):
        assert all(o.ok and o.fused for o in pool.feed_many((s, b"7") for s in sids))
    assert builds == [1, 1, 2, 2]
    assert len(pool.state.unions) == 2
    pool.state.check()
    pool.feed_many((s, b"7") for s in a + b)  # the most recent set: no build
    assert builds == [1, 1, 2, 2]
    for sid, fsm in zip(a + b + c, [fsms[0]] * 2 + [fsms[1]] * 2 + [None] * 2):
        stats = pool.close(sid)
        if fsm is not None:
            assert stats.end_state == fsm.run(b"7" * stats.segments)


def test_fused_stream_cycles_go_nan(fsms, training, config):
    """Fused execution is answer-only: a gang-fed stream's total_cycles is
    NaN-sticky, exactly like the fast backend's per-stream contract."""
    pool = MatcherPool(config=config, backend="sim", fused=True)
    sids = [pool.open(fsms[0], training_input=training) for _ in range(2)]
    pool.feed(sids[0], b"alpha" * 8)  # sim backend: real cycles so far
    outcomes = pool.feed_many([(sid, b"alpha" * 8) for sid in sids])
    assert all(o.ok and o.fused for o in outcomes)
    for sid in sids:
        assert np.isnan(pool.close(sid).total_cycles)


# ----------------------------------------------------------------------
# serving metrics
# ----------------------------------------------------------------------
def test_serving_metrics_threaded_into_registry(fsms, training, config):
    # No ``metrics=`` anywhere: the cache makes the stack's one registry.
    pool = MatcherPool(config=config, max_streams=1)
    server = GatewayServer(pool)
    assert server.metrics is pool.metrics is pool.cache.metrics
    sid = pool.open(fsms[0], training_input=training)
    pool.feed(sid, b"abc" * 20)
    with pytest.raises(ServingError):
        # Capacity reject: admission runs before the cache, so the
        # rejected open never records a lookup (rejections are cheap).
        pool.open(fsms[0], training_input=training)
    pool.close(sid)
    sid2 = pool.open(fsms[0], training_input=training)  # cache hit
    pool.close(sid2)

    stats = server.stats()
    assert stats["pool"]["opened"] == 2 and stats["pool"]["rejected"] == 1
    assert stats["pool"]["cache"]["compiles"] == 1
    exported = stats["metrics"]
    assert exported == pool.metrics.as_dict()
    assert exported["serving.cache.compiles"] == 1
    assert exported["serving.cache.misses"] == 1
    assert exported["serving.cache.hits"] == 1
    assert exported["serving.cache.in_flight"] == 0
    assert exported["serving.pool.opened"] == 2
    assert exported["serving.pool.closed"] == 2
    assert exported["serving.pool.rejected"] == 1
    assert exported["serving.pool.active"] == 0
    assert exported["serving.pool.feeds"] == 1
    assert exported["serving.pool.feed_ms.count"] == 1
    assert exported["serving.pool.feed_ms.max"] > 0


def test_compile_wait_time_recorded(training, config):
    dfa = classic.keyword_scanner(b"waited")
    registry = MetricsRegistry()
    cache = PlanCache(config=config, metrics=registry)
    real_compile = cache_mod.compile_plan

    def slow_compile(*args, **kwargs):
        deadline = perf_counter() + 10.0
        while cache.stats()["compile_waits"] < 1 and perf_counter() < deadline:
            sleep(0.001)
        return real_compile(*args, **kwargs)

    cache_mod.compile_plan = slow_compile
    try:
        barrier = threading.Barrier(2)

        def racer():
            barrier.wait(timeout=10)
            cache.get_or_compile(dfa, training)

        threads = [threading.Thread(target=racer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        cache_mod.compile_plan = real_compile
    exported = registry.as_dict()
    assert exported["serving.cache.compile_waits"] == 1
    assert exported["serving.cache.compile_wait_ms.count"] == 1
    assert exported["serving.cache.compile_ms.count"] == 1
