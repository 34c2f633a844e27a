"""MatcherPool: many concurrent streams, one compile per automaton.

The acceptance scenario: ≥ 2 distinct FSMs × ≥ 8 concurrent interleaved
streams served through one LRU PlanCache with exactly one compile per
fingerprint, every stream state-equivalent to its sequential oracle.
"""

import numpy as np
import pytest

from repro.automata import compile_disjunction
from repro.errors import ServingError
from repro.framework import GSpecPal, GSpecPalConfig
from repro.plan import compile_plan
from repro.serving import MatcherPool, PlanCache
from repro.workloads import classic


@pytest.fixture()
def config():
    return GSpecPalConfig(n_threads=8)


@pytest.fixture()
def fsms():
    return (
        compile_disjunction(["abc", "xy+z"], n_symbols=128, name="pool-scan"),
        classic.keyword_scanner(b"token"),
    )


@pytest.fixture()
def training(rng):
    return bytes(rng.integers(97, 123, size=512).astype(np.uint8))


def test_two_fsms_eight_streams_one_compile_each(fsms, training, config, rng):
    cache = PlanCache(capacity=4, config=config)
    pool = MatcherPool(cache, config=config)

    # 8 concurrent streams (4 per FSM), opened before any is closed.
    streams = []
    for i in range(8):
        dfa = fsms[i % 2]
        sid = pool.open(dfa, training_input=training)
        streams.append((sid, dfa, []))
    assert pool.active == 8
    assert cache.stats()["compiles"] == 2  # one per fingerprint, not per stream
    assert pool.stats()["matchers"] == 2  # one matcher per FSM too

    # Interleave segments round-robin across all open streams.
    for _ in range(3):
        for sid, dfa, fed in streams:
            piece = bytes(rng.integers(97, 123, size=96).astype(np.uint8))
            pool.feed(sid, piece)
            fed.append(piece)

    for sid, dfa, fed in streams:
        stats = pool.close(sid)
        assert stats.segments == 3
        assert stats.total_symbols == 3 * 96
        assert stats.end_state == dfa.run(b"".join(fed))
        assert stats.accepts == (stats.end_state in dfa.accepting)
    assert pool.active == 0
    assert cache.stats()["compiles"] == 2  # serving never re-compiled


def test_open_with_precompiled_plan_skips_compiling(fsms, training, config):
    plan = compile_plan(fsms[0], training, config)
    cache = PlanCache(config=config)
    pool = MatcherPool(cache, config=config)
    sid = pool.open(plan=plan)
    pool.feed(sid, b"abc" * 40)
    stats = pool.close(sid)
    assert stats.fingerprint == plan.fingerprint
    assert cache.stats()["compiles"] == 0
    assert plan.fingerprint in cache  # seeded for future streams


@pytest.mark.parametrize("backend", ["sim", "fast"])
def test_two_configs_of_one_class_keep_their_own_matchers(
    backend, fsms, training, rng
):
    """A stream keeps the matcher it was opened on: opening the same
    language class under another compile config must not take over an
    older stream's gang dispatch or its close summary."""
    token = fsms[1]
    twin = token.renumbered(rng.permutation(token.n_states), name="token-twin")
    dfas = (token, twin)
    plans = [
        compile_plan(dfa, training, GSpecPalConfig(n_threads=n))
        for dfa, n in zip(dfas, (8, 4))
    ]
    assert plans[0].canonical_fingerprint == plans[1].canonical_fingerprint
    pool = MatcherPool(backend=backend, fused=True)
    sids = [pool.open(plan=plan) for plan in plans]
    head, tail = b"xxto" * 16, b"ken" + b"q" * 61
    pool.feed(sids[0], head)
    outcomes = pool.feed_many([(sid, tail) for sid in sids])
    fed = (head + tail, tail)
    for dfa, data, sid, outcome in zip(dfas, fed, sids, outcomes):
        expected = dfa.run(data)
        assert outcome.end_state == expected
        assert outcome.accepts == (expected in dfa.accepting)
        summary = pool.close(sid)
        assert summary.end_state == expected
        assert summary.accepts == (expected in dfa.accepting)
    # Two records, so each group is one stream wide and runs per-stream.
    assert not any(outcome.fused for outcome in outcomes)
    assert pool.stats()["matchers"] == 2


def test_forced_scheme_per_stream(fsms, training, config):
    pool = MatcherPool(config=config)
    sid = pool.open(fsms[0], training_input=training, scheme="rr")
    result = pool.feed(sid, b"xyz" * 40)
    assert result.scheme == "rr"
    assert pool.close(sid).scheme == "rr"


def test_default_scheme_is_the_plans(fsms, training, config):
    pool = MatcherPool(config=config)
    sid = pool.open(fsms[0], training_input=training)
    plan = pool.cache.get(fsms[0].fingerprint())
    pool.feed(sid, b"abc" * 40)
    closed = pool.close(sid)
    assert closed.scheme in (plan.scheme, GSpecPal.PM_ALIAS)


def test_unknown_and_closed_stream_ids_rejected(fsms, training, config):
    # Ids are allocated sequentially and never reused, so the pool can
    # tell "never existed" from "existed and closed" exactly.
    pool = MatcherPool(config=config)
    with pytest.raises(ServingError, match="unknown stream"):
        pool.feed(99, b"x")
    sid = pool.open(fsms[0], training_input=training)
    pool.close(sid)
    with pytest.raises(ServingError, match="closed"):
        pool.feed(sid, b"x")
    with pytest.raises(ServingError, match="closed"):
        pool.close(sid)


def test_open_needs_dfa_or_plan(config):
    pool = MatcherPool(config=config)
    with pytest.raises(ServingError, match="needs a dfa or a precompiled plan"):
        pool.open()


def test_stream_capacity_guard(fsms, training, config):
    pool = MatcherPool(config=config, max_streams=2)
    a = pool.open(fsms[0], training_input=training)
    pool.open(fsms[1], training_input=training)
    with pytest.raises(ServingError, match="capacity"):
        pool.open(fsms[0], training_input=training)
    pool.close(a)
    pool.open(fsms[0], training_input=training)  # freed slot reusable


def test_close_all(fsms, training, config):
    pool = MatcherPool(config=config)
    for _ in range(3):
        pool.open(fsms[0], training_input=training)
    summaries = pool.close_all()
    assert len(summaries) == 3
    assert pool.active == 0


# ----------------------------------------------------------------------
# hostile input: a symbol outside the automaton's alphabet
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("fused", [False, True])
@pytest.mark.parametrize(
    "offset", [0, 255, 100], ids=["first", "last", "mid-chunk"]
)  # 100 is 4 symbols into a 32-symbol chunk: outside any lookback window
def test_out_of_alphabet_symbol_is_refused_and_resendable(
    backend, fused, offset, config, rng
):
    dfa = classic.cyclic_rotator(6, n_symbols=4)
    training = bytes(rng.integers(0, 4, size=512).astype(np.uint8))
    first, good = (
        bytes(rng.integers(0, 4, size=n).astype(np.uint8)) for n in (64, 256)
    )
    bad = bytearray(good)
    bad[offset] = 9
    pool = MatcherPool(config=config, backend=backend, fused=fused)
    a, b, c = (pool.open(dfa, training_input=training) for _ in range(3))
    pool.feed(c, first)  # carried state the refusals must leave alone

    with pytest.raises(ServingError) as excinfo:
        pool.feed(c, bytes(bad))
    assert excinfo.value.code == "invalid_symbol"
    assert not excinfo.value.retryable and excinfo.value.stream_id == c
    with pytest.raises(ServingError) as excinfo:  # signed arrays: lower bound
        pool.feed(c, np.array([0, 1, -1, 2]))
    assert excinfo.value.code == "invalid_symbol"

    # One bad feed in a gang: reported per outcome, batchmates served.
    outcomes = pool.feed_many([(a, good), (c, bytes(bad)), (b, good)])
    assert [o.ok for o in outcomes] == [True, False, True]
    assert outcomes[0].fused == outcomes[2].fused == fused
    assert outcomes[0].end_state == outcomes[2].end_state == dfa.run(good)
    assert outcomes[1].error.code == "invalid_symbol"
    assert outcomes[1].error.stream_id == c and outcomes[1].symbols == 0

    # Nothing was half-applied: the refused stream takes the resend.
    assert pool.feed(c, good).end_state == dfa.run(first + good)
    summary = pool.close(c)
    assert (summary.segments, summary.total_symbols) == (2, 64 + 256)
    assert summary.end_state == dfa.run(first + good)
    assert pool.close(a).total_symbols == pool.close(b).total_symbols == 256


def test_out_of_alphabet_training_input_releases_its_slot(config):
    pool = MatcherPool(config=config, max_streams=1)
    dfa = classic.cyclic_rotator(6, n_symbols=4)
    with pytest.raises(ServingError) as excinfo:
        pool.open(dfa, training_input=b"\x00\x01\x07")
    assert excinfo.value.code == "invalid_symbol"
    stats = pool.stats()
    assert stats["reserved"] == 0 and stats["active_streams"] == 0
    assert stats["cache"]["compiles"] == 0 and stats["cache"]["in_flight"] == 0
    pool.close(pool.open(dfa, training_input=b"\x00\x01\x02" * 64))


# ----------------------------------------------------------------------
# admission-before-compile + drain deadline regressions
# ----------------------------------------------------------------------
def test_rejected_open_triggers_zero_compiles(fsms, training, config):
    """Admission runs before the compile: a tenant rejected at capacity
    must not pay (or even start) a cold compile for a stream it cannot
    open — rejections are the cheap backpressure signal."""
    cache = PlanCache(capacity=4, config=config)
    pool = MatcherPool(cache, config=config, max_streams=1)
    pool.open(fsms[0], training_input=training)
    assert cache.stats()["compiles"] == 1
    with pytest.raises(ServingError) as excinfo:
        pool.open(fsms[1], training_input=training)  # distinct, uncompiled
    assert excinfo.value.code == "capacity"
    stats = cache.stats()
    assert stats["compiles"] == 1  # fsms[1] never compiled
    assert stats["misses"] == 1  # ...and was never even looked up
    assert fsms[1].fingerprint() not in cache
    assert pool.stats()["reserved"] == 0  # no reservation leaked


def test_failed_open_releases_its_reserved_slot(fsms, training, config):
    """A compile failure inside open() must hand the reserved slot back,
    otherwise the pool leaks admission capacity on every failed open."""
    pool = MatcherPool(config=config, max_streams=1)
    with pytest.raises(ServingError) as excinfo:
        pool.open(fsms[0])  # cold cache, no training input: compile fails
    assert excinfo.value.code == "no_training_input"
    assert pool.stats()["reserved"] == 0
    sid = pool.open(fsms[0], training_input=training)  # slot still usable
    pool.close(sid)


def test_concurrent_opens_cannot_overadmit_during_compile(
    fsms, training, config
):
    """Reserved slots count against max_streams while compiles are in
    flight: two racing opens on a one-slot pool admit exactly one."""
    import threading

    pool = MatcherPool(config=config, max_streams=1)
    results, errors = [], []
    barrier = threading.Barrier(2)

    def racer():
        try:
            barrier.wait(timeout=10)
            results.append(pool.open(fsms[0], training_input=training))
        except ServingError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=racer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 1 and len(errors) == 1
    assert errors[0].code == "capacity"
    assert pool.active == 1


def _digits(rng, n):
    return bytes(rng.integers(48, 50, size=n).astype(np.uint8))


def test_class_records_do_not_outlive_their_plans(config, rng):
    """A record nobody holds is dropped once the cache evicts its plan, so
    pool memory is bounded by the cache, and a pruned class reopens
    oracle-exact from a fresh matcher."""
    cache = PlanCache(capacity=2, config=config)
    pool = MatcherPool(cache, config=config)
    dfas = [classic.divisibility(m) for m in (3, 5, 7, 11, 13, 17)]
    training = _digits(rng, 512)
    for dfa in dfas:
        sid = pool.open(dfa, training_input=training)
        pool.feed(sid, _digits(rng, 256))
        pool.close(sid)
    stats = pool.stats()
    assert stats["active_streams"] == 0
    assert stats["cache"]["size"] == 2
    assert stats["matchers"] <= 2

    pruned = dfas[0]
    sid = pool.open(pruned, training_input=training)
    data = _digits(rng, 300)
    result = pool.feed(sid, data)
    assert result.end_state == pruned.run(data)
    summary = pool.close(sid)
    assert summary.end_state == pruned.run(data)
    assert summary.accepts == (pruned.run(data) in pruned.accepting)
    assert pool.stats()["matchers"] <= 2


def test_held_records_survive_eviction(config, rng):
    """An open stream keeps a record whose plan the cache evicted; the
    close that lets go of it drops it."""
    cache = PlanCache(capacity=1, config=config)
    pool = MatcherPool(cache, config=config)
    training = _digits(rng, 512)
    held, other = classic.divisibility(3), classic.divisibility(5)
    sid = pool.open(held, training_input=training)
    (key,) = pool.state.classes
    pool.close(pool.open(other, training_input=training))  # evicts held's plan
    assert key in pool.state.classes
    data = _digits(rng, 200)
    assert pool.feed(sid, data).end_state == held.run(data)
    pool.close(sid)
    assert key not in pool.state.classes


@pytest.mark.parametrize("twin_before_prune", [True, False])
def test_pruned_class_keeps_its_numbering(config, rng, twin_before_prune):
    """A pruned class is rebuilt from the plan its record served, so every
    variant keeps answering in the first variant's numbering, whether the
    renumbered twin first opens before the prune or after it (when the
    cache recompiles the class from the twin's DFA)."""
    pool = MatcherPool(PlanCache(capacity=1, config=config), config=config)
    training = _digits(rng, 512)
    first = classic.divisibility(5)
    twin = first.renumbered(np.array([3, 0, 4, 1, 2]), name="div5-twin")
    for dfa in (first, twin) if twin_before_prune else (first,):
        pool.close(pool.open(dfa, training_input=training))
    pool.close(pool.open(classic.divisibility(7), training_input=training))
    assert pool.stats()["matchers"] == 1  # div5's record went with its plan

    data = _digits(rng, 200)
    assert first.run(data) != twin.run(data)
    compiles = pool.cache.stats()["compiles"]
    for dfa in (twin, first):  # the twin's cold open compiles from its DFA
        sid = pool.open(dfa, training_input=training)
        assert pool.feed(sid, data).end_state == first.run(data)
        summary = pool.close(sid)
        assert summary.end_state == first.run(data)
        assert summary.accepts == (first.run(data) in first.accepting)
    assert pool.cache.stats()["compiles"] == compiles + 1
    assert pool.stats()["matchers"] == 1
