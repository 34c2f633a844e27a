"""PlanCache: LRU semantics and the one-compile-per-fingerprint guarantee."""

import json

import numpy as np
import pytest

from repro.automata import DFA
from repro.errors import PlanError, ServingError
from repro.framework import GSpecPalConfig
from repro.plan import config_fingerprint, load_plan, revise_plan
from repro.serving import MatcherPool, PlanCache
from repro.speculation import LiveObservations
from repro.workloads import classic


@pytest.fixture()
def training(rng):
    return bytes(rng.integers(97, 123, size=512).astype(np.uint8))


@pytest.fixture()
def config():
    return GSpecPalConfig(n_threads=16)


def test_capacity_must_be_positive():
    with pytest.raises(ServingError):
        PlanCache(capacity=0)


def test_get_or_compile_compiles_exactly_once(scanner_dfa, training, config):
    cache = PlanCache(config=config)
    first = cache.get_or_compile(scanner_dfa, training)
    again = cache.get_or_compile(scanner_dfa, training)
    assert again is first
    assert cache.stats()["compiles"] == 1
    assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1
    # Even with no training input a hit still serves.
    assert cache.get_or_compile(scanner_dfa) is first


def test_structurally_equal_dfas_share_one_plan(training, config):
    cache = PlanCache(config=config)
    a = classic.div7()
    b = classic.div7().renumbered(np.arange(a.n_states))  # same behaviour
    plan = cache.get_or_compile(a, training)
    assert cache.get_or_compile(b, training) is plan
    assert cache.stats()["compiles"] == 1


def test_miss_without_training_is_an_error(scanner_dfa):
    cache = PlanCache()
    with pytest.raises(ServingError, match="no training input"):
        cache.get_or_compile(scanner_dfa)


def test_lru_eviction_order(training, config):
    dfas = [classic.divisibility(n) for n in (3, 5, 7)]
    cache = PlanCache(capacity=2, config=config)
    p3, p5 = (cache.get_or_compile(d, training) for d in dfas[:2])
    cache.get(p3.fingerprint)  # refresh div3 → div5 is now LRU
    cache.get_or_compile(dfas[2], training)
    assert cache.stats()["evictions"] == 1
    assert p5.fingerprint not in cache
    assert p3.fingerprint in cache
    assert len(cache) == 2


def test_evicted_plan_recompiles(training, config):
    dfas = [classic.divisibility(n) for n in (3, 5)]
    cache = PlanCache(capacity=1, config=config)
    cache.get_or_compile(dfas[0], training)
    cache.get_or_compile(dfas[1], training)  # evicts div3
    cache.get_or_compile(dfas[0], training)  # must recompile
    assert cache.stats()["compiles"] == 3


def test_disk_spill_survives_restart(scanner_dfa, training, config, tmp_path):
    first = PlanCache(config=config, directory=tmp_path)
    plan = first.get_or_compile(scanner_dfa, training)
    assert first.stats()["compiles"] == 1

    # "Restart": a fresh cache over the same directory serves from disk.
    second = PlanCache(config=config, directory=tmp_path)
    reloaded = second.get_or_compile(scanner_dfa, training)
    assert second.stats()["compiles"] == 0
    assert second.stats()["disk_loads"] == 1
    assert reloaded.fingerprint == plan.fingerprint
    assert reloaded.scheme == plan.scheme


def test_corrupt_spill_recompiles(scanner_dfa, training, config, tmp_path):
    first = PlanCache(config=config, directory=tmp_path)
    plan = first.get_or_compile(scanner_dfa, training)
    spill = tmp_path / f"{plan.fingerprint}.npz"
    spill.write_bytes(b"not an npz")

    second = PlanCache(config=config, directory=tmp_path)
    reloaded = second.get_or_compile(scanner_dfa, training)
    # The destroyed container is discarded and the plan recompiled fresh.
    assert second.stats()["compiles"] == 1 and second.stats()["disk_loads"] == 0
    assert reloaded.fingerprint == plan.fingerprint


def test_spill_with_a_corrupt_hotness_order_is_recompiled(
    scanner_dfa, training, config, tmp_path, rng
):
    """A spill whose frequency order is no permutation is a corrupt plan:
    it is dropped and recompiled, and the stream answers oracle-exact."""
    plan = PlanCache(config=config, directory=tmp_path).get_or_compile(
        scanner_dfa, training
    )
    spill = tmp_path / f"{plan.canonical_fingerprint}.npz"
    with np.load(spill, allow_pickle=False) as data:
        arrays = {k: np.array(data[k]) for k in data.files}
    arrays["frequency_order"][1] = arrays["frequency_order"][0]
    np.savez_compressed(spill, **arrays)

    cache = PlanCache(config=config, directory=tmp_path)
    pool = MatcherPool(cache, config=config)
    sid = pool.open(scanner_dfa, training_input=training)
    assert cache.stats()["compiles"] == 1 and cache.stats()["disk_loads"] == 0
    data = bytes(rng.integers(97, 123, size=512).astype(np.uint8))
    pool.feed(sid, data)
    assert pool.close(sid).end_state == scanner_dfa.run(data)
    # The recompiled plan was spilled over the corrupt file.
    assert np.array_equal(load_plan(spill).frequency_order, plan.frequency_order)


def test_spill_holding_another_language_is_recompiled(
    scanner_dfa, training, config, tmp_path, rng
):
    """A spill whose embedded automaton no longer canonicalizes to its
    class is refused by ``load_plan``: here the accepting set is
    complemented and the content fingerprint rewritten to match, so only
    the canonical check stands between the tenant and wrong answers."""
    plan = PlanCache(config=config, directory=tmp_path).get_or_compile(
        scanner_dfa, training
    )
    spill = tmp_path / f"{plan.canonical_fingerprint}.npz"
    complement = sorted(set(range(scanner_dfa.n_states)) - scanner_dfa.accepting)
    other = DFA(scanner_dfa.table, scanner_dfa.start, frozenset(complement))
    with np.load(spill, allow_pickle=False) as data:
        arrays = {k: np.array(data[k]) for k in data.files}
    arrays["accepting"] = np.asarray(complement, dtype=np.int64)
    meta = json.loads(str(arrays["meta"]))
    meta["fingerprint"] = other.fingerprint()
    arrays["meta"] = np.asarray(json.dumps(meta))
    np.savez_compressed(spill, **arrays)
    with pytest.raises(PlanError, match="canonical fingerprint"):
        load_plan(spill)

    cache = PlanCache(config=config, directory=tmp_path)
    pool = MatcherPool(cache, config=config)
    sid = pool.open(scanner_dfa, training_input=training)
    assert cache.stats()["compiles"] == 1 and cache.stats()["disk_loads"] == 0
    data = bytes(rng.integers(97, 123, size=512).astype(np.uint8))
    pool.feed(sid, data)
    closed = pool.close(sid)
    assert closed.end_state == scanner_dfa.run(data)
    assert closed.accepts == scanner_dfa.accepts(data)
    assert load_plan(spill).fingerprint == scanner_dfa.fingerprint()


def test_spill_from_another_config_is_recompiled(
    scanner_dfa, training, config, tmp_path
):
    """A spill file compiled under another config is no hit: it is
    dropped, and the class is recompiled under the requested config and
    spilled in its place."""
    PlanCache(config=config, directory=tmp_path).get_or_compile(
        scanner_dfa, training
    )
    other = GSpecPalConfig(n_threads=32)
    cache = PlanCache(config=other, directory=tmp_path)
    plan = cache.get_or_compile(scanner_dfa, training)
    assert plan.config_hash == config_fingerprint(other)
    assert cache.stats()["compiles"] == 1 and cache.stats()["disk_loads"] == 0
    assert len(list(tmp_path.glob("*.npz"))) == 1

    # The per-call config is the requested one; the new spill serves it.
    restarted = PlanCache(config=config, directory=tmp_path)
    reloaded = restarted.get_or_compile(scanner_dfa, training, other)
    assert reloaded.config_hash == plan.config_hash
    assert restarted.stats()["disk_loads"] == 1
    assert restarted.stats()["compiles"] == 0


def test_revised_plan_outlives_its_lru_slot(training, config, tmp_path):
    """ROADMAP 5e: ``put`` of a drift revision must reach the spill file,
    or the next miss after eviction reloads the stale revision 0."""
    div3, div5 = classic.divisibility(3), classic.divisibility(5)
    cache = PlanCache(capacity=1, config=config, directory=tmp_path)
    stale = cache.get_or_compile(div3, training)
    revised = revise_plan(
        stale,
        LiveObservations(
            scheme="pm-spec4", spec_k=4, segments=2, symbols=512,
            spec_hits=1, spec_misses=15,
        ),
    )
    assert revised.revision == 1
    cache.put(revised)
    spill = tmp_path / f"{stale.canonical_fingerprint}.npz"
    written = spill.stat().st_ino
    cache.put(revised)  # a re-put that advances nothing rewrites nothing
    assert spill.stat().st_ino == written
    other = cache.get_or_compile(div5, training)  # evicts div3's class
    assert stale.fingerprint not in cache

    reloaded = cache.get_or_compile(div3)  # no training: disk or nothing
    assert cache.stats()["disk_loads"] == 1 and cache.stats()["compiles"] == 2
    assert reloaded.revision == 1
    assert reloaded.scheme == revised.scheme
    assert reloaded.live_provenance == revised.live_provenance
    # One spill file per class, and no partial write left behind.
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [spill.name, f"{other.canonical_fingerprint}.npz"]
    )


def test_empty_training_miss_is_the_no_training_error(scanner_dfa, config):
    cache = PlanCache(config=config)
    with pytest.raises(ServingError) as excinfo:
        cache.get_or_compile(scanner_dfa, b"")
    assert excinfo.value.code == "no_training_input"
    assert cache.stats()["in_flight"] == 0 and cache.stats()["compiles"] == 0


def test_stats_snapshot(scanner_dfa, training, config):
    cache = PlanCache(capacity=4, config=config)
    cache.get_or_compile(scanner_dfa, training)
    stats = cache.stats()
    assert stats["size"] == 1
    assert stats["capacity"] == 4
    assert stats["compiles"] == 1


def test_no_training_miss_error_is_structured(scanner_dfa):
    cache = PlanCache()
    with pytest.raises(ServingError, match="no training input") as excinfo:
        cache.get_or_compile(scanner_dfa)
    assert excinfo.value.code == "no_training_input"
    assert excinfo.value.fingerprint == scanner_dfa.fingerprint()
    # The failed leader released its single-flight slot for retries.
    assert cache.stats()["in_flight"] == 0


def test_stats_include_single_flight_fields(scanner_dfa, training, config):
    cache = PlanCache(config=config)
    cache.get_or_compile(scanner_dfa, training)
    stats = cache.stats()
    assert stats["compile_waits"] == 0
    assert stats["in_flight"] == 0
