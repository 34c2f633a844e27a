"""Language-equivalence plan deduplication across the serving tier.

Two tenants submitting *different* DFA tables for the *same* language must
share one compiled plan (keyed by the canonical fingerprint), one spill
file, and one warmed matcher — with the aliasing visible in the stats.
"""

import numpy as np
import pytest

from repro.automata import canonical_fingerprint
from repro.framework import GSpecPalConfig
from repro.scenarios import builtin_scenario, equivalent_variants, run_scenario
from repro.serving import MatcherPool, PlanCache
from repro.workloads import classic


@pytest.fixture()
def config():
    return GSpecPalConfig(n_threads=8)


@pytest.fixture()
def training(rng):
    return bytes(rng.integers(97, 123, size=512).astype(np.uint8))


@pytest.fixture()
def equivalent_pair(rng):
    """Two language-equivalent DFAs with distinct content fingerprints."""
    base = classic.divisibility(5)
    perm = rng.permutation(base.n_states)
    variant = base.renumbered(perm, name="div5-relabelled")
    assert base.fingerprint() != variant.fingerprint()
    assert canonical_fingerprint(base) == canonical_fingerprint(variant)
    return base, variant


def test_equivalent_dfas_compile_once(equivalent_pair, training, config):
    base, variant = equivalent_pair
    cache = PlanCache(config=config)

    plan = cache.get_or_compile(base, training)
    again = cache.get_or_compile(variant, training)

    assert again is plan
    assert cache.stats()["compiles"] == 1
    assert plan.canonical_fingerprint == canonical_fingerprint(base)
    stats = cache.stats()
    assert stats["alias_hits"] >= 1
    assert stats["dedupes"] >= 1
    assert stats["aliases"] == 2  # both content fps map to one class


def test_aliased_content_fingerprint_resolves_in_get(
    equivalent_pair, training, config
):
    base, variant = equivalent_pair
    cache = PlanCache(config=config)
    plan = cache.get_or_compile(base, training)
    cache.get_or_compile(variant, training)
    # Both content fingerprints now resolve to the single resident plan.
    assert cache.get(base.fingerprint()) is plan
    assert cache.get(variant.fingerprint()) is plan


def test_equivalent_dfas_share_one_spill_file(
    equivalent_pair, training, config, tmp_path
):
    base, variant = equivalent_pair
    first = PlanCache(config=config, directory=tmp_path)
    first.get_or_compile(base, training)
    first.get_or_compile(variant, training)
    spills = sorted(tmp_path.glob("*.npz"))
    assert [p.stem for p in spills] == [canonical_fingerprint(base)]

    # "Restart" under the *variant* fingerprint: the fresh cache has no
    # alias map, but canonicalization routes it to the spilled class.
    second = PlanCache(config=config, directory=tmp_path)
    served = second.get_or_compile(variant, training)
    assert second.stats()["compiles"] == 0
    assert served.canonical_fingerprint == canonical_fingerprint(base)


def test_pool_reuses_matcher_across_aliased_fingerprints(
    equivalent_pair, training, config, rng
):
    base, variant = equivalent_pair
    cache = PlanCache(config=config)
    pool = MatcherPool(cache, config=config)

    sid_a = pool.open(base, training_input=training)
    sid_b = pool.open(variant, training_input=training)
    assert cache.stats()["compiles"] == 1
    assert pool.stats()["matchers"] == 1  # one warmed matcher per class

    payload = bytes(rng.integers(97, 123, size=128).astype(np.uint8))
    pool.feed(sid_a, payload)
    pool.feed(sid_b, payload)
    stats_a, stats_b = pool.close(sid_a), pool.close(sid_b)

    # Same language, same input: verdicts agree, and both streams report
    # the one shared plan (first submitter's content fingerprint).
    assert stats_a.accepts == stats_b.accepts
    assert stats_a.canonical_fingerprint == stats_b.canonical_fingerprint
    assert stats_a.fingerprint == stats_b.fingerprint == base.fingerprint()


def test_variant_fleet_is_language_equivalent():
    for i, dfa in enumerate(
        (classic.keyword_scanner(b"kw0end"), classic.divisibility(3))
    ):
        row = equivalent_variants(dfa, 4, seed=7 + i)
        assert row[0] is dfa and len(row) == 4
        assert {canonical_fingerprint(v) for v in row} == {
            canonical_fingerprint(dfa)
        }
        assert len({v.fingerprint() for v in row}) == 4
        # Relabellings keep the state count, inflations add a state.
        assert [v.n_states - dfa.n_states for v in row] == [0, 0, 1, 0]


def test_stress_equivalent_mix_one_compile_per_class(tmp_path):
    scenario = builtin_scenario("equivalent-mix").replace(seed=11)
    assert [t.variants for t in scenario.tenants] == [3, 3, 3]
    report = run_scenario(scenario, spill_dir=str(tmp_path))
    assert report.ok, report.summary()
    # Every variant of every class was actually submitted.
    assert {(r.tenant, r.variant) for r in report.records} == {
        (t.name, v) for t in scenario.tenants for v in range(3)
    }
    cache = report.gateway_stats["pool"]["cache"]
    assert cache["compiles"] == len(scenario.tenants)
    assert cache["alias_hits"] > 0
    assert len(list(tmp_path.glob("*.npz"))) == len(scenario.tenants)
