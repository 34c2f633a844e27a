"""Minimizations per serving operation, and none under the pool lock.

A cold open minimizes its DFA once: the cache canonicalizes a first
sighting and hands the form to ``compile_plan``.  ``from_plan`` and a
spill reload's same-content check compare content hashes only, and
``load_plan`` — where plan bytes enter the process — is the one place a
stored canonical fingerprint is re-derived.  A cold open also hashes the
submitted table once and walks the training slice once.
"""

import hashlib

import numpy as np
import pytest

import repro.automata.minimize as minimize
from repro.automata.dfa import DFA
from repro.cli import main
from repro.framework import GSpecPalConfig
from repro.plan import compile_plan, save_plan
from repro.serving import MatcherPool, PlanCache
from repro.workloads import classic
from repro.workloads.suites import build_member


@pytest.fixture()
def config():
    # Explicitly unaudited: under selfcheck a handed-in canonical form is
    # re-derived, which is one more minimization by design.
    return GSpecPalConfig(n_threads=16, selfcheck=False)


@pytest.fixture()
def training():
    rng = np.random.default_rng(31)
    return bytes(rng.integers(48, 58, size=512).astype(np.uint8))


@pytest.fixture()
def minimizations(monkeypatch):
    """Counts ``minimize_dfa`` calls; every call asserts that no pool in
    ``pools`` holds its lock (the tests here run on one thread, so a held
    lock is held by the minimizing call)."""

    class Counter:
        calls = 0
        pools = []

        def __call__(self, op):
            before = self.calls
            op()
            return self.calls - before

    counter = Counter()
    real = minimize.minimize_dfa

    def counted(dfa, name=None):
        for pool in counter.pools:
            assert not pool._lock.locked(), "minimized under the pool lock"
        counter.calls += 1
        return real(dfa, name=name)

    monkeypatch.setattr(minimize, "minimize_dfa", counted)
    return counter


def _pool(config, directory=None):
    cache = PlanCache(config=config, directory=directory)
    return MatcherPool(cache, config=config)


def test_cold_warm_and_alias_twin_opens(minimizations, config, training):
    dfa = classic.div7()
    twin = dfa.renumbered(np.roll(np.arange(dfa.n_states), 1))
    assert twin.fingerprint() != dfa.fingerprint()
    pool = _pool(config)
    minimizations.pools.append(pool)
    assert minimizations(lambda: pool.open(dfa, training_input=training)) == 1
    assert minimizations(lambda: pool.open(dfa, training_input=training)) == 0
    assert minimizations(lambda: pool.open(twin, training_input=training)) == 1
    assert pool.cache.stats()["compiles"] == 1


def test_spill_reload_in_a_fresh_cache(minimizations, config, training, tmp_path):
    """The fresh cache canonicalizes the submission to find the spill file,
    and ``load_plan`` re-derives the stored canonical fingerprint."""
    dfa = classic.div7()
    _pool(config, tmp_path).open(dfa, training_input=training)
    pool = _pool(config, tmp_path)
    minimizations.pools.append(pool)
    assert minimizations(lambda: pool.open(dfa, training_input=training)) == 2
    assert pool.cache.stats()["disk_loads"] == 1
    assert pool.cache.stats()["compiles"] == 0


def test_run_from_plan_file(minimizations, tmp_path, capsys):
    member = build_member("snort", 1)
    plan = compile_plan(
        member.dfa, member.training_input(1024), GSpecPalConfig(n_threads=32)
    )
    path = str(save_plan(plan, tmp_path / "m.npz"))
    argv = ["run", "snort", "1", "--plan", path,
            "--input-length", "4096", "--threads", "32"]
    assert minimizations(lambda: main(argv)) == 1
    assert "kernel" in capsys.readouterr().out


def test_a_cold_open_hashes_the_table_once_and_walks_the_slice_once(
    monkeypatch, config, training
):
    dfa = classic.div7().renumbered(np.roll(np.arange(7), 1))
    table_bytes = dfa.table.tobytes()
    # The canonical form's table is hashed too, and must not be counted.
    assert minimize.canonical_form(dfa).table.tobytes() != table_bytes
    hashes, walks = [], []

    class Tap:
        def __init__(self, digest):
            self.digest = digest

        def update(self, data):
            if memoryview(data).tobytes() == table_bytes:
                hashes.append(data)
            self.digest.update(data)

        def hexdigest(self):
            return self.digest.hexdigest()

    real_sha256, real_run_path = hashlib.sha256, DFA.run_path

    def run_path(self, data, start=None):
        path = real_run_path(self, data, start=start)
        if path.size == len(training) + 1:
            walks.append(path)
        return path

    monkeypatch.setattr(hashlib, "sha256", lambda *a: Tap(real_sha256(*a)))
    monkeypatch.setattr(DFA, "run_path", run_path)
    pool = _pool(config)
    pool.open(dfa, training_input=training)
    assert pool.cache.stats()["compiles"] == 1
    assert (len(hashes), len(walks)) == (1, 1)
