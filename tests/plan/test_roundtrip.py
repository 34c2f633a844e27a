"""Golden round-trip: save → load → serve must change *nothing*.

The acceptance bar for the compile-once split: a plan loaded from disk in
what could be another process must (a) never compile or profile — no
``compile``/``profile`` span — and (b) produce byte-identical end states,
accepts, scheme selection and (on the cycle-accounting backend) an
identical cycle ledger versus the freshly compiled plan, on both execution
backends.
"""

import numpy as np
import pytest

from repro.framework import GSpecPal, GSpecPalConfig
from repro.observability import Tracer
from repro.plan import compile_plan, config_fingerprint, load_plan, save_plan


@pytest.fixture()
def training(rng):
    return bytes(rng.integers(97, 123, size=512).astype(np.uint8))


@pytest.fixture()
def data(rng):
    return bytes(rng.integers(97, 123, size=2048).astype(np.uint8))


@pytest.fixture()
def config():
    return GSpecPalConfig(n_threads=16)


@pytest.fixture()
def plan(scanner_dfa, training, config):
    return compile_plan(scanner_dfa, training, config)


def test_roundtrip_preserves_every_field(plan, tmp_path):
    path = save_plan(plan, tmp_path / "p.npz")
    loaded = load_plan(path)
    assert loaded.fingerprint == plan.fingerprint
    assert loaded.config_hash == plan.config_hash
    assert loaded.config == plan.config
    assert loaded.features == plan.features
    assert loaded.scheme == plan.scheme
    assert loaded.decision_path == plan.decision_path
    assert loaded.cost_estimates == plan.cost_estimates
    assert loaded.predictor_stats == plan.predictor_stats
    assert loaded.training_symbols == plan.training_symbols
    assert np.array_equal(loaded.frequency_counts, plan.frequency_counts)
    assert np.array_equal(loaded.frequency_order, plan.frequency_order)
    assert loaded.dfa == plan.dfa


def test_roundtrip_derives_the_same_layout(plan, tmp_path):
    loaded = load_plan(save_plan(plan, tmp_path / "p.npz"))
    ours = GSpecPal.from_plan(loaded, backend="sim")._simulator().engine
    theirs = GSpecPal.from_plan(plan, backend="sim")._simulator().engine
    assert np.array_equal(ours.order, theirs.order)
    assert np.array_equal(ours.executor.table, theirs.executor.table)
    assert ours.memory == theirs.memory


def test_save_without_suffix_still_loads(plan, tmp_path):
    written = save_plan(plan, tmp_path / "noext")
    assert written.suffix == ".npz"
    # Loading by the suffixless name the caller used must also work.
    assert load_plan(tmp_path / "noext").fingerprint == plan.fingerprint


@pytest.mark.parametrize("backend", ["sim", "fast"])
def test_loaded_plan_serves_like_the_fresh_one(plan, data, tmp_path, backend):
    expected = GSpecPal.from_plan(plan, backend=backend).run(data)
    loaded = load_plan(save_plan(plan, tmp_path / "p.npz"))
    served = GSpecPal.from_plan(loaded, backend=backend).run(data)

    assert served.scheme == expected.scheme
    assert served.end_state == expected.end_state
    assert served.accepts == expected.accepts
    if backend == "sim":
        # Identical cycle ledger, not merely close: the served simulator
        # derives its layout from the stored hotness order, so every phase
        # must tile the same.
        assert served.cycles == expected.cycles
        assert served.stats.phase_cycles == expected.stats.phase_cycles


def test_from_plan_never_profiles(plan, data, tmp_path):
    loaded = load_plan(save_plan(plan, tmp_path / "p.npz"))
    tracer = Tracer()
    pal = GSpecPal.from_plan(loaded, tracer=tracer)
    pal.run(data)
    names = [s.name for s in tracer.iter_spans()]
    assert "profile" not in names
    assert "compile" not in names
    # The selection span still appears, replayed from the artifact.
    select = tracer.find("select")
    assert select.attrs["from_plan"] is True
    assert select.attrs["decision"] == loaded.scheme
    assert [s.name for s in tracer.roots] == ["gspecpal.run"]


def test_from_plan_applies_runtime_knobs(plan, config):
    pal = GSpecPal.from_plan(plan, backend="fast", selfcheck=True)
    assert pal.config.backend == "fast"
    assert pal.config.selfcheck is True
    # The compile fields are the plan's; runtime knobs are not part of
    # the compiled identity.
    assert pal.config.n_threads == config.n_threads
    assert config_fingerprint(pal.config) == plan.config_hash


def test_streaming_from_plan(plan, scanner_dfa, data, tmp_path):
    loaded = load_plan(save_plan(plan, tmp_path / "p.npz"))
    session = GSpecPal.from_plan(loaded).stream()
    third = len(data) // 3
    for piece in (data[:third], data[third : 2 * third], data[2 * third :]):
        session.feed(piece)
    assert session.state == scanner_dfa.run(data)
