"""Plan verification: a stale, corrupt or mismatched artifact never serves.

The fingerprint is the plan's identity — ``load_plan`` re-hashes the
embedded automaton against the stored digest and re-derives its canonical
fingerprint, and ``verify(dfa)`` guards cache hits on the content
digest.  Every mismatch must surface as :class:`~repro.errors.PlanError`
before a byte is matched.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import PlanError
from repro.framework import GSpecPal, GSpecPalConfig
from repro.plan import PLAN_FORMAT_VERSION, compile_plan, load_plan, save_plan
from repro.workloads import classic
from tests.conftest import save_v3_plan


@pytest.fixture()
def plan(scanner_dfa, rng):
    training = bytes(rng.integers(97, 123, size=512).astype(np.uint8))
    return compile_plan(scanner_dfa, training, GSpecPalConfig(n_threads=16))


def _rewrite(path, mutate):
    """Rewrite the npz at ``path`` after letting ``mutate`` edit its arrays."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: np.array(data[k]) for k in data.files}
    mutate(arrays)
    np.savez_compressed(path, **arrays)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(PlanError, match="no plan file"):
        load_plan(tmp_path / "nope.npz")


def test_tampered_table_rejected(plan, tmp_path):
    path = save_plan(plan, tmp_path / "p.npz")

    def corrupt(arrays):
        table = arrays["table"]
        table[0, 0] = (table[0, 0] + 1) % plan.dfa.n_states
        arrays["table"] = table

    _rewrite(path, corrupt)
    with pytest.raises(PlanError, match="fingerprint mismatch"):
        load_plan(path)


def test_tampered_accepting_set_rejected(plan, tmp_path):
    path = save_plan(plan, tmp_path / "p.npz")

    def corrupt(arrays):
        arrays["accepting"] = arrays["accepting"][:-1]

    _rewrite(path, corrupt)
    with pytest.raises(PlanError, match="fingerprint mismatch"):
        load_plan(path)


def test_tampered_canonical_fingerprint_rejected(plan, tmp_path):
    """A file read is where plan bytes enter the process, so ``load_plan``
    re-derives the canonical fingerprint; a rewritten one never serves."""
    path = save_plan(plan, tmp_path / "p.npz")

    def relabel(arrays):
        meta = json.loads(str(arrays["meta"]))
        meta["canonical_fingerprint"] = "0" * 64
        arrays["meta"] = np.asarray(json.dumps(meta))

    _rewrite(path, relabel)
    with pytest.raises(PlanError, match="canonical fingerprint mismatch"):
        load_plan(path)


def test_v3_plan_with_tampered_canonical_fingerprint_rejected(plan, tmp_path):
    path = save_v3_plan(plan, tmp_path / "v3.npz", canonical_fingerprint="0" * 64)
    with pytest.raises(PlanError, match="canonical fingerprint"):
        load_plan(path)


def test_verify_trusts_an_in_memory_canonical_fingerprint(plan):
    """``verify`` checks content only: an in-memory plan's canonical
    fingerprint was established by whatever built it (compile, revise or
    ``load_plan``), and re-deriving it would cost a minimization."""
    relabelled = dataclasses.replace(plan, canonical_fingerprint="0" * 64)
    relabelled.verify(plan.dfa)
    GSpecPal.from_plan(relabelled)


def test_unsupported_version_rejected(plan, tmp_path):
    path = save_plan(plan, tmp_path / "p.npz")

    def bump(arrays):
        meta = json.loads(str(arrays["meta"]))
        meta["version"] = PLAN_FORMAT_VERSION + 1
        arrays["meta"] = np.asarray(json.dumps(meta))

    _rewrite(path, bump)
    with pytest.raises(PlanError, match="version"):
        load_plan(path)


def test_v2_plan_loads_with_adaptation_defaults(plan, tmp_path):
    """A pre-adaptation (v2) artifact loads unchanged: no revision, no
    provenance, pristine profiled anchors — upgrade-on-load, not reject."""
    path = save_plan(plan, tmp_path / "p.npz")

    def downgrade(arrays):
        meta = json.loads(str(arrays["meta"]))
        meta["version"] = 2
        meta.pop("revision")
        meta.pop("live_provenance")
        for key in ("live_accuracy", "live_samples"):
            meta["features"].pop(key)
        arrays["meta"] = np.asarray(json.dumps(meta))

    _rewrite(path, downgrade)
    loaded = load_plan(path)
    assert loaded.version == PLAN_FORMAT_VERSION  # saved back as v4
    assert loaded.revision == 0
    assert loaded.live_provenance == {}
    assert loaded.features.live_accuracy == -1.0
    assert loaded.features.live_samples == 0
    loaded.verify(plan.dfa)  # still serves the same automaton
    assert loaded.scheme == plan.scheme


@pytest.mark.parametrize("kind", ["duplicate", "short", "out_of_range", "negative"])
def test_frequency_order_must_be_a_permutation(plan, tmp_path, kind):
    """The hotness order is the table layout's only input: anything but a
    permutation of the states is a corrupt plan, refused at load."""
    path = save_plan(plan, tmp_path / "p.npz")
    n = plan.dfa.n_states

    def corrupt(arrays):
        order = arrays["frequency_order"]
        if kind == "duplicate":
            order[1] = order[0]
        elif kind == "short":
            order = order[:-1]
        elif kind == "out_of_range":
            order[0] = n
        else:
            order[0] = -1
        arrays["frequency_order"] = order

    _rewrite(path, corrupt)
    with pytest.raises(PlanError, match="frequency_order"):
        load_plan(path)


def test_frequency_counts_need_one_entry_per_state(plan, tmp_path):
    path = save_plan(plan, tmp_path / "p.npz")

    def corrupt(arrays):
        arrays["frequency_counts"] = arrays["frequency_counts"][:-1]

    _rewrite(path, corrupt)
    with pytest.raises(PlanError, match="frequency_counts"):
        load_plan(path)


@pytest.mark.parametrize("use_transformation", [True, False])
@pytest.mark.parametrize("backend", ["sim", "fast"])
def test_v3_plan_serves_like_a_fresh_compile(
    scanner_dfa, rng, tmp_path, use_transformation, backend
):
    """A v3 artifact, permutation and hot count included, loads and serves
    cycle-identical (sim) and answer-identical (fast) to a fresh compile."""
    training = bytes(rng.integers(97, 123, size=512).astype(np.uint8))
    data = bytes(rng.integers(97, 123, size=2048).astype(np.uint8))
    config = GSpecPalConfig(n_threads=16, use_transformation=use_transformation)
    plan = compile_plan(scanner_dfa, training, config)
    loaded = load_plan(save_v3_plan(plan, tmp_path / "v3.npz"))
    assert loaded.version == PLAN_FORMAT_VERSION
    expected = GSpecPal.from_plan(plan, backend=backend).run(data)
    served = GSpecPal.from_plan(loaded, backend=backend).run(data)
    assert served.end_state == expected.end_state == scanner_dfa.run(data)
    assert served.accepts == expected.accepts
    if backend == "sim":
        assert served.cycles == expected.cycles
        assert served.stats.phase_cycles == expected.stats.phase_cycles


@pytest.mark.parametrize(
    "tamper",
    [
        {"hot_state_count": 0},
        {"hot_state_count": 999},
        {"permutation": [0] * 7},
        {"permutation": [0, 1, 2]},
    ],
    ids=["hot0", "hot999", "perm-duplicate", "perm-short"],
)
def test_v3_layout_entries_are_ignored(div7, tmp_path, tamper):
    """A hand-edited v3 layout cannot move a cycle: the layout is derived
    from the hotness order, so the plan serves the fresh compile's
    ledger (div7, 8 KiB, 16 threads, sim)."""
    rng = np.random.default_rng(7)
    training = bytes(rng.integers(48, 58, size=1024).astype(np.uint8))
    data = bytes(rng.integers(48, 58, size=8192).astype(np.uint8))
    plan = compile_plan(div7, training, GSpecPalConfig(n_threads=16))
    fresh = GSpecPal.from_plan(plan, backend="sim").run(data)
    loaded = load_plan(save_v3_plan(plan, tmp_path / "v3.npz", **tamper))
    served = GSpecPal.from_plan(loaded, backend="sim").run(data)
    assert served.end_state == fresh.end_state == div7.run(data)
    assert served.cycles == fresh.cycles


def test_verify_against_wrong_dfa(plan):
    other = classic.div7()
    with pytest.raises(PlanError, match="recompile"):
        plan.verify(other)
    plan.verify(plan.dfa)  # the right automaton passes


def test_fingerprint_ignores_name_but_not_behaviour(scanner_dfa):
    renamed = scanner_dfa.renamed("alias") if hasattr(scanner_dfa, "renamed") else None
    if renamed is not None:
        assert renamed.fingerprint() == scanner_dfa.fingerprint()
    flipped = scanner_dfa.__class__(
        table=scanner_dfa.table,
        start=(scanner_dfa.start + 1) % scanner_dfa.n_states,
        accepting=scanner_dfa.accepting,
        name=scanner_dfa.name,
    )
    assert flipped.fingerprint() != scanner_dfa.fingerprint()


def test_older_config_snapshots_load(div7, tmp_path):
    """Plans written while ``spec_k``, the register budgets and the tree
    thresholds were config fields carry them in their snapshot: the keys
    are ignored, and the plan serves the constants' PM-spec4 with the
    fresh compile's ledger (div7, 8 KiB, 16 threads, sim)."""
    rng = np.random.default_rng(43)
    training = bytes(rng.integers(48, 58, size=1024).astype(np.uint8))
    data = bytes(rng.integers(48, 58, size=8192).astype(np.uint8))
    plan = compile_plan(div7, training, GSpecPalConfig(n_threads=16))
    path = save_plan(plan, tmp_path / "p.npz")

    def widen(arrays):
        meta = json.loads(str(arrays["meta"]))
        meta["config"].update(
            spec_k=8,
            own_registers=2,
            others_registers=2,
            thresholds={"speck_accurate": 0.0},
        )
        arrays["meta"] = np.asarray(json.dumps(meta))

    _rewrite(path, widen)
    loaded = load_plan(path)
    assert loaded.build_config() == plan.build_config()
    assert "spec_k" not in loaded.summary()
    fresh = GSpecPal.from_plan(plan, backend="sim").run(data, scheme="pm")
    served = GSpecPal.from_plan(loaded, backend="sim").run(data, scheme="pm")
    assert served.scheme == "pm-spec4"
    assert served.end_state == fresh.end_state == div7.run(data)
    assert served.cycles == fresh.cycles
