"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.automata import compile_disjunction
from repro.gpu.device import DeviceSpec
from repro.workloads import classic

#: ``pytest --hypothesis-profile=fuzz`` (CI's fuzz job) reruns the stateful
#: pool-state test with a larger example budget than tier-1's default.
settings.register_profile("fuzz", max_examples=1000, stateful_step_count=100)


@pytest.fixture(scope="session")
def small_device() -> DeviceSpec:
    """A small simulated GPU so hot/cold splits are exercised in tests."""
    return DeviceSpec(
        name="test-gpu",
        n_sms=4,
        cores_per_sm=32,
        warp_size=8,
        shared_memory_bytes_per_sm=16 * 1024,
        max_resident_warps_per_sm=8,
    )


@pytest.fixture(scope="session")
def div7():
    return classic.div7()


@pytest.fixture(scope="session")
def scanner_dfa():
    """A small realistic scanner with sticky accepts."""
    return compile_disjunction(
        ["abc", "a(b|c){2,4}d", "xy+z"], n_symbols=128, name="test-scanner"
    )


@pytest.fixture(scope="session")
def rotator():
    """The adversarial non-converging FSM."""
    return classic.cyclic_rotator(12, n_symbols=64)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_stream(rng, length: int, lo: int = 97, hi: int = 123) -> bytes:
    """Random byte stream in [lo, hi)."""
    return bytes(rng.integers(lo, hi, size=length).astype(np.uint8))


def queue_lists(prediction):
    """Every chunk's queue as ``(states, weights)`` lists, sliced from the
    prediction's CSR arrays by ``bounds``."""
    edges = prediction.bounds.tolist()
    return [
        (prediction.states[lo:hi].tolist(), prediction.weights[lo:hi].tolist())
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


def save_v3_plan(plan, path, permutation=None, **meta):
    """Write ``plan`` as a version-3 file, the layout that stored the table
    layout beside the hotness order: a ``permutation`` array (RANK plans)
    and ``hot_state_count`` / ``has_permutation`` entries, filled with the
    values v3 compiles wrote.  ``permutation`` and ``meta`` override them
    (a tampered file)."""
    import json

    from repro.gpu.memory import MemoryModel
    from repro.plan import save_plan

    path = save_plan(plan, path)
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: np.array(data[k]) for k in data.files}
    dfa, rank = plan.dfa, plan.config["use_transformation"]
    if permutation is None and rank:
        permutation = np.empty(dfa.n_states, dtype=np.int64)
        permutation[plan.frequency_order] = np.arange(dfa.n_states)
    if permutation is not None:
        arrays["permutation"] = np.asarray(permutation, dtype=np.int64)
    doc = json.loads(str(arrays["meta"]))
    doc.update(
        version=3,
        has_permutation=permutation is not None,
        hot_state_count=MemoryModel.for_dfa(
            plan.build_config().device, dfa.n_states, dfa.n_symbols
        ).hot_state_count,
    )
    doc.update(meta)
    arrays["meta"] = np.asarray(json.dumps(doc, sort_keys=True))
    np.savez_compressed(path, **arrays)
    return path
