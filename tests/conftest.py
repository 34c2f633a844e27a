"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.automata import compile_disjunction
from repro.gpu.device import DeviceSpec
from repro.workloads import classic


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
