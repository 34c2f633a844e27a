"""Backend selection threaded through the framework layer.

Covers config validation, the environment-variable default,
``StreamSession`` carrying state identically across backends, and the
fused batch's functional parity.
"""

import numpy as np
import pytest

from repro.automata import compile_regex
from repro.engine import BACKEND_ENV_VAR
from repro.errors import SimulationError
from repro.framework import GSpecPal, GSpecPalConfig


@pytest.fixture(scope="module")
def dfa():
    return compile_regex("(ab|ba)+c", n_symbols=128, name="fw-backend")


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(99)
    return rng.integers(97, 123, size=4096).astype(np.uint8)


def test_config_rejects_unknown_backend():
    with pytest.raises(SimulationError):
        GSpecPalConfig(backend="tpu")


def test_config_backend_reaches_the_simulator(dfa, data):
    pal = GSpecPal(dfa, GSpecPalConfig(n_threads=8, backend="fast"))
    pal.run(data, scheme="rr")
    assert pal._simulator().backend == "fast"


def test_env_var_sets_the_default(dfa, data, monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "fast")
    pal = GSpecPal(dfa, GSpecPalConfig(n_threads=8))
    pal.run(data, scheme="nf")
    assert pal._simulator().backend == "fast"


def test_stream_session_parity(dfa, data):
    """Segment-by-segment carried state is identical across backends."""
    sessions = {
        backend: GSpecPal(
            dfa, GSpecPalConfig(n_threads=8, backend=backend)
        ).stream(scheme="sre")
        for backend in ("sim", "fast")
    }
    for lo in range(0, data.size, 512):
        segment = data[lo : lo + 512]
        r_sim = sessions["sim"].feed(segment)
        r_fast = sessions["fast"].feed(segment)
        assert r_fast.end_state == r_sim.end_state
        assert sessions["fast"].state == sessions["sim"].state
        assert sessions["fast"].accepts == sessions["sim"].accepts


def _charged_batch(dfa, backend, streams):
    training = np.random.default_rng(5).integers(97, 123, size=256).astype(np.uint8)
    cfg = GSpecPalConfig(n_threads=8, backend=backend)
    fused = GSpecPal(dfa, cfg, training_input=training).fused_engine()
    stats = fused.sim.new_stats(n_threads=len(streams))
    return fused.dispatch(streams, [dfa.start] * len(streams), stats=stats), stats


def test_fused_batch_parity(dfa):
    rng = np.random.default_rng(3)
    streams = [
        rng.integers(97, 123, size=int(rng.integers(10, 400))).astype(np.uint8)
        for _ in range(12)
    ]
    sim, sim_stats = _charged_batch(dfa, "sim", streams)
    fast, fast_stats = _charged_batch(dfa, "fast", streams)
    np.testing.assert_array_equal(fast.end_states, sim.end_states)
    assert sim_stats.transitions > 0 and fast_stats.transitions == 0


def test_fast_backend_reports_nan_cycles_not_zero(dfa):
    """Regression: the answer-only backend used to report 0 cycles,
    making it look infinitely fast in any cross-backend comparison.
    Cycle-derived figures are NaN when the engine doesn't account them."""
    rng = np.random.default_rng(7)
    streams = [rng.integers(97, 123, size=200).astype(np.uint8) for _ in range(4)]
    fast, _ = _charged_batch(dfa, "fast", streams)
    assert np.isnan(fast.cycles)
    assert np.isnan(fast.total_symbols / fast.cycles)
    sim, _ = _charged_batch(dfa, "sim", streams)
    assert np.isfinite(sim.cycles) and sim.cycles > 0
    assert sim.total_symbols / sim.cycles > 0


def test_fast_backend_session_cycles_are_nan_and_sticky(dfa, data):
    session = GSpecPal(
        dfa, GSpecPalConfig(n_threads=8, backend="fast")
    ).stream(scheme="rr")
    session.feed(data[:512])
    assert np.isnan(session.total_cycles)
    session.feed(data[512:1024])
    assert np.isnan(session.total_cycles)  # NaN is sticky, never resets
