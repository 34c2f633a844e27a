"""Backend selection threaded through the framework layer.

Covers config validation, the environment-variable default,
``StreamSession`` carrying state identically across backends, non-native
byte order input, and the stream-parallel batch's functional parity.
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


@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("dtype", [">u2", ">i8"])
def test_non_native_byte_order_answers_like_its_native_copy(dfa, data, backend, dtype):
    """A big-endian symbol array reaches the oracle, an audited run and an
    audited feed (a walked or sequential short segment, then a speculated
    one) in native order, with the native copy's answers."""
    swapped = data.astype(dtype)
    native_end = dfa.run(data)
    assert dfa.run(swapped) == native_end
    assert dfa.run_path(swapped[:64]).tolist() == dfa.run_path(data[:64]).tolist()
    pal = GSpecPal(dfa, GSpecPalConfig(n_threads=8, backend=backend, selfcheck=True))
    assert pal.run(swapped).end_state == native_end
    session = pal.stream()
    session.feed(swapped[:5])
    assert session.state == dfa.run(data[:5])
    session.feed(swapped[5:])
    assert session.state == native_end


def _charged_batch(dfa, backend, streams):
    """Algorithm 1's stream-level baseline on ``backend``: one ledger-charged
    ``run_batch`` with a lane per (ragged) stream."""
    training = np.random.default_rng(5).integers(97, 123, size=256).astype(np.uint8)
    cfg = GSpecPalConfig(n_threads=8, backend=backend)
    sim = GSpecPal(dfa, cfg, training_input=training)._simulator()
    lengths = np.array([len(s) for s in streams])
    rows = np.zeros((len(streams), lengths.max()), dtype=np.uint8)
    for row, stream in zip(rows, streams):
        row[: len(stream)] = stream
    stats = sim.new_stats(n_threads=len(streams))
    ends = sim.engine.run_batch(
        rows,
        [dfa.start] * len(streams),
        stats=stats,
        phase="stream_parallel_scan",
        lengths=lengths,
    )
    return ends, stats


def test_fused_batch_parity(dfa):
    rng = np.random.default_rng(3)
    streams = [
        rng.integers(97, 123, size=int(rng.integers(10, 400))).astype(np.uint8)
        for _ in range(12)
    ]
    sim, sim_stats = _charged_batch(dfa, "sim", streams)
    fast, fast_stats = _charged_batch(dfa, "fast", streams)
    np.testing.assert_array_equal(fast, sim)
    assert sim_stats.transitions > 0 and fast_stats.transitions == 0


def test_fast_backend_reports_nan_cycles_not_zero(dfa):
    """Regression: the answer-only backend used to report 0 cycles,
    making it look infinitely fast in any cross-backend comparison.
    Cycle-derived figures are NaN when the engine doesn't account them."""
    rng = np.random.default_rng(7)
    streams = [rng.integers(97, 123, size=200).astype(np.uint8) for _ in range(4)]
    _, fast_stats = _charged_batch(dfa, "fast", streams)
    assert "stream_parallel_scan" not in fast_stats.phase_cycles
    totals = {}
    for backend in ("sim", "fast"):
        session = GSpecPal(
            dfa, GSpecPalConfig(n_threads=8, backend=backend)
        ).stream(scheme="rr")
        for stream in streams:
            session.feed(stream)
        totals[backend] = (session.total_symbols, session.total_cycles)
    symbols, cycles = totals["fast"]
    assert np.isnan(cycles) and np.isnan(symbols / cycles)
    symbols, cycles = totals["sim"]
    assert np.isfinite(cycles) and cycles > 0
    assert symbols / cycles > 0


def test_fast_backend_session_cycles_are_nan_and_sticky(dfa, data):
    session = GSpecPal(
        dfa, GSpecPalConfig(n_threads=8, backend="fast")
    ).stream(scheme="rr")
    session.feed(data[:512])
    assert np.isnan(session.total_cycles)
    session.feed(data[512:1024])
    assert np.isnan(session.total_cycles)  # NaN is sticky, never resets
