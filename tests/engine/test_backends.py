"""Unit tests of the execution-backend layer.

Covers the name registry (explicit names, the ``REPRO_BACKEND`` environment
fallback, loud typo failure), the ``name`` and ``accounts_cycles`` of
both backends, and — most importantly — bit-identical end states between
``FastBackend`` and the cycle-accurate lockstep executor across
rectangular, ragged, masked, gathered and degenerate batches.
"""

import numpy as np
import pytest

from repro.automata.dfa import DFA, STATE_DTYPE
from repro.engine import (
    BACKEND_ENV_VAR,
    FastBackend,
    SimBackend,
    resolve_backend_name,
)
from repro.errors import SimulationError
from repro.gpu.device import RTX3090
from repro.gpu.executor import LockstepExecutor, distinct_chunks_per_warp
from repro.gpu.kernel import GpuSimulator
from repro.gpu.memory import MemoryModel
from repro.gpu.stats import KernelStats


# ----------------------------------------------------------------------
# registry / resolution
# ----------------------------------------------------------------------
def test_resolve_explicit_names():
    assert resolve_backend_name("sim") == "sim"
    assert resolve_backend_name("fast") == "fast"
    assert resolve_backend_name("  Fast ") == "fast"  # normalized


def test_resolve_defaults_to_sim(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    assert resolve_backend_name(None) == "sim"


def test_resolve_reads_environment(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "fast")
    assert resolve_backend_name(None) == "fast"
    # An explicit name always wins over the environment.
    assert resolve_backend_name("sim") == "sim"


def test_resolve_rejects_unknown_names(monkeypatch):
    with pytest.raises(SimulationError):
        resolve_backend_name("cuda")
    monkeypatch.setenv(BACKEND_ENV_VAR, "warp9")
    with pytest.raises(SimulationError):
        resolve_backend_name(None)


def test_backends_satisfy_the_protocol():
    table = np.zeros((3, 2), dtype=np.int64)
    sim = _sim_backend(table)
    fast = FastBackend(table)
    assert (sim.name, fast.name) == ("sim", "fast")
    assert sim.accounts_cycles and not fast.accounts_cycles


def test_simulator_exposes_engine(monkeypatch):
    table = np.random.default_rng(0).integers(0, 4, size=(4, 3))
    dfa = DFA(table=table, start=0, accepting=frozenset({1}), name="t")
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    sim = GpuSimulator(dfa=dfa, use_transformation=False)
    assert sim.backend == "sim"
    assert isinstance(sim.engine, SimBackend)
    monkeypatch.setenv(BACKEND_ENV_VAR, "fast")
    sim_fast = GpuSimulator(dfa=dfa, use_transformation=False)
    assert sim_fast.backend == "fast"
    assert isinstance(sim_fast.engine, FastBackend)
    # Explicit selection beats the environment.
    pinned = GpuSimulator(dfa=dfa, use_transformation=False, backend="sim")
    assert pinned.backend == "sim"
    assert isinstance(pinned.engine, SimBackend)
    with pytest.raises(SimulationError):
        GpuSimulator(dfa=dfa, use_transformation=False, backend="cuda")


# ----------------------------------------------------------------------
# functional parity with the lockstep executor
# ----------------------------------------------------------------------
@pytest.fixture()
def rng():
    return np.random.default_rng(20260805)


def _sim_backend(table):
    """The sim backend on ``table`` in its own order (no profile)."""
    return SimBackend(DFA(table=table, start=0), RTX3090, None, False)


def _make_pair(rng, n_states=13, n_symbols=7):
    table = rng.integers(0, n_states, size=(n_states, n_symbols))
    mm = MemoryModel.for_dfa(RTX3090, n_states, n_symbols)
    return LockstepExecutor(table, mm, RTX3090), FastBackend(table), table


def test_rectangular_batch_parity(rng):
    ex, fast, _ = _make_pair(rng)
    chunks = rng.integers(0, 7, size=(40, 23))
    starts = rng.integers(0, 13, size=40)
    np.testing.assert_array_equal(
        fast.run_batch(chunks, starts), ex.run(chunks, starts)
    )


def test_ragged_masked_batch_parity(rng):
    ex, fast, _ = _make_pair(rng)
    chunks = rng.integers(0, 7, size=(32, 17))
    starts = rng.integers(0, 13, size=32)
    lengths = rng.integers(0, 18, size=32)
    active = rng.random(32) < 0.6
    got = fast.run_batch(chunks, starts, lengths=lengths, active=active)
    want = ex.run(chunks, starts, lengths=lengths, active=active)
    np.testing.assert_array_equal(got, want)
    # Inactive lanes keep their start state.
    np.testing.assert_array_equal(got[~active], starts[~active].astype(got.dtype))


def test_gathered_batch_parity(rng):
    _, fast, table = _make_pair(rng)
    input_chunks = rng.integers(0, 7, size=(6, 11))
    chunk_ids = rng.integers(0, 6, size=20)
    starts = rng.integers(0, 13, size=20)
    lengths = rng.integers(0, 12, size=20)
    np.testing.assert_array_equal(
        fast.run_gathered(input_chunks, chunk_ids, starts, lengths=lengths),
        _sim_backend(table).run_gathered(
            input_chunks, chunk_ids, starts, lengths=lengths
        ),
    )


def test_degenerate_batches(rng):
    ex, fast, _ = _make_pair(rng)
    starts = rng.integers(0, 13, size=5)
    empty = np.empty((5, 0), dtype=np.int64)
    np.testing.assert_array_equal(fast.run_batch(empty, starts), ex.run(empty, starts))
    chunks = rng.integers(0, 7, size=(5, 4))
    none_active = np.zeros(5, dtype=bool)
    np.testing.assert_array_equal(
        fast.run_batch(chunks, starts, active=none_active),
        ex.run(chunks, starts, active=none_active),
    )
    zero_lengths = np.zeros(5, dtype=np.int64)
    np.testing.assert_array_equal(
        fast.run_batch(chunks, starts, lengths=zero_lengths),
        ex.run(chunks, starts, lengths=zero_lengths),
    )


def test_fast_backend_validates_like_the_executor(rng):
    _, fast, _ = _make_pair(rng)
    with pytest.raises(SimulationError):
        fast.run_batch(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
    with pytest.raises(SimulationError):
        fast.run_batch(np.zeros((4, 3), dtype=np.int64), np.zeros(5, dtype=np.int64))
    with pytest.raises(SimulationError):
        fast.run_batch(
            np.zeros((4, 3), dtype=np.int64),
            np.zeros(4, dtype=np.int64),
            lengths=np.asarray([0, 1, 2, 4]),  # > chunk_len
        )
    with pytest.raises(SimulationError):
        FastBackend(np.zeros(3, dtype=np.int64))  # 1-D table


def test_fast_backend_never_touches_the_ledger(rng):
    _, fast, _ = _make_pair(rng)
    chunks = rng.integers(0, 7, size=(8, 9))
    starts = rng.integers(0, 13, size=8)
    stats = KernelStats(device=RTX3090, n_threads=8)
    fast.run_batch(chunks, starts, stats=stats, phase="speculative_execution")
    assert stats.cycles == 0.0
    assert stats.phase_cycles == {}
    assert stats.transitions == 0
    assert stats.shared_accesses == 0 and stats.global_accesses == 0


def test_sim_backend_charges_the_ledger(rng):
    ex, _, table = _make_pair(rng)
    sim = _sim_backend(table)
    chunks = rng.integers(0, 7, size=(8, 9))
    starts = rng.integers(0, 13, size=8)
    stats = KernelStats(device=RTX3090, n_threads=8)
    ends = sim.run_batch(chunks, starts, stats=stats, phase="p")
    assert stats.cycles > 0.0
    assert stats.transitions == 8 * 9
    np.testing.assert_array_equal(ends, ex.run(chunks, starts))


def test_fast_backend_returns_state_dtype(rng):
    _, fast, _ = _make_pair(rng)
    chunks = rng.integers(0, 7, size=(4, 5))
    starts = rng.integers(0, 13, size=4)
    assert fast.run_batch(chunks, starts).dtype == STATE_DTYPE
    assert (
        fast.run_batch(chunks, starts, lengths=np.asarray([5, 4, 0, 2])).dtype
        == STATE_DTYPE
    )


# ----------------------------------------------------------------------
# the vectorized fetch-coalescing helper
# ----------------------------------------------------------------------
def _naive_distinct(lane_chunk, n_warps, ws):
    out = np.zeros(n_warps, dtype=np.int64)
    for w in range(n_warps):
        lanes = lane_chunk[w * ws : (w + 1) * ws]
        out[w] = np.unique(lanes[lanes >= 0]).size
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distinct_chunks_per_warp_matches_naive(seed):
    rng = np.random.default_rng(seed)
    ws = 32
    n_warps = 17
    lane_chunk = rng.integers(-1, 50, size=n_warps * ws)
    np.testing.assert_array_equal(
        distinct_chunks_per_warp(lane_chunk, n_warps, ws),
        _naive_distinct(lane_chunk, n_warps, ws),
    )


def test_distinct_chunks_per_warp_all_invalid():
    lane_chunk = np.full(64, -1, dtype=np.int64)
    np.testing.assert_array_equal(
        distinct_chunks_per_warp(lane_chunk, 2, 32), np.zeros(2, dtype=np.int64)
    )
