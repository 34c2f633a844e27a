"""GpuSimulator facade tests (layout derivation, one state numbering)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.automata.dfa import DFA
from repro.automata.properties import StateFrequencyProfile, profile_state_frequencies
from repro.gpu.device import RTX3090
from repro.gpu.kernel import GpuSimulator, KernelPhase
from repro.gpu.memory import MemoryModel, TableLayout
from repro.errors import SimulationError


@pytest.fixture()
def training(rng):
    return bytes(rng.integers(48, 50, size=1000).astype(np.uint8))


@pytest.fixture()
def profile(div7, training):
    return profile_state_frequencies(div7, training)


def test_transformation_enabled(div7, profile):
    sim = GpuSimulator(dfa=div7, use_transformation=True, profile=profile)
    assert sim.transformed is not None
    assert sim.memory.layout is TableLayout.RANK


def test_transformation_requires_profile(div7):
    with pytest.raises(SimulationError):
        GpuSimulator(dfa=div7, use_transformation=True)


def test_hash_layout_without_transformation(div7, profile):
    sim = GpuSimulator(dfa=div7, use_transformation=False, profile=profile)
    assert sim.transformed is None
    assert sim.memory.layout is TableLayout.HASH
    assert sim.memory.hot_state_ids is not None


def test_hash_layout_without_profile_defaults(div7):
    sim = GpuSimulator(dfa=div7, use_transformation=False)
    assert sim.memory.layout is TableLayout.HASH


@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("use_transformation", [True, False])
def test_engine_speaks_the_submitted_numbering(
    div7, profile, rng, backend, use_transformation
):
    """From every state of ``dfa``, the engine ends where ``dfa.run`` does,
    whatever table the executor holds."""
    sim = GpuSimulator(
        dfa=div7,
        use_transformation=use_transformation,
        profile=profile,
        backend=backend,
    )
    data = rng.integers(48, 50, size=300).astype(np.uint8)
    starts = np.arange(div7.n_states)
    ends = sim.engine.run_batch(np.tile(data, (starts.size, 1)), starts)
    assert ends.tolist() == [div7.run(data, start=int(s)) for s in starts]


def test_only_the_sim_executor_holds_the_renumbered_table(div7, profile):
    sim = GpuSimulator(dfa=div7, profile=profile, backend="sim")
    assert np.array_equal(sim.executor.table, sim.transformed.dfa.table)
    assert sim.engine.transformed is sim.transformed
    fast = GpuSimulator(dfa=div7, profile=profile, backend="fast")
    assert np.array_equal(fast.engine.table, div7.table)
    plain = GpuSimulator(
        dfa=div7, use_transformation=False, profile=profile, backend="sim"
    )
    assert np.array_equal(plain.executor.table, div7.table)
    assert plain.engine.transformed is None


def test_new_stats_charges_launch(div7, profile):
    sim = GpuSimulator(dfa=div7, use_transformation=True, profile=profile)
    stats = sim.new_stats(n_threads=8)
    assert stats.cycles == RTX3090.launch_overhead_cycles
    assert KernelPhase.LAUNCH in stats.phase_cycles


# ----------------------------------------------------------------------
# layout derivation: one hot count, filled hottest-first from the profile
# ----------------------------------------------------------------------
def _device_with_entries(entries):
    """A device whose shared memory holds ``entries`` table entries (it
    keeps 8 KiB back for the verification-record staging area)."""
    return replace(RTX3090, shared_memory_bytes_per_sm=8 * 1024 + 4 * entries)


@pytest.mark.parametrize("use_transformation", [True, False])
def test_hot_count_from_shared_entries(div7, profile, use_transformation):
    device = _device_with_entries(3 * 256)
    sim = GpuSimulator(
        dfa=div7, device=device, use_transformation=use_transformation, profile=profile
    )
    assert sim.memory.hot_state_count == 3
    assert sim.memory.hot_state_count == MemoryModel.for_dfa(
        device, div7.n_states, div7.n_symbols
    ).hot_state_count


def test_rank_layout_hot_check_is_plain_compare(div7, profile):
    sim = GpuSimulator(dfa=div7, device=_device_with_entries(3 * 256), profile=profile)
    states = np.arange(div7.n_states)
    assert sim.memory.hot_mask(states).tolist() == [True] * 3 + [False] * 4
    # the cached prefix is the profile's three hottest states, hottest first
    assert sim.transformed.to_old[:3].tolist() == profile.hot_states(3).tolist()


def test_hash_layout_caches_the_hottest_states(div7, profile):
    sim = GpuSimulator(
        dfa=div7,
        device=_device_with_entries(3 * 256),
        use_transformation=False,
        profile=profile,
    )
    assert sim.memory.hot_state_ids == frozenset(profile.hot_states(3).tolist())


def test_hot_access_fraction_on_training_data(div7, rng):
    """On the training distribution, accesses concentrate on the hot prefix."""
    data = bytes(rng.integers(48, 50, size=4000).astype(np.uint8))
    prof = profile_state_frequencies(div7, data)
    sim = GpuSimulator(dfa=div7, device=_device_with_entries(4 * 256), profile=prof)
    visited = div7.run_path(data)[:-1]
    frac = sim.memory.hot_mask(sim.transformed.to_new[visited]).mean()
    mass = prof.frequencies[prof.order[:4]].sum()
    assert frac == pytest.approx(mass, abs=0.02)


def test_paper_fig4_hot_prefix():
    """Fig. 4's 4-state DFA with room for two rows: S0 and S1 (the hottest)
    keep ids 0 and 1, and exactly those ids are hot."""
    table = np.array([[1, 0, 0], [1, 2, 0], [2, 3, 2], [0, 3, 2]], dtype=np.int32)
    dfa = DFA(table=table, start=0, accepting={0}, name="fig4")
    counts = np.array([4, 4, 2, 2])
    order = np.lexsort((np.arange(4), -counts))
    prof = StateFrequencyProfile(counts=counts, order=order, sample_length=12)
    sim = GpuSimulator(dfa=dfa, device=_device_with_entries(2 * 3), profile=prof)
    assert sim.memory.hot_state_count == 2
    assert sim.transformed.to_new.tolist() == [0, 1, 2, 3]
    assert sim.memory.hot_mask(np.arange(4)).tolist() == [True, True, False, False]
