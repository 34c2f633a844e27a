"""GpuSimulator facade tests (layout derivation, one state numbering)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.automata.dfa import DFA
from repro.automata.properties import StateFrequencyProfile, profile_state_frequencies
from repro.engine import FastBackend
from repro.gpu.device import RTX3090
from repro.gpu.executor import LockstepExecutor
from repro.gpu.kernel import GpuSimulator, KernelPhase
from repro.gpu.memory import MemoryModel, TableLayout
from repro.gpu.stats import KernelStats
from repro.errors import AutomatonError, SimulationError
from repro.workloads import classic


@pytest.fixture()
def training(rng):
    return bytes(rng.integers(48, 50, size=1000).astype(np.uint8))


@pytest.fixture()
def profile(div7, training):
    return profile_state_frequencies(div7, training)


def test_transformation_enabled(div7, profile):
    sim = GpuSimulator(
        dfa=div7, use_transformation=True, profile=profile, backend="sim"
    )
    assert sim.engine.memory.layout is TableLayout.RANK


@pytest.mark.parametrize("backend", ["sim", "fast"])
def test_transformation_requires_profile(div7, backend):
    with pytest.raises(SimulationError, match="needs a profile"):
        GpuSimulator(dfa=div7, use_transformation=True, backend=backend)


def test_hash_layout_without_transformation(div7, profile):
    sim = GpuSimulator(
        dfa=div7, use_transformation=False, profile=profile, backend="sim"
    )
    assert sim.engine.memory.layout is TableLayout.HASH
    assert sim.engine.order.tolist() == profile.order.tolist()


def test_hash_layout_without_profile_defaults(div7):
    sim = GpuSimulator(dfa=div7, use_transformation=False, backend="sim")
    assert sim.engine.memory.layout is TableLayout.HASH
    assert sim.engine.order.tolist() == list(range(div7.n_states))
    assert np.array_equal(sim.engine.executor.table, div7.table)


# ----------------------------------------------------------------------
# the profile must fit the DFA, on either layout and backend
# ----------------------------------------------------------------------
LAYOUTS_AND_BACKENDS = pytest.mark.parametrize(
    "use_transformation, backend",
    [(True, "sim"), (False, "sim"), (True, "fast"), (False, "fast")],
)


@LAYOUTS_AND_BACKENDS
def test_profile_of_another_dfa_is_rejected(div7, rng, use_transformation, backend):
    """A profile of ``divisibility(23)`` ranks 23 states, most of them ids
    ``div7`` lacks: a hot set drawn from it would charge a wrong ledger."""
    other = classic.divisibility(23, base=10)
    data = bytes(rng.integers(48, 58, size=2000).astype(np.uint8))
    with pytest.raises(AutomatonError, match="different state count"):
        GpuSimulator(
            dfa=div7,
            use_transformation=use_transformation,
            profile=profile_state_frequencies(other, data),
            backend=backend,
        )


@LAYOUTS_AND_BACKENDS
@pytest.mark.parametrize(
    "order", [[0, 1, 2, 3, 4, 5, 5], [0, 1, 2, 3, 4, 5, 7], [6, 5, 4, 3, 2, 1, -1]]
)
def test_order_that_is_not_a_permutation_is_rejected(
    div7, profile, use_transformation, backend, order
):
    bad = replace(profile, order=np.asarray(order))
    with pytest.raises(AutomatonError, match="not a permutation"):
        GpuSimulator(
            dfa=div7,
            use_transformation=use_transformation,
            profile=bad,
            backend=backend,
        )


@pytest.mark.parametrize("use_transformation", [True, False])
def test_fast_simulator_derives_no_layout(
    div7, profile, monkeypatch, use_transformation
):
    """The answer-only backend steps ``dfa``'s table: building it makes no
    executor and no memory model."""

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the fast backend")

    monkeypatch.setattr(LockstepExecutor, "__init__", refuse)
    monkeypatch.setattr(MemoryModel, "__init__", refuse)
    sim = GpuSimulator(
        dfa=div7, use_transformation=use_transformation, profile=profile, backend="fast"
    )
    assert isinstance(sim.engine, FastBackend)
    assert np.array_equal(sim.engine.table, div7.table)
    assert not hasattr(sim, "memory") and not hasattr(sim, "executor")


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


@pytest.mark.parametrize("use_transformation", [True, False])
def test_sim_table_is_rank_ordered_on_both_layouts(div7, profile, use_transformation):
    """One host table: row ``r`` is the ``r``-th hottest state, renumbered,
    whatever check the layout charges."""
    sim = GpuSimulator(
        dfa=div7, use_transformation=use_transformation, profile=profile, backend="sim"
    )
    rank = profile.rank_of()
    assert np.array_equal(sim.engine.executor.table, rank[div7.table[profile.order]])
    assert np.array_equal(
        sim.engine.executor.table,
        div7.renumbered(rank).table,
    )


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
        dfa=div7,
        device=device,
        use_transformation=use_transformation,
        profile=profile,
        backend="sim",
    )
    assert sim.engine.memory.hot_state_count == 3
    assert sim.engine.memory.hot_state_count == MemoryModel.for_dfa(
        device, div7.n_states, div7.n_symbols
    ).hot_state_count


@pytest.mark.parametrize("use_transformation", [True, False])
def test_hot_check_is_a_plain_compare_on_both_layouts(
    div7, profile, use_transformation
):
    """Both layouts cache the profile's three hottest states, as table rows
    0..2; only the cost of finding that out differs."""
    sim = GpuSimulator(
        dfa=div7,
        device=_device_with_entries(3 * 256),
        use_transformation=use_transformation,
        profile=profile,
        backend="sim",
    )
    memory = sim.engine.memory
    assert memory.hot_state_count == 3
    assert sim.engine.order[:3].tolist() == profile.order[:3].tolist()
    assert (memory.per_step_overhead_cycles > 0) == (not use_transformation)


def test_hottest_state_is_row_zero(div7, profile):
    sim = GpuSimulator(dfa=div7, profile=profile, backend="sim")
    hottest = int(profile.order[0])
    assert int(sim.engine.order[0]) == hottest
    # row 0 is the hottest state's row, its targets renumbered by rank
    rank = profile.rank_of()
    assert sim.engine.executor.table[0].tolist() == rank[div7.table[hottest]].tolist()


def test_hot_access_fraction_on_training_data(div7, rng):
    """On the training distribution, accesses concentrate on the hot prefix."""
    data = bytes(rng.integers(48, 50, size=4000).astype(np.uint8))
    prof = profile_state_frequencies(div7, data)
    sim = GpuSimulator(
        dfa=div7, device=_device_with_entries(4 * 256), profile=prof, backend="sim"
    )
    stats = KernelStats(device=sim.device, n_threads=1)
    chunks = np.frombuffer(data, dtype=np.uint8)[None, :]
    sim.engine.run_batch(chunks, [div7.start], stats=stats)
    mass = prof.frequencies[prof.order[:4]].sum()
    assert stats.hot_access_fraction == pytest.approx(mass, abs=0.02)


def _fig4():
    """Fig. 4's 4-state DFA (symbols '/', '*', 'X') and its profile, which
    visits S0 and S1 twice as often as S2 and S3."""
    table = np.array([[1, 0, 0], [1, 2, 0], [2, 3, 2], [0, 3, 2]], dtype=np.int32)
    dfa = DFA(table=table, start=0, accepting={0}, name="fig4")
    counts = np.array([4, 4, 2, 2])
    order = np.lexsort((np.arange(4), -counts))
    return dfa, StateFrequencyProfile(counts=counts, order=order, sample_length=12)


def test_paper_fig4_hot_prefix():
    """With room for two rows, S0 and S1 (the hottest) keep ids 0 and 1, and
    exactly those ids are hot."""
    dfa, prof = _fig4()
    sim = GpuSimulator(
        dfa=dfa, device=_device_with_entries(2 * 3), profile=prof, backend="sim"
    )
    memory = sim.engine.memory
    assert memory.hot_state_count == 2
    assert sim.engine.order.tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("use_transformation", [True, False])
def test_paper_fig4_answers_unchanged(backend, use_transformation):
    dfa, prof = _fig4()
    sim = GpuSimulator(
        dfa=dfa,
        device=_device_with_entries(2 * 3),
        use_transformation=use_transformation,
        profile=prof,
        backend=backend,
    )
    for stream in ([0, 1, 2], [1, 1, 0, 2], [0, 0, 0], [2, 1, 1, 0]):
        starts = np.arange(dfa.n_states)
        ends = sim.engine.run_batch(np.tile(stream, (4, 1)), starts)
        assert ends.tolist() == [dfa.run(stream, start=int(q)) for q in starts]
