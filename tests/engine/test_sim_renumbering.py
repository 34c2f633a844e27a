"""The sim backend's one rank-ordered table, against the reference oracle.

``SimBackend`` steps the submitted table with its rows in the profile's
hotness order (the identity without a profile) and charges the hot check
``state < H`` under both layouts; RANK and HASH differ only in the
per-step cost of that check.  These properties pin that it charges what
the layout's own table would: over random automata, profiles (and none),
device sizes and ragged or masked batches, under both layouts,
``run_batch``, ``run_gathered`` and ``run_mappings`` return the ends and
the ledger of :func:`~tests.gpu.test_executor_reference.reference_run` on
the *submitted* table, with the profile's ``H`` hottest states as its hot
id set — bit for bit.  ``run_mappings``' lane ``j`` starts from the
``j``-th hottest state under RANK and from state ``j`` under HASH.
"""

from dataclasses import dataclass, replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import DFA
from repro.automata.properties import StateFrequencyProfile, profile_state_frequencies
from repro.engine import FastBackend
from repro.gpu.device import RTX3090, DeviceSpec
from repro.gpu.kernel import GpuSimulator
from repro.gpu.stats import KernelStats
from tests.gpu.test_executor_reference import assert_same_outcome, reference_run

#: few resident warps, so wide batches take the serialized phase charge.
SMALL = DeviceSpec(warp_size=4, n_sms=2, max_resident_warps_per_sm=2)


def _with_rows(device, n_rows, n_symbols):
    """``device`` with shared memory for ``n_rows`` table rows (it keeps
    8 KiB back), so small automata mix hot and cold states."""
    entries = n_rows * n_symbols
    return replace(device, shared_memory_bytes_per_sm=8 * 1024 + 4 * entries)


@dataclass
class Case:
    """A sim backend and what the reference needs to reproduce it."""

    sim: GpuSimulator
    hot_ids: np.ndarray  # submitted ids of the cached rows
    overhead: float  # the layout's per-step cycles
    lanes: np.ndarray  # run_mappings' lane j starts from lanes[j]
    rng: np.random.Generator

    def reference(self, chunks, starts, **kwargs):
        """``(ends, stats)`` of the oracle on the submitted table."""
        stats = KernelStats(device=self.sim.device)
        ends = reference_run(
            self.sim.dfa.table,
            self.hot_ids,
            self.overhead,
            self.sim.device,
            chunks,
            starts,
            stats=stats,
            **kwargs,
        )
        return ends, stats


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_states = draw(st.integers(1, 40))
    n_symbols = draw(st.sampled_from([1, 2, 5]))
    table = rng.integers(0, n_states, size=(n_states, n_symbols))
    if draw(st.booleans()):  # a few rows fall into state 0: a skewed profile
        table[rng.choice(n_states, size=min(3, n_states), replace=False)] = 0
    dfa = DFA(table=table, start=int(rng.integers(0, n_states)))
    source = draw(st.sampled_from(["none", "trained", "shuffled"]))
    if source == "trained":
        training = rng.integers(0, n_symbols, size=draw(st.integers(1, 300)))
        profile = profile_state_frequencies(dfa, training)
    elif source == "shuffled":
        profile = StateFrequencyProfile(
            counts=rng.integers(0, 9, size=n_states),
            order=rng.permutation(n_states),
            sample_length=0,
        )
    else:
        profile = None
    use_transformation = profile is not None and draw(st.booleans())
    device = _with_rows(
        draw(st.sampled_from([RTX3090, SMALL])),
        draw(st.integers(0, n_states)),
        n_symbols,
    )
    sim = GpuSimulator(
        dfa=dfa,
        device=device,
        use_transformation=use_transformation,
        profile=profile,
        backend="sim",
    )
    # The reference's own layout: the hottest H states, found by id.
    order = np.arange(n_states) if profile is None else profile.order
    hot = min(n_states, device.shared_table_entries // n_symbols)
    assert sim.engine.memory.hot_state_count == hot
    overhead = (
        0.0
        if use_transformation
        else float(device.shared_cycles + device.hash_compute_cycles)
    )
    lanes = order if use_transformation else np.arange(n_states)
    return Case(sim, order[:hot], overhead, lanes, rng)


@st.composite
def batches(draw):
    case = draw(cases())
    rng = case.rng
    n_lanes = draw(st.integers(1, 80))  # up to three RTX 3090 warps
    width = draw(st.integers(0, 12))
    kwargs = {}
    if draw(st.booleans()):
        kwargs["lengths"] = rng.integers(0, width + 1, size=n_lanes)
    if draw(st.booleans()):
        kwargs["active"] = rng.random(n_lanes) < 0.6
    if draw(st.booleans()):
        kwargs["count_redundant"] = rng.random(n_lanes) < 0.5
    dfa = case.sim.dfa
    return (
        case,
        rng.integers(0, dfa.n_symbols, size=(n_lanes, width)),
        rng.integers(0, dfa.n_states, size=n_lanes),
        kwargs,
    )


@settings(max_examples=80, deadline=None)
@given(batch=batches())
def test_run_batch(batch):
    case, chunks, starts, kwargs = batch
    stats = KernelStats(device=case.sim.device)
    ends = case.sim.engine.run_batch(chunks, starts, stats=stats, **kwargs)
    assert_same_outcome((ends, stats), case.reference(chunks, starts, **kwargs))
    assert ends.tolist() == FastBackend(case.sim.dfa.table).run_batch(
        chunks, starts, **kwargs
    ).tolist()


@settings(max_examples=80, deadline=None)
@given(batch=batches(), n_rows=st.integers(1, 6))
def test_run_gathered(batch, n_rows):
    case, chunks, starts, kwargs = batch
    rng = case.rng
    rows = rng.integers(0, case.sim.dfa.n_symbols, size=(n_rows, chunks.shape[1]))
    ids = rng.integers(0, n_rows, size=starts.size)
    stats = KernelStats(device=case.sim.device)
    ends = case.sim.engine.run_gathered(rows, ids, starts, stats=stats, **kwargs)
    assert_same_outcome(
        (ends, stats), case.reference(rows[ids], starts, chunk_ids=ids, **kwargs)
    )


@settings(max_examples=80, deadline=None)
@given(case=cases(), n_chunks=st.integers(1, 6), width=st.integers(0, 10))
def test_run_mappings(case, n_chunks, width):
    """Each chunk's lanes start from the layout's own row order; the
    columns come back indexed by submitted state."""
    rng, dfa = case.rng, case.sim.dfa
    n_states = dfa.n_states
    chunks = rng.integers(0, dfa.n_symbols, size=(n_chunks, width))
    lengths = rng.integers(0, width + 1, size=n_chunks) if rng.random() < 0.5 else None
    stats = KernelStats(device=case.sim.device)
    mappings = case.sim.engine.run_mappings(
        chunks, lengths=lengths, stats=stats, phase="m"
    )
    assert mappings.tolist() == FastBackend(dfa.table).run_mappings(
        chunks, lengths=lengths
    ).tolist()
    ref_ends, ref_stats = case.reference(
        np.repeat(chunks, n_states, axis=0),
        np.tile(case.lanes, n_chunks),
        phase="m",
        lengths=None if lengths is None else np.repeat(lengths, n_states),
        chunk_ids=np.repeat(np.arange(n_chunks), n_states),
    )
    ref_ends = ref_ends.reshape(n_chunks, n_states)
    assert_same_outcome((mappings[:, case.lanes], stats), (ref_ends, ref_stats))
