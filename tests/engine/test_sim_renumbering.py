"""The sim backend behind the frequency transformation.

``SimBackend`` runs the lockstep executor on the renumbered table and maps
states at its edge, so everything above it speaks the submitted DFA's
numbering.  Two properties pin that, for ``run_batch``, ``run_gathered``
and ``run_mappings`` over random automata, profiles and ragged or masked
batches:

* its answers equal :class:`~repro.engine.fast.FastBackend`'s on the
  submitted table;
* its ledger equals a direct :meth:`LockstepExecutor.run
  <repro.gpu.executor.LockstepExecutor.run>` on the renumbered batch, bit
  for bit — the layout the hot check ``state < H`` is charged on.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.automata.dfa import DFA
from repro.automata.properties import profile_state_frequencies
from repro.engine import FastBackend
from repro.gpu.device import RTX3090
from repro.gpu.kernel import GpuSimulator
from repro.gpu.memory import MemoryModel
from repro.gpu.stats import KernelStats


def _device_with_rows(n_rows, n_symbols):
    """A device whose shared memory holds ``n_rows`` table rows, so small
    automata mix hot and cold states."""
    entries = n_rows * n_symbols
    return replace(RTX3090, shared_memory_bytes_per_sm=8 * 1024 + 4 * entries)


@st.composite
def layouts(draw):
    """A transformed simulator over a random automaton and profile."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_states = draw(st.integers(1, 40))
    n_symbols = draw(st.sampled_from([1, 2, 5]))
    table = rng.integers(0, n_states, size=(n_states, n_symbols))
    if draw(st.booleans()):  # a few rows fall into state 0: a skewed profile
        table[rng.choice(n_states, size=min(3, n_states), replace=False)] = 0
    dfa = DFA(table=table, start=int(rng.integers(0, n_states)))
    training = rng.integers(0, n_symbols, size=draw(st.integers(1, 300)))
    sim = GpuSimulator(
        dfa=dfa,
        device=_device_with_rows(draw(st.integers(0, n_states)), n_symbols),
        profile=profile_state_frequencies(dfa, training),
        backend="sim",
    )
    assert sim.memory.hot_state_count == MemoryModel.for_dfa(
        sim.device, n_states, n_symbols
    ).hot_state_count
    return sim, rng


@st.composite
def batches(draw):
    sim, rng = draw(layouts())
    n_lanes = draw(st.integers(1, 80))  # up to three warps
    width = draw(st.integers(0, 12))
    n_states, n_symbols = sim.dfa.n_states, sim.dfa.n_symbols
    kwargs = {}
    if draw(st.booleans()):
        kwargs["lengths"] = rng.integers(0, width + 1, size=n_lanes)
    if draw(st.booleans()):
        kwargs["active"] = rng.random(n_lanes) < 0.6
    return (
        sim,
        rng.integers(0, n_symbols, size=(n_lanes, width)),
        rng.integers(0, n_states, size=n_lanes),
        kwargs,
    )


def _ledgers(sim):
    return KernelStats(device=sim.device), KernelStats(device=sim.device)


@settings(max_examples=60, deadline=None)
@given(case=batches())
def test_run_batch(case):
    sim, chunks, starts, kwargs = case
    to_new, to_old = sim.transformed.to_new, sim.transformed.to_old
    got, direct = _ledgers(sim)
    ends = sim.engine.run_batch(chunks, starts, stats=got, phase="p", **kwargs)
    assert ends.tolist() == FastBackend(sim.dfa.table).run_batch(
        chunks, starts, **kwargs
    ).tolist()
    raw = sim.executor.run(chunks, to_new[starts], stats=direct, phase="p", **kwargs)
    assert ends.tolist() == to_old[raw].tolist()
    assert got == direct


@settings(max_examples=60, deadline=None)
@given(case=batches(), n_rows=st.integers(1, 6))
def test_run_gathered(case, n_rows):
    sim, chunks, starts, kwargs = case
    rng = np.random.default_rng(int(starts.sum()))
    rows = rng.integers(0, sim.dfa.n_symbols, size=(n_rows, chunks.shape[1]))
    ids = rng.integers(0, n_rows, size=starts.size)
    to_new, to_old = sim.transformed.to_new, sim.transformed.to_old
    got, direct = _ledgers(sim)
    ends = sim.engine.run_gathered(rows, ids, starts, stats=got, phase="p", **kwargs)
    assert ends.tolist() == FastBackend(sim.dfa.table).run_gathered(
        rows, ids, starts, **kwargs
    ).tolist()
    raw = sim.executor.run(
        rows[ids], to_new[starts], stats=direct, phase="p", chunk_ids=ids, **kwargs
    )
    assert ends.tolist() == to_old[raw].tolist()
    assert got == direct


@settings(max_examples=60, deadline=None)
@given(case=layouts(), n_chunks=st.integers(1, 6), width=st.integers(0, 10))
def test_run_mappings(case, n_chunks, width):
    """Lane ``j`` of a chunk starts from the ``j``-th hottest state, as the
    executor's ``state < H`` layout has it; the columns come back in the
    submitted numbering."""
    sim, rng = case
    n_states = sim.dfa.n_states
    chunks = rng.integers(0, sim.dfa.n_symbols, size=(n_chunks, width))
    lengths = rng.integers(0, width + 1, size=n_chunks) if rng.random() < 0.5 else None
    got, direct = _ledgers(sim)
    mappings = sim.engine.run_mappings(chunks, lengths=lengths, stats=got, phase="m")
    assert mappings.tolist() == FastBackend(sim.dfa.table).run_mappings(
        chunks, lengths=lengths
    ).tolist()
    raw = sim.executor.run(
        np.repeat(chunks, n_states, axis=0),
        np.tile(np.arange(n_states), n_chunks),
        stats=direct,
        phase="m",
        lengths=None if lengths is None else np.repeat(lengths, n_states),
        chunk_ids=np.repeat(np.arange(n_chunks), n_states),
    ).reshape(n_chunks, n_states)
    to_old = sim.transformed.to_old
    assert mappings[:, to_old].tolist() == to_old[raw].tolist()
    assert got == direct
