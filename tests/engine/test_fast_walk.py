"""``FastBackend.walk``, the scalar walk that answers short unforced
segments on ``fast``, pinned to ``DFA.run``, and its session wiring.

The differential covers 1-, 7- and 256-symbol alphabets, uint8 and int64
segments (native and big-endian, which reach the walk in native order
through ``_as_symbol_array`` as on every caller's path), empty segments and
every start state.  A bad start or symbol
must raise the batch contract's own error, and under ``selfcheck`` a
corrupted walk must be caught by ``walk_end_state_oracle``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.framework.gspecpal as gspecpal
from repro.automata.dfa import DFA, STATE_DTYPE, _as_symbol_array
from repro.engine.base import validate_batch_inputs
from repro.engine.fast import FastBackend
from repro.errors import SelfCheckError, SimulationError
from repro.framework import GSpecPal, GSpecPalConfig
from repro.framework.gspecpal import walks
from repro.workloads import classic


def _random_dfa(rng, n_states, n_symbols) -> DFA:
    table = rng.integers(0, n_states, size=(n_states, n_symbols))
    return DFA(table=table.astype(STATE_DTYPE), start=0, accepting=frozenset({0}))


@settings(max_examples=60, deadline=None)
@given(
    n_states=st.sampled_from([1, 2, 5, 40]),
    n_symbols=st.sampled_from([1, 7, 256]),
    length=st.one_of(st.just(0), st.integers(1, 300)),
    dtype=st.sampled_from([np.uint8, np.int64, ">u2", ">i8"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_walk_equals_dfa_run_from_every_start(
    n_states, n_symbols, length, dtype, seed
):
    rng = np.random.default_rng(seed)
    dfa = _random_dfa(rng, n_states, n_symbols)
    backend = FastBackend(dfa.table)
    symbols = rng.integers(0, n_symbols, size=length).astype(dtype)
    for start in range(n_states):
        end = backend.walk(_as_symbol_array(symbols), start)
        assert type(end) is int
        assert end == dfa.run(symbols, start=start)


@pytest.mark.parametrize(
    "symbols, start",
    [
        (np.array([0, 1, 7], dtype=np.int64), 0),  # symbol past the alphabet
        (np.array([0, -1], dtype=np.int64), 0),  # negative symbol
        (np.array([9], dtype=np.uint8), 0),
        (np.array([0, 1], dtype=np.uint8), 5),  # start past the states
        (np.array([], dtype=np.uint8), -1),  # refused even with no symbols
    ],
)
def test_walk_refuses_out_of_range_input_with_the_batch_error(symbols, start):
    dfa = _random_dfa(np.random.default_rng(3), 5, 7)
    backend = FastBackend(dfa.table)
    with pytest.raises(SimulationError) as batch:
        validate_batch_inputs(
            symbols.reshape(1, -1),
            [start],
            n_states=5,
            n_symbols=7,
            backend="fast",
        )
    with pytest.raises(SimulationError) as walked:
        backend.walk(symbols, start)
    assert str(walked.value) == str(batch.value)


def test_walk_keeps_no_second_table():
    """The walk reads the premultiplied table through a memoryview of the
    very array the batch kernel gathers from."""
    backend = FastBackend(classic.div7().table)
    assert backend._steps.obj is backend._pre


def test_crossover_rule():
    assert walks("fast", 0, 8)
    assert walks("fast", gspecpal.WALK_BELOW_SYMBOLS - 1, 256)
    assert not walks("fast", gspecpal.WALK_BELOW_SYMBOLS, 256)
    # Below SPECULATE_MIN_THREADS no scheme beat the walk at any size.
    assert walks("fast", 4 * gspecpal.WALK_BELOW_SYMBOLS, 64)
    assert not walks("sim", 1, 8)


@pytest.fixture()
def training():
    rng = np.random.default_rng(17)
    return bytes(rng.integers(48, 58, size=512).astype(np.uint8))


def test_only_unforced_fast_segments_below_the_crossover_walk(training, monkeypatch):
    """The sim backend, forced streams, ``GSpecPal.run`` and a segment
    past the crossover all run the scheme; everything else walks."""
    dfa = classic.div7()
    segment = b"0123456789" * 40
    fast = GSpecPal(
        dfa, GSpecPalConfig(n_threads=8, backend="fast"), training_input=training
    )
    sim = GSpecPal(
        dfa, GSpecPalConfig(n_threads=8, backend="sim"), training_input=training
    )
    assert fast.stream().feed(segment).scheme == "walk"
    assert sim.stream().feed(segment).scheme != "walk"
    assert fast.stream(scheme="sre").feed(segment).scheme == "sre"
    assert fast.run(segment).scheme != "walk"
    # Past the crossover the plan's selection runs (a wide plan and a
    # lowered constant keep the segment small).
    wide = GSpecPal(
        dfa, GSpecPalConfig(n_threads=256, backend="fast"), training_input=training
    )
    monkeypatch.setattr(gspecpal, "WALK_BELOW_SYMBOLS", 300)
    session = wide.stream()
    assert session.feed(segment[:299]).scheme == "walk"
    assert session.feed(segment).scheme != "walk"
    assert session.scheme == wide.plan.scheme and session.scheme_switches == 0
    assert session.state == dfa.run(segment[:299] + segment)


def test_walked_result_fields(training):
    """A walked segment: one chunk, its end the walk's; an empty ledger;
    traffic-only observations; NaN total cycles; the plan's selection."""
    dfa = classic.div7()
    pal = GSpecPal(
        dfa, GSpecPalConfig(n_threads=8, backend="fast"), training_input=training
    )
    session = pal.stream()
    result = session.feed(b"31415926535")
    end = dfa.run(b"31415926535")
    assert (result.end_state, result.n_chunks) == (end, 1)
    assert result.chunk_ends.tolist() == [end]
    assert result.accepts == (end in dfa.accepting)
    assert result.cycles == 0.0
    assert result.observations.segments == 1
    assert result.observations.symbols == 11
    assert result.observations.boundary_samples == 0
    assert np.isnan(session.total_cycles)
    assert session.scheme == pal.plan.scheme
    assert session.decision_path == pal.current_decision_path()


def test_selfcheck_audits_every_walked_answer(training, monkeypatch):
    dfa = classic.div7()
    pal = GSpecPal(
        dfa,
        GSpecPalConfig(n_threads=8, backend="fast", selfcheck=True),
        training_input=training,
    )
    session = pal.stream()
    assert session.feed(b"777").end_state == dfa.run(b"777")

    real = FastBackend.walk
    monkeypatch.setattr(
        FastBackend, "walk", lambda self, *args: (real(self, *args) + 1) % 7
    )
    with pytest.raises(SelfCheckError) as err:
        session.feed(b"12")
    assert err.value.invariant == "walk_end_state_oracle"
    assert err.value.backend == "fast"
