"""Input-domain validation: both backends agree on the error contract.

Out-of-range start states or symbols must surface as a
:class:`SimulationError` naming the offending lanes — never a raw numpy
``IndexError``, and never a silently wrong answer via negative flat-gather
indexing (the fast backend's failure mode before validation).  Malformed
batch shapes and chunk ids (``CONTRACT_CASES``) fail the same way on both
backends, with the backend named in the message.
"""

import numpy as np
import pytest

from repro.automata.dfa import DFA
from repro.automata.properties import profile_state_frequencies
from repro.engine import FusedBatchEngine
from repro.engine.base import validate_batch_inputs
from repro.engine.fast import FastBackend
from repro.errors import SimulationError
from repro.gpu.kernel import GpuSimulator
from repro.schemes import SFAScheme, SREScheme
from repro.workloads import classic


@pytest.fixture(scope="module")
def dfa():
    return classic.divisibility(5, base=2)


def _engines(dfa):
    return [
        GpuSimulator(dfa=dfa, use_transformation=False, backend=name).engine
        for name in ("sim", "fast")
    ]


@pytest.mark.parametrize("backend", ["sim", "fast"])
class TestErrorContract:
    def _engine(self, dfa, backend):
        return GpuSimulator(dfa=dfa, use_transformation=False, backend=backend).engine

    def test_start_too_large_raises(self, dfa, backend):
        engine = self._engine(dfa, backend)
        chunks = np.zeros((3, 4), dtype=np.int64) + ord("0")
        starts = np.asarray([0, dfa.n_states + 2, 1])
        with pytest.raises(SimulationError) as exc:
            engine.run_batch(chunks, starts)
        assert "start" in str(exc.value) and "1" in str(exc.value)

    def test_negative_start_raises(self, dfa, backend):
        engine = self._engine(dfa, backend)
        chunks = np.zeros((2, 4), dtype=np.int64) + ord("0")
        with pytest.raises(SimulationError, match="start"):
            engine.run_batch(chunks, np.asarray([-1, 0]))

    def test_symbol_out_of_range_raises(self, dfa, backend):
        engine = self._engine(dfa, backend)
        chunks = np.full((2, 4), dfa.n_symbols + 9, dtype=np.int64)
        with pytest.raises(SimulationError, match="symbol"):
            engine.run_batch(chunks, np.zeros(2, dtype=np.int64))

    def test_error_names_offending_lanes(self, dfa, backend):
        engine = self._engine(dfa, backend)
        chunks = np.zeros((4, 4), dtype=np.int64) + ord("0")
        starts = np.asarray([0, 99, 0, 99])
        with pytest.raises(SimulationError) as exc:
            engine.run_batch(chunks, starts)
        message = str(exc.value)
        assert "1" in message and "3" in message

    def test_padding_symbols_beyond_lengths_are_ignored(self, dfa, backend):
        """Ragged batches pad with arbitrary values; only executed
        positions are validated."""
        engine = self._engine(dfa, backend)
        chunks = np.zeros((2, 6), dtype=np.int64) + ord("0")
        chunks[0, 3:] = 999  # garbage in the padded tail
        lengths = np.asarray([3, 6])
        ends = engine.run_batch(chunks, np.zeros(2, dtype=np.int64), lengths=lengths)
        assert ends.shape == (2,)

    def test_inactive_lane_symbols_are_ignored(self, dfa, backend):
        engine = self._engine(dfa, backend)
        chunks = np.zeros((2, 4), dtype=np.int64) + ord("0")
        chunks[1, :] = 999
        active = np.asarray([True, False])
        ends = engine.run_batch(chunks, np.zeros(2, dtype=np.int64), active=active)
        assert ends.shape == (2,)

    def test_empty_chunk_with_bad_start_still_raises(self, dfa, backend):
        """Starts are validated even when no symbol executes — schemes
        always hand inactive lanes a valid placeholder."""
        engine = self._engine(dfa, backend)
        chunks = np.zeros((2, 0), dtype=np.int64)
        with pytest.raises(SimulationError, match="start"):
            engine.run_batch(chunks, np.asarray([0, 77]))


class TestBackendsAgree:
    def test_same_exception_type_and_lanes(self, dfa):
        chunks = np.zeros((3, 5), dtype=np.int64) + ord("1")
        starts = np.asarray([0, -3, 2])
        messages = []
        for engine in _engines(dfa):
            with pytest.raises(SimulationError) as exc:
                engine.run_batch(chunks, starts)
            messages.append(str(exc.value))
        # Both name lane 1; only the backend label differs.
        assert all("lanes 1" in m for m in messages)

    def test_no_wrong_answer_from_negative_wraparound(self, dfa):
        """The pre-fix fast-backend hazard: a negative start silently
        gathers from the end of the flat table and returns garbage."""
        fb = FastBackend(dfa.table)
        with pytest.raises(SimulationError):
            fb.run_batch(
                np.zeros((1, 3), dtype=np.int64) + ord("0"),
                np.asarray([-1]),
            )


#: A 4-state, 3-symbol table and a 4-lane batch on it.
_TABLE = np.asarray([[1, 2, 3], [0, 0, 1], [3, 2, 1], [2, 3, 0]])
_CHUNKS = np.asarray([[0, 1, 2, 0, 1]] * 4)
_STARTS = np.zeros(4, dtype=np.int64)

#: (case, call) — every call breaks the batch contract once.
CONTRACT_CASES = {
    "gathered_chunk_id_out_of_range": lambda e: e.run_gathered(
        _CHUNKS[:3], [0, 3, 1, 2], _STARTS
    ),
    "gathered_negative_chunk_id": lambda e: e.run_gathered(
        _CHUNKS[:3], [0, -1, 1, 2], _STARTS
    ),
    "gathered_chunk_ids_wrong_length": lambda e: e.run_gathered(
        _CHUNKS, [0, 1, 2], _STARTS
    ),
    "chunk_ids_wrong_length": lambda e: e.run_batch(
        _CHUNKS, _STARTS, chunk_ids=[0, 1, 2]
    ),
    "active_wrong_length": lambda e: e.run_batch(
        _CHUNKS, _STARTS, active=[True, True, True]
    ),
    "count_redundant_wrong_length": lambda e: e.run_batch(
        _CHUNKS, _STARTS, count_redundant=[True, False, True]
    ),
    "starts_wrong_length": lambda e: e.run_batch(_CHUNKS, _STARTS[:3]),
    "chunks_1d": lambda e: e.run_batch(_CHUNKS[0], _STARTS),
    "lengths_beyond_width": lambda e: e.run_batch(
        _CHUNKS, _STARTS, lengths=[5, 5, 6, 5]
    ),
    "lengths_negative": lambda e: e.run_batch(
        _CHUNKS, _STARTS, lengths=[5, -1, 5, 5]
    ),
}


@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
def test_batch_contract_holds_on_both_backends(case, backend):
    """One contract, stated in ``engine.base``: each malformed batch raises
    a :class:`SimulationError` naming the backend, on both backends."""
    dfa = DFA(table=_TABLE, start=0, accepting=frozenset({1}), name="t4x3")
    engine = GpuSimulator(dfa=dfa, use_transformation=False, backend=backend).engine
    with pytest.raises(SimulationError, match=rf"^\[{backend}\] "):
        CONTRACT_CASES[case](engine)


def _transformed_sim(backend):
    """The ``t4x3`` automaton behind the frequency transformation, with a
    profile that renumbers it (``rank[-1]`` is a valid state)."""
    dfa = DFA(table=_TABLE, start=0, accepting=frozenset({1}), name="t4x3")
    training = np.asarray([2] * 12 + [0, 1])
    sim = GpuSimulator(
        dfa=dfa, profile=profile_state_frequencies(dfa, training), backend=backend
    )
    assert sim.profile.order.tolist() != list(range(dfa.n_states))
    return sim


#: (case, call on a transformed simulator) — a caller's start of -1 or
#: ``n_states`` through each entry that takes one.
START_CASES = {
    "run_batch_-1": lambda sim: sim.engine.run_batch(_CHUNKS, [0, -1, 0, 0]),
    "run_batch_n_states": lambda sim: sim.engine.run_batch(_CHUNKS, [0, 4, 0, 0]),
    "run_gathered_-1": lambda sim: sim.engine.run_gathered(
        _CHUNKS[:2], [0, 1, 1, 0], [0, 0, -1, 0]
    ),
    "scheme_run_-1": lambda sim: SREScheme(sim, n_threads=2).run(
        _CHUNKS[0], start_state=-1
    ),
    "scheme_run_n_states": lambda sim: SREScheme(sim, n_threads=2).run(
        _CHUNKS[0], start_state=4
    ),
    "sfa_run_-1": lambda sim: SFAScheme(sim, n_threads=2).run(
        _CHUNKS[0], start_state=-1
    ),
    "dispatch_-1": lambda sim: FusedBatchEngine([sim.dfa]).dispatch(
        [0, 0], _CHUNKS[:2], [0, -1]
    ),
    "dispatch_n_states": lambda sim: FusedBatchEngine([sim.dfa]).dispatch(
        [0, 0], _CHUNKS[:2], [4, 0]
    ),
    "dispatch_zero_length_-1": lambda sim: FusedBatchEngine([sim.dfa]).dispatch(
        [0, 0], [[], []], [0, -1]
    ),
    "dispatch_zero_length_n_states": lambda sim: FusedBatchEngine([sim.dfa]).dispatch(
        [0, 0], [[], []], [4, 0]
    ),
}


@pytest.mark.parametrize("backend", ["sim", "fast"])
@pytest.mark.parametrize("case", sorted(START_CASES))
def test_bad_starts_raise_behind_the_transformation(case, backend):
    """The renumbering lives in the sim backend, yet every entry that takes
    a caller's start range-checks it: a tagged :class:`SimulationError`,
    never the answer of the state ``rank[-1]`` would have read.  The fused
    engine steps the caller's table with the fast kernel whatever the
    simulator's backend, so its rows name ``[fast]``."""
    named = "fast" if case.startswith("dispatch") else backend
    with pytest.raises(SimulationError, match=rf"^\[{named}\] start states"):
        START_CASES[case](_transformed_sim(backend))


class TestValidateHelper:
    def test_clean_inputs_pass(self):
        validate_batch_inputs(
            np.zeros((2, 3), dtype=np.int64),
            np.zeros(2, dtype=np.int64),
            n_states=4,
            n_symbols=2,
        )

    def test_lane_list_capped(self):
        starts = np.full(64, 99, dtype=np.int64)
        with pytest.raises(SimulationError) as exc:
            validate_batch_inputs(
                np.zeros((64, 1), dtype=np.int64),
                starts,
                n_states=4,
                n_symbols=2,
            )
        assert "64 lanes total" in str(exc.value)


class TestUserStartStates:
    """Caller-space starts are range-checked before the frequency
    transformation (on by default) renumbers them: ``rank[-1]`` would
    otherwise answer silently, and a start past the end raise a raw
    ``IndexError``."""

    BAD_STARTS = pytest.mark.parametrize(
        "bad_start",
        [lambda n: -1, lambda n: n, lambda n: n + 2],
        ids=["-1", "n_states", "n_states+2"],
    )

    @pytest.fixture(scope="class")
    def scanner(self):
        return classic.keyword_scanner(b"alert")

    def _pal(self, scanner, backend):
        from repro.framework import GSpecPal, GSpecPalConfig

        pal = GSpecPal(
            scanner,
            GSpecPalConfig(n_threads=8, backend=backend),
            training_input=b"xxalert--alertyy" * 8,
        )
        assert pal._simulator().use_transformation
        return pal

    def _fused(self, scanner, backend):
        """The pool's one-class engine: a ``fast`` matcher lends its backend."""
        sim = self._pal(scanner, backend)._simulator()
        return FusedBatchEngine([scanner], sim.engine if backend == "fast" else None)

    @pytest.mark.parametrize("backend", ["sim", "fast"])
    @BAD_STARTS
    def test_fused_entry_rejects_bad_start(self, scanner, backend, bad_start):
        fused = self._fused(scanner, backend)
        start = bad_start(scanner.n_states)
        for segment in (b"xxalert", b""):
            with pytest.raises(SimulationError, match="start states out of range"):
                fused.dispatch([0, 0], [b"alert", segment], [scanner.start, start])

    @pytest.mark.parametrize("backend", ["sim", "fast"])
    @BAD_STARTS
    def test_scheme_entry_rejects_bad_start(self, scanner, backend, bad_start):
        scheme = self._pal(scanner, backend).build_scheme("sre")
        with pytest.raises(SimulationError, match="start states out of range"):
            scheme.run(b"xxalert--alert--", start_state=bad_start(scanner.n_states))

    @pytest.mark.parametrize("backend", ["sim", "fast"])
    def test_valid_starts_still_translate(self, scanner, backend):
        fused = self._fused(scanner, backend)
        starts = list(range(scanner.n_states))
        ends = fused.dispatch([0] * len(starts), [b"xxalert"] * len(starts), starts)
        assert ends.tolist() == [scanner.run(b"xxalert", start=s) for s in starts]
