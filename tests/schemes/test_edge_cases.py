"""Edge-case and stress tests across the scheme stack."""

import numpy as np
import pytest

from repro.automata.dfa import DFA
from repro.schemes import NFScheme, PMScheme, RRScheme, SREScheme, SpecSequentialScheme
from repro.workloads import classic
from repro.errors import SchemeError

SCHEMES = (SpecSequentialScheme, PMScheme, SREScheme, RRScheme, NFScheme)


@pytest.mark.parametrize("cls", SCHEMES)
class TestDegenerateInputs:
    def test_constant_symbol_stream(self, cls, div7):
        data = b"1" * 300
        s = cls.for_dfa(div7, n_threads=8, training_input=b"1" * 64)
        assert s.run(data).end_state == div7.run(data)

    def test_input_length_equals_threads(self, cls, div7):
        data = b"10101010"
        s = cls.for_dfa(div7, n_threads=8, training_input=b"10" * 16)
        assert s.run(data).end_state == div7.run(data)

    def test_input_shorter_than_threads_raises(self, cls, div7):
        s = cls.for_dfa(div7, n_threads=8, training_input=b"10" * 16)
        with pytest.raises(SchemeError):
            s.run(b"101")

    def test_single_state_dfa(self, cls):
        dfa = DFA(table=np.zeros((1, 16), dtype=np.int32), start=0, accepting={0})
        data = np.zeros(64, dtype=np.uint8)
        s = cls.for_dfa(dfa, n_threads=4, training_input=data[:16])
        result = s.run(data)
        assert result.end_state == 0
        assert result.accepts

    def test_two_symbol_alphabet(self, cls):
        dfa = classic.parity(n_symbols=2, tracked_symbol=1)
        rng = np.random.default_rng(3)
        data = rng.integers(0, 2, size=256).astype(np.uint8)
        s = cls.for_dfa(dfa, n_threads=8, training_input=data[:32])
        assert s.run(data).end_state == dfa.run(data)


class TestPathologicalFSMs:
    def test_large_rotator_never_in_queue_top(self, rng):
        """Truth rank can exceed every capacity: recovery must still finish
        (the frontier's must-be-done path is capacity-independent)."""
        rot = classic.cyclic_rotator(64, n_symbols=32)
        data = bytes(rng.integers(0, 32, size=512).astype(np.uint8))
        s = RRScheme.for_dfa(
            rot,
            n_threads=8,
            training_input=data[:64],
            own_capacity=1,
            others_capacity=1,
        )
        assert s.run(data).end_state == rot.run(data)

    def test_absorbing_fsm_trivially_easy(self, rng):
        scanner = classic.keyword_scanner(b"a")
        data = bytes(rng.integers(97, 99, size=256).astype(np.uint8))
        s = SREScheme.for_dfa(scanner, n_threads=8, training_input=data[:32])
        result = s.run(data)
        assert result.accepts
        # Once absorbed, forwarded end states match almost immediately —
        # at most the first boundary (pre-absorption) can mismatch.
        assert result.stats.mismatches <= 1
        assert result.stats.recovery_rounds <= 1

    def test_sticky_match_mid_stream(self, rng):
        scanner = classic.keyword_scanner(b"needle")
        payload = bytearray(rng.integers(97, 123, size=400).astype(np.uint8))
        payload[200:206] = b"needle"
        for cls in SCHEMES:
            s = cls.for_dfa(scanner, n_threads=8, training_input=bytes(payload[:64]))
            assert s.run(bytes(payload)).accepts, cls.__name__


class TestConfigBoundaries:
    def test_zero_others_capacity_still_correct(self, div7, rng):
        data = bytes(rng.integers(48, 50, size=400).astype(np.uint8))
        for cls in (RRScheme, NFScheme):
            s = cls.for_dfa(
                div7, n_threads=8, training_input=data[:64], others_capacity=0
            )
            assert s.run(data).end_state == div7.run(data)

    def test_spec_k_larger_than_queue(self, div7, rng):
        data = bytes(rng.integers(48, 50, size=400).astype(np.uint8))
        s = PMScheme.for_dfa(div7, n_threads=8, training_input=data[:64], k=100)
        assert s.run(data).end_state == div7.run(data)

    def test_spec_k_needs_one_path(self, div7):
        with pytest.raises(SchemeError, match="k >= 1"):
            PMScheme.for_dfa(div7, n_threads=8, training_input=b"10" * 16, k=0)

    def test_many_threads_short_chunks(self, div7, rng):
        data = bytes(rng.integers(48, 50, size=256).astype(np.uint8))
        s = NFScheme.for_dfa(div7, n_threads=128, training_input=data[:64])
        assert s.run(data).end_state == div7.run(data)

    def test_same_scheme_object_reusable(self, div7, rng):
        """Queues are per-run state: a scheme instance must be reusable."""
        s = RRScheme.for_dfa(div7, n_threads=8, training_input=b"10" * 64)
        a = bytes(rng.integers(48, 50, size=200).astype(np.uint8))
        b = bytes(rng.integers(48, 50, size=200).astype(np.uint8))
        assert s.run(a).end_state == div7.run(a)
        assert s.run(b).end_state == div7.run(b)
        assert s.run(a).end_state == div7.run(a)  # and again
