"""Unit tests for the dense-table DFA core."""

import copy
import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro.automata.dfa import DFA, STATE_DTYPE, run_lockstep
from repro.errors import AutomatonError
from repro.workloads import classic
from repro.workloads.suites import build_member


class TestConstruction:
    def test_valid_dfa(self, div7):
        assert div7.n_states == 7
        assert div7.n_symbols == 256
        assert div7.start == 0
        assert div7.accepting == frozenset({0})

    def test_rejects_empty_table(self):
        with pytest.raises(AutomatonError):
            DFA(table=np.zeros((0, 4), dtype=np.int32), start=0)

    def test_rejects_bad_start(self):
        with pytest.raises(AutomatonError):
            DFA(table=np.zeros((2, 3), dtype=np.int32), start=5)

    def test_rejects_out_of_range_transition(self):
        table = np.zeros((2, 2), dtype=np.int32)
        table[0, 1] = 9
        with pytest.raises(AutomatonError):
            DFA(table=table, start=0)

    @pytest.mark.parametrize(
        "entry, dtype", [(2**32, np.int64), (2**32 - 1, np.uint32), (-(2**32), np.int64)]
    )
    def test_rejects_a_transition_that_would_wrap_into_range(self, entry, dtype):
        # Narrowing to int32 maps 2**32 to state 0; the check runs first.
        with pytest.raises(AutomatonError):
            DFA(table=np.array([[0, entry]], dtype=dtype), start=0)

    def test_rejects_out_of_range_accepting(self):
        with pytest.raises(AutomatonError):
            DFA(table=np.zeros((2, 2), dtype=np.int32), start=0, accepting={7})

    def test_rejects_1d_table(self):
        with pytest.raises(AutomatonError):
            DFA(table=np.zeros(4, dtype=np.int32), start=0)

    def test_table_is_contiguous_int32(self, div7):
        assert div7.table.flags["C_CONTIGUOUS"]
        assert div7.table.dtype == np.int32


class TestSemantics:
    def test_div7_accepts_multiples(self, div7):
        for n in [0, 7, 14, 49, 700, 861]:
            assert div7.accepts(bin(n)[2:].encode()), n

    def test_div7_rejects_non_multiples(self, div7):
        for n in [1, 6, 8, 50, 699]:
            assert not div7.accepts(bin(n)[2:].encode()), n

    def test_empty_input_stays_at_start(self, div7):
        assert div7.run(b"") == div7.start

    def test_run_from_explicit_start(self, div7):
        # 7*2+1 = 15 ≡ 1 (mod 7): from state 0, '1' then '1' gives 3.
        assert div7.run(b"1", start=1) == 3

    def test_run_path_shape_and_endpoints(self, div7):
        data = b"101101"
        path = div7.run_path(data)
        assert path.shape == (len(data) + 1,)
        assert path[0] == div7.start
        assert path[-1] == div7.run(data)

    def test_step_matches_table(self, div7):
        for q in range(7):
            assert div7.step(q, ord("1")) == div7.table[q, ord("1")]

    def test_accepts_list_input(self, div7):
        assert div7.run([ord("1"), ord("1"), ord("1")]) == div7.run(b"111")

    @pytest.mark.parametrize("seed", range(8))
    def test_run_is_the_last_state_of_run_path(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 9))
        dfa = DFA(table=rng.integers(0, n, size=(n, k)), start=int(rng.integers(0, n)))
        for length in (0, 1, 97):
            data = rng.integers(0, k, size=length).astype(np.uint8)
            q = int(rng.integers(0, n))
            for start in (None, q, np.int64(q), np.int32(q)):
                path = dfa.run_path(data, start=start)
                end = dfa.run(data, start=start)
                assert type(end) is int
                assert path.dtype == STATE_DTYPE and path.shape == (length + 1,)
                assert end == path[-1]
                # Reference: the walk with numpy scalar indexing.
                state = dfa.start if start is None else q
                expected = [state]
                for sym in data:
                    state = dfa.table[state, sym]
                    expected.append(state)
                np.testing.assert_array_equal(path, expected)

    def test_run_rejects_a_symbol_outside_the_alphabet(self, div7):
        with pytest.raises(IndexError):
            div7.run(np.array([1, 256]))
        with pytest.raises(IndexError):
            div7.run_path(np.array([1, 256]))


class TestVectorized:
    def test_run_many_matches_scalar(self, div7, rng):
        data = bytes(rng.integers(48, 50, size=100).astype(np.uint8))
        ends = div7.run_many(data, range(7))
        for q in range(7):
            assert ends[q] == div7.run(data, start=q)

    def test_run_many_takes_arrays_ranges_and_generators_alike(self, div7):
        expected = [div7.run(b"1011", start=q) for q in (3, 0, 6)]
        for starts in (
            np.array([3, 0, 6]),
            np.array([3, 0, 6], dtype=STATE_DTYPE),
            [3, 0, 6],
            (3, 0, 6),
            (q for q in (3, 0, 6)),
        ):
            ends = div7.run_many(b"1011", starts)
            assert ends.dtype == STATE_DTYPE
            assert ends.tolist() == expected
        assert div7.run_many(b"10", range(7)).tolist() == (
            div7.run_all_states(b"10").tolist()
        )

    def test_run_many_never_returns_the_callers_array(self, div7):
        starts = np.array([1, 2], dtype=STATE_DTYPE)
        ends = div7.run_many(b"", starts)
        assert ends.tolist() == [1, 2]
        assert not np.shares_memory(ends, starts)

    def test_run_all_states_shape(self, div7):
        ends = div7.run_all_states(b"10")
        assert ends.shape == (7,)

    def test_run_lockstep_matches_scalar(self, div7, rng):
        chunks = rng.integers(48, 50, size=(5, 40)).astype(np.uint8)
        starts = rng.integers(0, 7, size=5)
        ends = run_lockstep(div7.table, chunks, starts)
        for t in range(5):
            assert ends[t] == div7.run(chunks[t], start=int(starts[t]))

    def test_run_lockstep_respects_lengths(self, div7, rng):
        chunks = rng.integers(48, 50, size=(3, 40)).astype(np.uint8)
        starts = np.zeros(3, dtype=np.int64)
        lengths = np.array([0, 10, 40])
        ends = run_lockstep(div7.table, chunks, starts, lengths=lengths)
        assert ends[0] == div7.start
        assert ends[1] == div7.run(chunks[1, :10])
        assert ends[2] == div7.run(chunks[2])


class TestRenumbering:
    def test_renumbered_is_isomorphic(self, div7, rng):
        perm = rng.permutation(7)
        other = div7.renumbered(perm)
        data = bytes(rng.integers(48, 50, size=200).astype(np.uint8))
        assert other.accepts(data) == div7.accepts(data)
        assert perm[div7.run(data)] == other.run(data)

    def test_identity_permutation_roundtrip(self, div7):
        same = div7.renumbered(np.arange(7))
        assert same == div7

    @pytest.mark.parametrize(
        "perm, message",
        [
            ([0, 0, 0, 0, 0, 0, 0], "bijection"),  # all one state
            ([0, 1, 2, 3, 4, 5, 5], "bijection"),  # a duplicate
            ([0, 1, 2, 3, 4, 5, 7], "bijection"),  # out of range
            ([0, 1, 2, 3, 4, 5, -1], "bijection"),  # negative
            ([[0, 1, 2, 3, 4, 5, 6]], "one entry per state"),  # wrong shape
            ([0, 1, 2, 3, 4], "one entry per state"),  # wrong length
        ],
        ids=["all-zero", "duplicate", "out-of-range", "negative", "wrong-shape", "wrong-length"],
    )
    def test_rejects_a_non_permutation(self, div7, perm, message):
        with pytest.raises(AutomatonError, match=message):
            div7.renumbered(np.array(perm))


def reference_fingerprint(dfa):
    """SHA-256 of the documented header and a copy of the table bytes."""
    h = hashlib.sha256()
    h.update(f"dfa/v1:{dfa.n_states}x{dfa.n_symbols}:{dfa.start}:".encode())
    h.update(",".join(str(s) for s in sorted(dfa.accepting)).encode())
    h.update(dfa.table.tobytes())
    return h.hexdigest()


# DFA.fingerprint at the commit before the digest was memoized.
POWEREN_CONTENT_GOLDENS = {
    1: "73b473fa25fb3464bd887657d614841912d9e73b2b40515d517fdc8da678de33",
    2: "4dfc5bc02e0c2c99f939dc5e3523ac7e3e1356e751ca50c2c6eabc324f97703a",
    3: "227269f07c2048ea0706ebabe7fc2e194957f19cfb8bef73ba44e7db2a8a1451",
    4: "d78500cdc95cdaa71be68adc50f8d8dc77828db0474b40b41c7db97b32cc4ed9",
    10: "19e0d3d178af8d4929d15560f15df4727228c18449ad26eaf95da2f54a44f6ae",
}


class TestOwnership:
    """A DFA owns a read-only table, so its memoized digest cannot go stale."""

    def test_writing_the_table_raises(self, div7):
        with pytest.raises(ValueError):
            div7.table[0, 0] = 1

    def test_a_view_is_copied_and_its_base_stays_writable(self):
        base = np.zeros((6, 2), dtype=STATE_DTYPE)
        dfa = DFA(table=base[3:], start=0, accepting={1})
        before, digest = dfa.table.copy(), dfa.fingerprint()
        base[:] = 2
        assert np.array_equal(dfa.table, before)
        assert dfa.fingerprint() == digest == reference_fingerprint(dfa)
        assert base.flags.writeable

    def test_an_owned_table_is_adopted_and_frozen(self):
        table = np.zeros((2, 2), dtype=STATE_DTYPE)
        dfa = DFA(table=table, start=0)
        assert dfa.table is table and not table.flags.writeable

    def test_an_unpickled_dfa_has_no_digest_and_a_read_only_table(self, div7):
        div7.fingerprint()
        clone = pickle.loads(pickle.dumps(div7))
        assert "_fingerprint" not in vars(clone)
        assert not clone.table.flags.writeable
        assert clone == div7 and clone.fingerprint() == div7.fingerprint()

    def test_copies_go_through_the_constructor(self, div7):
        div7.fingerprint()
        # copy.copy shares the read-only table; deepcopy owns a new one.
        shallow, deep = copy.copy(div7), copy.deepcopy(div7)
        assert shallow.table is div7.table
        assert not np.shares_memory(deep.table, div7.table)
        for clone in (shallow, deep):
            assert "_fingerprint" not in vars(clone)
            assert not clone.table.flags.writeable
            assert clone.fingerprint() == div7.fingerprint()

    def test_replace_starts_without_a_digest(self, div7):
        div7.fingerprint()
        # dataclasses.replace calls the constructor, so a changed start
        # state is hashed afresh rather than inheriting div7's digest.
        moved = dataclasses.replace(div7, start=1)
        assert "_fingerprint" not in vars(moved)
        assert moved.fingerprint() == reference_fingerprint(moved)
        assert moved.fingerprint() != div7.fingerprint()

    @pytest.mark.parametrize("seed", range(5))
    def test_fingerprint_is_sha256_of_header_and_bytes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        dfa = DFA(
            table=rng.integers(0, n, size=(n, int(rng.integers(1, 9)))),
            start=int(rng.integers(n)),
            accepting=rng.integers(0, n, size=3).tolist(),
        )
        assert dfa.fingerprint() == reference_fingerprint(dfa)
        assert vars(dfa)["_fingerprint"] == reference_fingerprint(dfa)

    @pytest.mark.parametrize("index", sorted(POWEREN_CONTENT_GOLDENS))
    def test_content_fingerprint_goldens(self, index):
        dfa = build_member("poweren", index).dfa
        assert dfa.fingerprint() == POWEREN_CONTENT_GOLDENS[index]


class TestEquality:
    def test_equal_dfas(self, div7):
        clone = DFA(
            table=div7.table.copy(),
            start=div7.start,
            accepting=div7.accepting,
            name="other-name",
        )
        assert clone == div7  # name is not part of identity
        assert hash(clone) == hash(div7)

    def test_unequal_accepting(self, div7):
        other = DFA(table=div7.table.copy(), start=0, accepting={1})
        assert other != div7

    def test_accepting_mask(self, div7):
        mask = div7.accepting_mask
        assert mask[0] and not mask[1:].any()


class TestClassicFactories:
    def test_parity(self):
        p = classic.parity()
        assert p.accepts(b"abab11ba")  # two '1's
        assert not p.accepts(b"1")

    def test_keyword_scanner_finds_overlaps(self):
        d = classic.keyword_scanner(b"aba")
        assert d.accepts(b"xxababa")
        assert not d.accepts(b"ab")

    def test_keyword_scanner_is_sticky(self):
        d = classic.keyword_scanner(b"ab")
        assert d.accepts(b"abzzzzzz")

    def test_cyclic_rotator_never_converges(self):
        r = classic.cyclic_rotator(5, n_symbols=8)
        ends = r.run_all_states(np.array([0, 1, 2], dtype=np.uint8))
        assert np.unique(ends).size == 5

    def test_divisibility_base10(self):
        d = classic.divisibility(3, base=10)
        assert d.accepts(b"123")  # 123 % 3 == 0
        assert not d.accepts(b"124")
