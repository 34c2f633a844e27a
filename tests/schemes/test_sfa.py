"""SFA scheme: mapping construction, fingerprint dedupe, selection win."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.automata.minimize as minimize
from repro.engine.fast import FastBackend
from repro.framework import GSpecPal, GSpecPalConfig
from repro.gpu.kernel import KernelPhase
from repro.observability import Tracer
from repro.schemes.sfa import SFAScheme, group_chunks
from repro.selector.features import profile_features, reachable_width
from repro.speculation.chunks import partition_input
from repro.workloads import classic


@pytest.fixture(scope="module")
def affine():
    """The speculation-hopeless permutation automaton (accuracy ~ k/n)."""
    return classic.affine_permutation(128)


@pytest.fixture(scope="module")
def affine_io():
    rng = np.random.default_rng(9)
    train = bytes(rng.integers(0, 16, size=4096).astype(np.uint8))
    data = bytes(rng.integers(0, 16, size=8192).astype(np.uint8))
    return train, data


# ----------------------------------------------------------------------
# fingerprint dedupe
# ----------------------------------------------------------------------
def _first_appearance_groups(chunks, lengths):
    """Exact grouping by live content, groups in order of first appearance
    (the reference)."""
    seen, reps, inverse = {}, [], []
    for row, length in zip(chunks.tolist(), lengths.tolist()):
        key = tuple(row[:length])
        if key not in seen:
            seen[key] = len(reps)
            reps.append(len(inverse))
        inverse.append(seen[key])
    return reps, inverse


class TestDedupe:
    def test_identical_chunks_share_one_group(self):
        partition = partition_input(b"0123" * 300, 12)
        reps, inverse = group_chunks(partition.chunks, partition.lengths)
        # 1200/12 = 100 symbols per chunk; 100 % 4 == 0 so every chunk has
        # identical content: one group serves all twelve.
        assert reps.size == 1
        assert (inverse == 0).all()

    def test_distinct_chunks_stay_distinct(self, rng):
        data = rng.integers(0, 64, size=640).astype(np.uint8)
        partition = partition_input(data, 8)
        reps, inverse = group_chunks(partition.chunks, partition.lengths)
        assert reps.size == 8
        np.testing.assert_array_equal(inverse, np.arange(8))

    def test_groups_have_equal_content(self, rng):
        period = rng.integers(0, 8, size=50).astype(np.uint8)
        data = np.tile(period, 40)  # 2000 symbols, heavy repetition
        partition = partition_input(data, 16)
        reps, inverse = group_chunks(partition.chunks, partition.lengths)
        assert reps.size < 16
        for i in range(partition.n_chunks):
            r = int(reps[inverse[i]])
            np.testing.assert_array_equal(
                partition.chunk(i), partition.chunk(r)
            )

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.lists(st.integers(0, 2), min_size=1, max_size=200),
        period=st.integers(1, 12),
        n_chunks=st.integers(1, 40),
    )
    def test_groups_in_order_of_first_appearance(self, data, period, n_chunks):
        symbols = np.resize(np.asarray(data[:period], np.uint8), len(data))
        partition = partition_input(symbols, min(n_chunks, symbols.size))
        reps, inverse = group_chunks(partition.chunks, partition.lengths)
        want = _first_appearance_groups(partition.chunks, partition.lengths)
        assert (reps.tolist(), inverse.tolist()) == want
        assert reps.dtype == inverse.dtype == np.int64

    def test_zero_chunks_of_different_lengths_stay_apart(self):
        # The length column: a chunk of zeros must not group with a
        # shorter zero chunk padded out.
        chunks = np.zeros((2, 4), dtype=np.int64)
        lengths = np.asarray([2, 4])
        reps, inverse = group_chunks(chunks, lengths)
        assert reps.tolist() == [0, 1]
        assert inverse.tolist() == [0, 1]

    def test_colliding_hash_keys_change_nothing(self, monkeypatch):
        """Every hash key colliding sends ``group_rows`` to its exact
        fallback: the groups, the answer and the cycles stay the same."""
        data = np.frombuffer(b"abcabcabd" * 64 + b"xyz" * 40, dtype=np.uint8)
        partition = partition_input(data, 24)
        dfa = classic.keyword_scanner(b"abd")
        scheme = SFAScheme.for_dfa(dfa, n_threads=24, use_transformation=False)

        def observe():
            reps, inverse = group_chunks(partition.chunks, partition.lengths)
            result = scheme.run(data)
            return reps.tolist(), inverse.tolist(), result.end_state, result.stats.cycles

        hashed = observe()
        monkeypatch.setattr(minimize, "_hash_weights", lambda width: np.zeros(width, np.int64))
        assert observe() == hashed
        reps = hashed[0]
        assert 1 < len(reps) < partition.n_chunks
        assert hashed[2] == dfa.run(data)


# ----------------------------------------------------------------------
# mapping construction
# ----------------------------------------------------------------------
class TestMappings:
    @pytest.mark.parametrize("backend", ["sim", "fast"])
    def test_mapping_rows_match_oracle(self, div7, backend, rng):
        data = rng.integers(0, 2, size=200).astype(np.uint8)
        scheme = SFAScheme.for_dfa(
            div7, n_threads=5, use_transformation=False, backend=backend
        )
        partition = partition_input(data, 5)
        mappings = scheme.engine.run_mappings(
            partition.chunks, lengths=partition.lengths
        )
        assert mappings.shape == (5, div7.n_states)
        for c in range(5):
            for s in range(div7.n_states):
                assert int(mappings[c, s]) == int(
                    div7.run(partition.chunk(c), start=s)
                )

    def test_backends_agree_on_mappings(self, scanner_dfa, rng):
        data = rng.integers(0, 128, size=700).astype(np.uint8)
        partition = partition_input(data, 7)
        fast = FastBackend(scanner_dfa.table)
        sim_scheme = SFAScheme.for_dfa(
            scanner_dfa, n_threads=7, use_transformation=False, backend="sim"
        )
        np.testing.assert_array_equal(
            np.asarray(
                sim_scheme.engine.run_mappings(
                    partition.chunks, lengths=partition.lengths
                )
            ),
            np.asarray(
                fast.run_mappings(partition.chunks, lengths=partition.lengths)
            ),
        )

    def test_sim_backend_charges_mapping_phase(self, div7):
        scheme = SFAScheme.for_dfa(
            div7, n_threads=4, use_transformation=False, backend="sim"
        )
        result = scheme.run(b"0110" * 100)
        assert result.stats.phase_cycles.get(KernelPhase.MAPPING, 0.0) > 0
        # 400 symbols over 4 threads dedupe to ONE unique 100-symbol chunk
        # (periodic input), and that chunk runs all n_states lanes.
        assert result.stats.transitions == 100 * div7.n_states

    def test_dedupe_caps_construction_cost(self, div7):
        periodic = SFAScheme.for_dfa(
            div7, n_threads=8, use_transformation=False, backend="sim"
        ).run(b"01" * 400)
        rng = np.random.default_rng(0)
        random_run = SFAScheme.for_dfa(
            div7, n_threads=8, use_transformation=False, backend="sim"
        ).run(bytes(rng.integers(0, 2, size=800).astype(np.uint8)))
        # The periodic input collapses to one unique chunk; its mapping
        # construction (and thus total cycles) must be far cheaper.
        assert periodic.stats.transitions < random_run.stats.transitions
        assert periodic.stats.cycles < random_run.stats.cycles

    def test_oversubscription_scales_cost(self, rng):
        """``chunks × states`` mapping lanes beyond device residency must be
        charged the concurrency factor, not hidden."""
        from repro.automata.dfa import DFA
        from repro.gpu.device import DeviceSpec
        from repro.workloads.components import counter_component

        comp = counter_component(7, n_symbols=32, seed=11)
        dfa = DFA(table=comp.table, start=0, accepting=frozenset({0}))
        tiny = DeviceSpec(
            name="tiny",
            n_sms=1,
            cores_per_sm=8,
            warp_size=8,
            max_resident_warps_per_sm=2,
            shared_memory_bytes_per_sm=64 * 1024,
        )
        data = bytes(rng.integers(0, 32, size=320).astype(np.uint8))
        training = bytes(rng.integers(0, 32, size=80).astype(np.uint8))
        small, big = (
            SFAScheme.for_dfa(
                dfa, n_threads=n, training_input=training, device=tiny, backend="sim"
            ).run(data)
            for n in (4, 16)
        )
        # 16 distinct chunks × 7 states = 112 lanes = 14 warps on a 2-warp
        # device: the oversubscribed launch cannot be cheaper per symbol.
        assert big.stats.transitions == 7 * len(data)
        assert big.cycles > small.cycles * 0.5


# ----------------------------------------------------------------------
# scheme contract
# ----------------------------------------------------------------------
class TestSchemeContract:
    @pytest.mark.parametrize("backend", ["sim", "fast"])
    @pytest.mark.parametrize("n_threads", [1, 3, 8, 17])
    def test_exact_answer_all_segmentations(
        self, scanner_dfa, backend, n_threads, rng
    ):
        data = rng.integers(0, 128, size=901).astype(np.uint8)
        scheme = SFAScheme.for_dfa(
            scanner_dfa,
            n_threads=n_threads,
            training_input=bytes(
                rng.integers(0, 128, size=256).astype(np.uint8)
            ),
            backend=backend,
        )
        result = scheme.run(data)
        assert result.end_state == scanner_dfa.run(data)
        assert result.chunk_ends is not None
        assert result.chunk_ends.size == n_threads

    def test_zero_recovery_rounds(self, affine, affine_io):
        train, data = affine_io
        scheme = SFAScheme.for_dfa(
            affine, n_threads=16, training_input=train, backend="sim"
        )
        result = scheme.run(data)
        assert result.stats.recovery_rounds == 0
        assert result.stats.mismatches == 0
        assert result.stats.runtime_speculation_accuracy == 1.0

    def test_carried_start_state(self, div7):
        scheme = SFAScheme.for_dfa(
            div7, n_threads=4, use_transformation=False
        )
        data = b"011010" * 50
        for start in range(div7.n_states):
            assert scheme.run(data, start_state=start).end_state == div7.run(
                data, start=start
            )

    def test_selfcheck_audits_pass(self, affine, affine_io):
        train, data = affine_io
        scheme = SFAScheme.for_dfa(
            affine, n_threads=8, training_input=train, backend="sim"
        )
        scheme.selfcheck = True
        result = scheme.run(data)  # audit raises SelfCheckError on violation
        assert result.end_state == affine.run(data)

    def test_mapping_figures_on_spans(self, div7):
        """The mapping figures are span attributes: chunks mapped
        (``mapping.unique_chunks``), chunks deduped (the root's ``n_chunks``
        less those), mapping width (``merge.width``) and lanes
        (``unique_chunks × n_states``)."""
        tracer = Tracer()
        scheme = SFAScheme.for_dfa(
            div7, n_threads=8, use_transformation=False, tracer=tracer
        )
        scheme.run(b"01" * 400)
        (root,) = [s for s in tracer.roots if s.name == "scheme:sfa"]
        (mapping,) = tracer.find_all("mapping")
        (merge,) = tracer.find_all("merge")
        built = mapping.attrs["unique_chunks"]
        assert 1 <= built < root.attrs["n_chunks"]  # periodic input dedupes
        assert 1 <= merge.attrs["width"] <= root.attrs["n_states"]


# ----------------------------------------------------------------------
# features + selection
# ----------------------------------------------------------------------
class TestSelection:
    def test_reachable_width_collapses_for_converging_fsm(self, rng):
        scanner = classic.keyword_scanner(b"needle", n_symbols=64)
        data = bytes(rng.integers(0, 64, size=2048).astype(np.uint8))
        width = reachable_width(scanner, data)
        assert width < scanner.n_states / 2

    def test_reachable_width_stays_full_for_permutation(self, affine, rng):
        data = bytes(rng.integers(0, 16, size=2048).astype(np.uint8))
        assert reachable_width(affine, data) == affine.n_states

    def test_profile_populates_reachable_width(self, affine, affine_io):
        train, _data = affine_io
        features = profile_features(affine, train)
        assert features.reachable_width == affine.n_states
        assert features.as_dict()["reachable_width"] == affine.n_states

    def test_selector_picks_sfa_and_it_wins(self, affine, affine_io):
        """The acceptance case: on a speculation-hopeless FSM the tree's
        new orange node routes to SFA, and SFA beats every speculative
        scheme's simulated wall-clock."""
        train, data = affine_io
        pal = GSpecPal(
            affine,
            GSpecPalConfig(n_threads=64, backend="sim"),
            training_input=train,
        )
        assert pal.select_scheme() == "sfa"
        sfa_cycles = pal.run(data, scheme="sfa").stats.cycles
        for rival in ("pm", "sre", "rr", "nf"):
            rival_cycles = pal.run(data, scheme=rival).stats.cycles
            assert sfa_cycles < rival_cycles, rival

    def test_selector_avoids_sfa_when_speculation_works(self, div7, rng):
        train = bytes(rng.integers(ord("0"), ord("2"), size=2048))
        pal = GSpecPal(
            div7, GSpecPalConfig(n_threads=64), training_input=train
        )
        assert pal.select_scheme() != "sfa"

    def test_estimate_costs_includes_sfa(self, affine, affine_io):
        train, data = affine_io
        pal = GSpecPal(
            affine,
            GSpecPalConfig(n_threads=64, backend="sim"),
            training_input=train,
        )
        est = pal.estimate_costs(data)
        assert "sfa" in est
        assert est["sfa"] < min(est[s] for s in ("pm", "sre", "rr", "nf"))
