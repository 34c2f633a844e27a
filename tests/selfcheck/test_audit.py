"""The invariant-audit layer: enablement plumbing and violation detection.

Positive direction: audits stay silent on every correct scheme × backend.
Negative direction: corrupting each audited structure (end state, chunk
chain, VR capacity, queue cursor, ledger tiling, frontier round) raises a
:class:`SelfCheckError` naming that invariant — the audits actually look.
"""

import numpy as np
import pytest

from repro.errors import SelfCheckError
from repro.framework import GSpecPal, GSpecPalConfig
from repro.schemes import SREScheme
from repro.schemes.base import Scheme
from repro.selfcheck import SELFCHECK_ENV_VAR, audit_scheme_run, selfcheck_enabled
from repro.speculation.predictor import Prediction
from tests.conftest import random_stream

ALL_SCHEMES = ("pm", "sre", "rr", "nf", "sfa", "seq", "spec-seq")


# ----------------------------------------------------------------------
# enablement plumbing
# ----------------------------------------------------------------------
class TestEnablement:
    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.delenv(SELFCHECK_ENV_VAR, raising=False)
        assert not selfcheck_enabled()
        for value in ("1", "true", "YES", "On"):
            monkeypatch.setenv(SELFCHECK_ENV_VAR, value)
            assert selfcheck_enabled()
        monkeypatch.setenv(SELFCHECK_ENV_VAR, "0")
        assert not selfcheck_enabled()

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(SELFCHECK_ENV_VAR, "1")
        assert not selfcheck_enabled(False)
        monkeypatch.delenv(SELFCHECK_ENV_VAR, raising=False)
        assert selfcheck_enabled(True)

    def test_scheme_picks_up_env(self, scanner_dfa, rng, monkeypatch):
        training = random_stream(rng, 128)
        monkeypatch.setenv(SELFCHECK_ENV_VAR, "1")
        scheme = SREScheme.for_dfa(
            scanner_dfa, n_threads=4, training_input=training
        )
        assert scheme.selfcheck

    def test_config_flag_overrides_env(self, scanner_dfa, rng, monkeypatch):
        training = random_stream(rng, 128)
        monkeypatch.setenv(SELFCHECK_ENV_VAR, "1")
        pal = GSpecPal(
            scanner_dfa,
            GSpecPalConfig(n_threads=4, selfcheck=False),
            training_input=training,
        )
        assert not pal.build_scheme("sre").selfcheck
        monkeypatch.delenv(SELFCHECK_ENV_VAR, raising=False)
        pal = GSpecPal(
            scanner_dfa,
            GSpecPalConfig(n_threads=4, selfcheck=True),
            training_input=training,
        )
        assert pal.build_scheme("sre").selfcheck

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_every_scheme_runs_the_one_audited_run(
        self, scanner_dfa, rng, monkeypatch, name
    ):
        """No registered scheme overrides ``Scheme.run``, and the audit it
        runs catches a wrong end state in every one of them."""
        scheme = _audited_scheme(scanner_dfa, rng, name=name)
        assert type(scheme).run is Scheme.run
        finish = Scheme._finish

        def off_by_one(self, *args):
            result = finish(self, *args)
            result.end_state = (result.end_state + 1) % scanner_dfa.n_states
            return result

        monkeypatch.setattr(Scheme, "_finish", off_by_one)
        with pytest.raises(SelfCheckError) as exc:
            scheme.run(random_stream(rng, 200))
        assert exc.value.invariant == "end_state_oracle"

    def test_audited_run_walks_the_input_once(self, rotator, rng, monkeypatch):
        """One chained oracle per audited run: ``DFA.run`` once a chunk,
        shared by the frontier, end-state and chunk-chain checks."""
        from repro.automata.dfa import DFA

        pal = GSpecPal(
            rotator,
            GSpecPalConfig(n_threads=8, selfcheck=True, backend="sim"),
            training_input=random_stream(rng, 128, lo=0, hi=64),
        )
        scheme = pal.build_scheme("rr")
        calls = []
        run = DFA.run

        def counted(self, *args, **kwargs):
            calls.append(self)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(DFA, "run", counted)
        data = np.asarray(rng.integers(0, 64, size=320), dtype=np.int64)
        result = scheme.run(data)
        monkeypatch.setattr(DFA, "run", run)
        assert result.end_state == rotator.run(data)
        assert len(calls) <= result.n_chunks


# ----------------------------------------------------------------------
# audits pass on correct executions
# ----------------------------------------------------------------------
class TestCleanRuns:
    @pytest.mark.parametrize("backend", ["sim", "fast"])
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_audited_run_matches_oracle(self, scanner_dfa, rng, scheme, backend):
        training = random_stream(rng, 200)
        data = random_stream(rng, 500)
        pal = GSpecPal(
            scanner_dfa,
            GSpecPalConfig(n_threads=8, selfcheck=True, backend=backend),
            training_input=training,
        )
        result = pal.run(data, scheme=scheme)
        assert result.end_state == scanner_dfa.run(data)

    def test_audited_run_from_carried_state(self, rotator, rng):
        training = random_stream(rng, 128, lo=0, hi=64)
        data = np.asarray(rng.integers(0, 64, size=300), dtype=np.int64)
        pal = GSpecPal(
            rotator,
            GSpecPalConfig(n_threads=4, selfcheck=True),
            training_input=training,
        )
        session = pal.stream(scheme="rr")
        session.feed(data[:150])
        session.feed(data[150:])
        assert session.state == rotator.run(data)

    def test_stash_cleared_after_run(self, scanner_dfa, rng):
        training = random_stream(rng, 128)
        pal = GSpecPal(
            scanner_dfa,
            GSpecPalConfig(n_threads=4, selfcheck=True),
            training_input=training,
        )
        scheme = pal.build_scheme("sre")
        scheme.run(random_stream(rng, 100))
        assert scheme._audit_stash is None


# ----------------------------------------------------------------------
# audits catch corruption, naming the invariant
# ----------------------------------------------------------------------
def _audited_scheme(dfa, rng, name="sre", n_threads=4):
    # Pinned to the sim backend so the cycle-gated checks (ledger tiling)
    # are live regardless of the REPRO_BACKEND default.
    training = random_stream(rng, 128)
    pal = GSpecPal(
        dfa,
        GSpecPalConfig(n_threads=n_threads, selfcheck=True, backend="sim"),
        training_input=training,
    )
    return pal.build_scheme(name)


class TestViolationsDetected:
    def test_wrong_end_state_raises(self, scanner_dfa, rng):
        scheme = _audited_scheme(scanner_dfa, rng)
        data = random_stream(rng, 200)
        result = scheme.run(data)  # clean run, audited
        bad = result
        bad.end_state = (result.end_state + 1) % scanner_dfa.n_states
        with pytest.raises(SelfCheckError) as exc:
            audit_scheme_run(scheme, data, None, bad)
        assert exc.value.invariant == "end_state_oracle"
        assert exc.value.scheme == "sre"
        assert exc.value.backend in ("sim", "fast")

    def test_wrong_chunk_end_names_lane(self, scanner_dfa, rng):
        scheme = _audited_scheme(scanner_dfa, rng)
        data = random_stream(rng, 200)
        result = scheme.run(data)
        result.chunk_ends = np.asarray(result.chunk_ends).copy()
        result.chunk_ends[2] = (result.chunk_ends[2] + 1) % scanner_dfa.n_states
        with pytest.raises(SelfCheckError) as exc:
            audit_scheme_run(scheme, data, None, result)
        assert exc.value.invariant == "chunk_end_chain"
        assert 2 in exc.value.lanes

    def test_chunk_ends_of_the_wrong_length_raise(self, scanner_dfa, rng):
        scheme = _audited_scheme(scanner_dfa, rng)
        data = random_stream(rng, 200)
        result = scheme.run(data)
        result.chunk_ends = np.asarray(result.chunk_ends)[:-1]
        with pytest.raises(SelfCheckError) as exc:
            audit_scheme_run(scheme, data, None, result)
        assert exc.value.invariant == "chunk_end_chain"
        assert exc.value.lanes == [0, 1, 2, 3]

    def test_vr_overflow_raises(self, scanner_dfa, rng):
        from repro.speculation.records import VRStore

        scheme = _audited_scheme(scanner_dfa, rng)
        data = random_stream(rng, 200)
        result = scheme.run(data)
        vr = VRStore(n_chunks=4, own_capacity=1, others_capacity=2)
        # Bypass add()'s capacity enforcement — the bug class the audit
        # exists for: three own records where one register is budgeted.
        vr._start[1] = [0, 1, 2]
        vr._own[1] = True
        vr._n_own[1] = 3
        scheme._audit_stash = {"vr": vr}
        with pytest.raises(SelfCheckError) as exc:
            audit_scheme_run(scheme, data, None, result)
        assert exc.value.invariant == "vr_capacity"
        assert exc.value.lanes == [1]
        scheme._audit_stash = None

    def test_queue_overrun_raises(self, scanner_dfa, rng):
        scheme = _audited_scheme(scanner_dfa, rng)
        data = random_stream(rng, 200)
        result = scheme.run(data)
        # Four queues of sizes 1, 2, 0, 3; chunk 3's cursor runs past its end.
        prediction = Prediction.from_arrays(
            np.arange(6), np.ones(6, dtype=np.int64), np.array([0, 1, 3, 3, 6])
        )
        prediction.cursors[3] = 3 + 5
        scheme._audit_stash = {"prediction": prediction}
        with pytest.raises(SelfCheckError) as exc:
            audit_scheme_run(scheme, data, None, result)
        assert exc.value.invariant == "queue_accounting"
        assert exc.value.lanes == [3]
        scheme._audit_stash = None

    def test_broken_ledger_tiling_raises(self, scanner_dfa, rng):
        scheme = _audited_scheme(scanner_dfa, rng)
        data = random_stream(rng, 200)
        result = scheme.run(data)
        result.stats.phase_cycles["ghost_phase"] = 12345.0  # bucket w/o total
        with pytest.raises(SelfCheckError) as exc:
            audit_scheme_run(scheme, data, None, result)
        assert exc.value.invariant == "ledger_tiling"

    def test_redundant_exceeding_transitions_raises(self, scanner_dfa, rng):
        scheme = _audited_scheme(scanner_dfa, rng)
        data = random_stream(rng, 200)
        result = scheme.run(data)
        result.stats.redundant_transitions = result.stats.transitions + 1
        with pytest.raises(SelfCheckError) as exc:
            audit_scheme_run(scheme, data, None, result)
        assert exc.value.invariant == "ledger_tiling"

    def test_ledger_checks_skipped_on_answer_only_backend(self, scanner_dfa, rng):
        training = random_stream(rng, 128)
        pal = GSpecPal(
            scanner_dfa,
            GSpecPalConfig(n_threads=4, selfcheck=True, backend="fast"),
            training_input=training,
        )
        scheme = pal.build_scheme("sre")
        data = random_stream(rng, 200)
        result = scheme.run(data)
        # A fast-backend ledger holds no execution cycles; cooking its
        # counters must NOT trip the audit (the check is gated).
        result.stats.redundant_transitions = result.stats.transitions + 1
        audit_scheme_run(scheme, data, None, result)

    def test_frontier_round_corruption_names_round(self, scanner_dfa, rng):
        from repro.speculation.records import VRStore

        scheme = _audited_scheme(scanner_dfa, rng, name="rr")
        data = random_stream(rng, 240)

        # Corrupt the recovery path where the frontier round reads it — the
        # verification scan: chunk 2's hit comes back one state off, so
        # round 2's frontier check must fire with frontier=2.
        orig_scan = VRStore.scan

        def bad_scan(self, chunks, starts):
            found, hit = orig_scan(self, chunks, starts)
            hit = hit.copy()
            two = (chunks == 2) & found
            hit[two] = (hit[two] + 1) % scheme.sim.dfa.n_states
            return found, hit

        with pytest.raises(SelfCheckError) as exc:
            try:
                VRStore.scan = bad_scan
                scheme.run(data)
            finally:
                VRStore.scan = orig_scan
        assert exc.value.invariant == "frontier_oracle"
        assert exc.value.frontier == 2
        assert exc.value.lanes == [2]

    def test_error_message_names_scheme_and_backend(self, scanner_dfa, rng):
        scheme = _audited_scheme(scanner_dfa, rng)
        data = random_stream(rng, 200)
        result = scheme.run(data)
        result.end_state = (result.end_state + 1) % scanner_dfa.n_states
        with pytest.raises(SelfCheckError, match=r"scheme=sre.*backend="):
            audit_scheme_run(scheme, data, None, result)
