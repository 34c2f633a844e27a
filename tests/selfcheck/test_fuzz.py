"""The differential fuzzer: generation, checking, shrinking, repros.

The expensive end-to-end property (hundreds of random cases) lives in the
CI smoke job; here we pin the machinery — deterministic generation, a clean
seeded mini-campaign, usage errors that never masquerade as failures, and
the shrinker producing a minimal, replayable JSON repro from an injected
fault.
"""

import json

import pytest

from repro.errors import SchemeError, SimulationError
from repro.selfcheck.fuzz import (
    FuzzCase,
    check_case,
    load_repro,
    random_case,
    replay,
    run_fuzz,
    save_repro,
    shrink_case,
)

SEED = 20260805


class TestGeneration:
    def test_deterministic_for_a_seed(self):
        a, b = random_case(SEED), random_case(SEED)
        assert a == b

    def test_cases_are_valid(self):
        for i in range(30):
            case = random_case(SEED + i)
            dfa = case.dfa()  # constructor validates the table
            assert len(case.input) >= case.n_threads
            assert max(case.input) < dfa.n_symbols
            assert max(case.training) < dfa.n_symbols
            if case.segments:
                assert sum(case.segments) == len(case.input)
                assert min(case.segments) >= case.n_threads

    def test_round_trips_through_json(self, tmp_path):
        case = random_case(SEED)
        restored = FuzzCase.from_dict(json.loads(case.to_json()))
        assert restored == case
        assert restored.dfa() == case.dfa()


class TestChecking:
    def test_seeded_mini_campaign_is_clean(self):
        for i in range(25):
            case = random_case(SEED + i)
            assert check_case(case) is None, (i, case.scheme, case.backend)


class TestUsageErrors:
    """A typo in a pool is a usage error: no case runs, no repro is written."""

    @pytest.mark.parametrize(
        "kw, error",
        [
            ({"schemes": ("foo",)}, SchemeError),
            ({"schemes": ("pm", "enum")}, SchemeError),
            ({"backends": ("sim", "gpu")}, SimulationError),
        ],
    )
    def test_run_fuzz_rejects_unknown_pool(self, kw, error, tmp_path):
        with pytest.raises(error):
            run_fuzz(iterations=1, seed=SEED, out_dir=tmp_path, **kw)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", [["--schemes", "foo"], ["--backends", "sim,gpu"]])
    def test_cli_exits_2_and_writes_nothing(self, flag, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "repros"
        rc = main(["fuzz", "--iterations", "1", "--out", str(out), *flag])
        assert rc == 2
        assert not out.exists()
        assert "unknown" in capsys.readouterr().err


class TestShrinking:
    @pytest.fixture()
    def broken_fast_backend(self, monkeypatch):
        """Inject an answer corruption that needs chunks longer than 30."""
        from repro.engine.fast import FastBackend

        orig = FastBackend.run_batch

        def bad(self, chunks, starts, **kw):
            out = orig(self, chunks, starts, **kw)
            if chunks.shape[1] > 30:
                out = out.copy()
                out[0] = (int(out[0]) + 1) % self.n_states
            return out

        monkeypatch.setattr(FastBackend, "run_batch", bad)

    def test_fuzz_finds_shrinks_and_saves(self, broken_fast_backend, tmp_path):
        path = run_fuzz(
            iterations=40,
            seed=1,
            out_dir=tmp_path,
            backends=("fast",),
        )
        assert path is not None and path.exists()
        payload = json.loads(path.read_text())
        assert "message" in payload and payload["message"]
        case = load_repro(path)
        # Shrunk: small thread count, bounded input, one-shot.
        assert case.n_threads <= 4
        assert not case.segments
        assert len(case.input) <= 200
        # The shrunk case still reproduces while the fault is injected…
        assert replay(path) is not None

    def test_repro_stops_failing_once_fixed(self, tmp_path):
        # …and the same repro goes quiet on healthy code.
        case = random_case(SEED + 3)
        failure = shrink_case(case, check=lambda c: None, max_checks=5)
        path = save_repro(failure, tmp_path)
        assert replay(path) is None

    def test_shrink_respects_n_threads_floor(self, monkeypatch):
        # A checker that always fails: shrinking must never produce an
        # input shorter than the thread count (an invalid case).
        case = random_case(SEED + 7)
        failure = shrink_case(case, check=lambda c: "always fails", max_checks=60)
        assert len(failure.case.input) >= failure.case.n_threads


class TestWrongAnswerDetection:
    def test_audit_catches_recovery_corruption(self, monkeypatch):
        """End-to-end: a corrupted verification record is caught by the
        in-run audit, so check_case reports it as a selfcheck violation."""
        from repro.speculation.records import VRStore

        orig = VRStore.scan

        def bad(self, chunks, starts):
            found, hit = orig(self, chunks, starts)
            hit = hit.copy()
            odd = chunks % 2 == 1
            hit[odd] = (hit[odd] + 1) % 1_000_000  # wrong, possibly out of range
            return found, hit

        monkeypatch.setattr(VRStore, "scan", bad)
        messages = []
        for i in range(20):
            case = random_case(SEED + i, schemes=("sre", "rr", "nf"))
            msg = check_case(case)
            if msg:
                messages.append(msg)
        assert messages, "no case tripped on corrupted recovery records"
        assert any("selfcheck" in m or "oracle" in m for m in messages)
