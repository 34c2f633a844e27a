"""GSpecPal framework tests."""

import numpy as np
import pytest

from repro.framework import GSpecPal, GSpecPalConfig
from repro.observability import Tracer
from repro.schemes import RRScheme
from repro.workloads import classic
from repro.errors import SchemeError


@pytest.fixture(scope="module")
def easy_dfa():
    return classic.keyword_scanner(b"token")


@pytest.fixture()
def stream(rng):
    return bytes(rng.integers(97, 123, size=2000).astype(np.uint8))


@pytest.fixture()
def training(rng):
    return bytes(rng.integers(97, 123, size=500).astype(np.uint8))


class TestConfig:
    def test_defaults(self):
        cfg = GSpecPalConfig()
        assert cfg.n_threads == 256
        assert cfg.use_transformation

    def test_validation(self):
        with pytest.raises(SchemeError):
            GSpecPalConfig(n_threads=1)
        with pytest.raises(SchemeError):
            GSpecPalConfig(training_fraction=0.0)


class TestFixedSpecK:
    """PM runs at one depth, the one the Fig. 6 tree's PM node reads."""

    @pytest.mark.parametrize(
        "field", ["spec_k", "own_registers", "others_registers", "thresholds"]
    )
    def test_paper_constants_are_not_config_fields(self, field):
        with pytest.raises(TypeError):
            GSpecPalConfig(**{field: 1})

    def test_tree_picks_pm_on_spec4_evidence_and_serves_spec4(self):
        """drifting_phase(128): spec-4 accuracy 1.00, spec-1 0.13.  The
        tree's ``speck_accurate`` node picks PM, and PM-spec4 serves it at
        427 523 cycles (64 KiB, 32 threads, sim)."""
        dfa = classic.drifting_phase(128)
        pal = GSpecPal(
            dfa,
            GSpecPalConfig(n_threads=32, backend="sim"),
            training_input=classic.drifting_phase_input(8192, drift_at=1.0, seed=1),
        )
        data = classic.drifting_phase_input(65536, drift_at=1.0, seed=2)
        assert pal.plan.decision_path[-1] == "speck_accurate"
        assert pal.plan.scheme == "pm"
        result = pal.run(data)
        assert result.scheme == GSpecPal.PM_ALIAS == "pm-spec4"
        assert result.end_state == dfa.run(data)
        assert result.cycles == 427_523


class TestProfiling:
    def test_profile_with_explicit_training(self, easy_dfa, training):
        pal = GSpecPal(easy_dfa, training_input=training)
        f = pal.profile()
        assert f.name == easy_dfa.name
        assert pal.profile() is f  # cached

    def test_profile_without_training_needs_data(self, easy_dfa):
        pal = GSpecPal(easy_dfa)
        with pytest.raises(SchemeError):
            pal.profile()

    def test_profile_slices_data(self, easy_dfa, stream):
        pal = GSpecPal(easy_dfa, GSpecPalConfig(n_threads=16, min_training_symbols=256))
        f = pal.profile(stream)
        assert f is not None


class TestSinglePipeline:
    """Every ``GSpecPal`` is plan-backed: one compile, on first need."""

    def test_exactly_one_compile_across_runs_and_a_stream(self, easy_dfa, stream):
        tracer = Tracer()
        pal = GSpecPal(
            easy_dfa,
            GSpecPalConfig(n_threads=16, min_training_symbols=256),
            tracer=tracer,
        )
        assert not tracer.find_all("compile")  # lazy: nothing until first need
        pal.run(stream)
        pal.run(stream, scheme="nf")
        pal.compare_schemes(stream, schemes=("sre", "rr"))
        session = pal.stream()
        session.feed(stream[:1000])
        session.feed(stream[1000:])
        assert session.state == easy_dfa.run(stream)
        pal.estimate_costs(stream)
        compiles = tracer.find_all("compile")
        assert len(compiles) == 1
        # ... nested in the run that needed it, trained on that run's slice.
        assert compiles[0].parent_id == tracer.roots[0].span_id
        assert tracer.roots[0].name == "gspecpal.run"
        assert compiles[0].attrs["training_symbols"] == 256
        assert "profile" not in [s.name for s in tracer.roots]

    def test_first_need_may_be_a_stream_feed(self, easy_dfa, stream):
        tracer = Tracer()
        pal = GSpecPal(easy_dfa, GSpecPalConfig(n_threads=16), tracer=tracer)
        session = pal.stream(scheme="sre")
        assert not tracer.find_all("compile")
        session.feed(stream)
        assert session.state == easy_dfa.run(stream)
        assert len(tracer.find_all("compile")) == 1
        assert pal.plan.training_symbols == min(
            len(stream), pal.config.min_training_symbols
        )

    @pytest.mark.parametrize("scheme", ["pm", "sre", "rr", "nf", "sfa", "spec-seq"])
    def test_forced_scheme_answers_on_a_nine_symbol_input(self, easy_dfa, scheme):
        """No explicit training: the whole 9-symbol input is the profiling
        slice, shorter than the convergence window and than four symbols
        per thread — it must compile and answer all the same."""
        data = b"xxtokenxx"
        pal = GSpecPal(easy_dfa, GSpecPalConfig(n_threads=8))
        result = pal.run(data, scheme=scheme)
        assert result.end_state == easy_dfa.run(data)
        assert result.accepts
        assert pal.plan.training_symbols == 9

    def test_plan_needs_something_to_compile_from(self, easy_dfa):
        with pytest.raises(SchemeError, match="no training input"):
            GSpecPal(easy_dfa).plan


class TestRun:
    def test_auto_selection_correct(self, easy_dfa, stream, training):
        pal = GSpecPal(easy_dfa, GSpecPalConfig(n_threads=16), training_input=training)
        result = pal.run(stream)
        assert result.end_state == easy_dfa.run(stream)
        assert result.scheme in ("pm-spec4", "sre", "rr", "nf", "sfa")

    def test_forced_scheme(self, easy_dfa, stream, training):
        pal = GSpecPal(easy_dfa, GSpecPalConfig(n_threads=16), training_input=training)
        for name in ("pm", "sre", "rr", "nf", "sfa", "seq", "spec-seq"):
            result = pal.run(stream, scheme=name)
            assert result.end_state == easy_dfa.run(stream), name

    def test_unknown_scheme(self, easy_dfa, stream, training):
        pal = GSpecPal(easy_dfa, training_input=training)
        with pytest.raises(SchemeError):
            pal.run(stream, scheme="warp-drive")

    def test_unknown_scheme_fails_before_profiling(self, easy_dfa, stream, monkeypatch):
        # No training input: a typo'd scheme must be rejected up front, not
        # after (or instead of) the compile that profiles.
        pal = GSpecPal(easy_dfa)
        monkeypatch.setattr(
            pal,
            "compile_plan",
            lambda *a, **k: pytest.fail("compiled before validation"),
        )
        with pytest.raises(SchemeError, match="unknown scheme 'nfa'"):
            pal.run(stream, scheme="nfa")
        with pytest.raises(SchemeError, match="known schemes"):
            pal.stream(scheme="bogus")
        with pytest.raises(SchemeError):
            pal.compare_schemes(stream, schemes=("rr", "bogus"))

    def test_spec_k_alias_accepted(self, easy_dfa, stream, training):
        pal = GSpecPal(easy_dfa, GSpecPalConfig(n_threads=16), training_input=training)
        result = pal.run(stream, scheme="pm-spec4")
        assert result.end_state == easy_dfa.run(stream)

    def test_select_scheme_on_easy_fsm(self, easy_dfa, stream, training):
        pal = GSpecPal(easy_dfa, GSpecPalConfig(n_threads=16), training_input=training)
        # Keyword scanner converges fast: the tree must not pick PM.
        assert pal.select_scheme() in ("sre", "rr", "nf")

    def test_compare_schemes(self, easy_dfa, stream, training):
        pal = GSpecPal(easy_dfa, GSpecPalConfig(n_threads=16), training_input=training)
        results = pal.compare_schemes(stream)
        assert set(results) == {"pm", "sre", "rr", "nf", "sfa"}
        truth = easy_dfa.run(stream)
        assert all(r.end_state == truth for r in results.values())

    def test_transformation_ablation(self, easy_dfa, stream, training):
        # Pinned to the sim backend: the ablation compares cycle figures,
        # which only the cycle-accounting backend produces.
        on = GSpecPal(
            easy_dfa,
            GSpecPalConfig(n_threads=16, backend="sim"),
            training_input=training,
        ).run(stream, scheme="rr")
        off = GSpecPal(
            easy_dfa,
            GSpecPalConfig(n_threads=16, use_transformation=False, backend="sim"),
            training_input=training,
        ).run(stream, scheme="rr")
        assert on.end_state == off.end_state
        # The hash-table layout pays per-step overhead: RANK must be faster.
        assert on.cycles < off.cycles

    def test_register_config_respected(self, easy_dfa, stream, training):
        rr = RRScheme.for_dfa(
            easy_dfa, n_threads=16, training_input=training, others_capacity=2
        )
        assert rr.others_capacity == 2
        assert rr.run(stream).end_state == easy_dfa.run(stream)
