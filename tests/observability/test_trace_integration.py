"""End-to-end tracing acceptance tests.

The two load-bearing guarantees:

1. **The spans tile the ledger.**  For every scheme, the depth-1 phase spans
   under the ``scheme:*`` root (launch, predict, speculative execution, the
   per-round verify/recover spans, merge) sum *exactly* to
   ``SchemeResult.cycles`` — the trace is an exhaustive decomposition of the
   cost model, not a sample of it.
2. **Tracing is free when off and inert when on.**  A run with the default
   no-op tracer and a traced run produce identical results, ledgers
   included.
"""

import numpy as np
import pytest

from repro.framework import GSpecPal, GSpecPalConfig
from repro.observability import Tracer
from repro.workloads import classic

ALL_SCHEMES = ("pm", "sre", "rr", "nf", "sfa", "seq", "spec-seq")
#: Schemes running the predict/speculate/verify/merge pipeline.
SPECULATIVE_SCHEMES = ("pm", "sre", "rr", "nf", "spec-seq")


@pytest.fixture(scope="module")
def rotator_dfa():
    """Non-converging FSM: guarantees mismatch (recovery) rounds."""
    return classic.cyclic_rotator(12, n_symbols=64)


def make_pal(dfa, tracer=None, n_threads=8, lo=0, hi=64):
    rng = np.random.default_rng(99)
    training = bytes(rng.integers(lo, hi, size=160).astype(np.uint8))
    return GSpecPal(
        dfa,
        # Pinned to the sim backend: these tests assert on the executor's
        # ledger charges and cycle tiling, which only SimBackend produces.
        GSpecPalConfig(n_threads=n_threads, backend="sim"),
        training_input=training,
        tracer=tracer,
    )


def make_data(n=360, lo=0, hi=64):
    rng = np.random.default_rng(7)
    return bytes(rng.integers(lo, hi, size=n).astype(np.uint8))


def scheme_root(tracer):
    roots = [s for s in tracer.iter_spans() if s.name.startswith("scheme:")]
    assert len(roots) == 1
    return roots[0]


class TestSpanTreeShape:
    @pytest.mark.parametrize("scheme", SPECULATIVE_SCHEMES)
    def test_pipeline_phases_present(self, rotator_dfa, scheme):
        tracer = Tracer()
        pal = make_pal(rotator_dfa, tracer=tracer)
        pal.run(make_data(), scheme=scheme)
        root = scheme_root(tracer)
        names = [c.name for c in root.children]
        assert "launch" in names
        assert "predict" in names
        assert "speculative_execution" in names
        assert "merge" in names
        # The rotator never converges, so recovery rounds must appear.
        rounds = [c for c in root.children if c.name == "verify_recover.round"]
        assert rounds, f"{scheme}: no verify/recovery round spans"
        for r in rounds:
            assert "matched" in r.attrs and "active_threads" in r.attrs

    def test_frontier_schemes_emit_one_span_per_round(self, rotator_dfa):
        """SRE/RR/NF sweep one frontier round per chunk — exactly n spans,
        with mismatch rounds matching the ledger's count."""
        for scheme in ("sre", "rr", "nf"):
            tracer = Tracer()
            pal = make_pal(rotator_dfa, tracer=tracer)
            result = pal.run(make_data(), scheme=scheme)
            rounds = tracer.find_all("verify_recover.round")
            assert len(rounds) == result.n_chunks, scheme
            assert [r.attrs["frontier"] for r in rounds] == list(
                range(result.n_chunks)
            )
            mismatches = sum(1 for r in rounds if not r.attrs["matched"])
            assert mismatches == result.stats.mismatches, scheme

    def test_framework_root_wraps_everything(self, rotator_dfa):
        tracer = Tracer()
        pal = make_pal(rotator_dfa, tracer=tracer)
        pal.run(make_data())  # selector picks
        assert len(tracer.roots) == 1
        run_span = tracer.roots[0]
        assert run_span.name == "gspecpal.run"
        child_names = [c.name for c in run_span.children]
        assert "select" in child_names
        assert any(n.startswith("scheme:") for n in child_names)
        assert run_span.attrs["forced"] is False
        assert run_span.attrs["scheme"] == pal.select_scheme()

    def test_selector_span_records_features_and_path(self, rotator_dfa):
        tracer = Tracer()
        pal = make_pal(rotator_dfa, tracer=tracer)
        pal.run(make_data())
        select = tracer.find("select")
        assert select is not None
        assert select.attrs["decision"] in GSpecPal.SELECTABLE
        assert select.attrs["path"], "decision path must list visited nodes"
        features = select.attrs["features"]
        assert "spec1_accuracy" in features and "convergence_states" in features

    def test_compare_nests_one_traced_run_per_scheme(self, rotator_dfa):
        tracer = Tracer()
        pal = make_pal(rotator_dfa, tracer=tracer)
        names = ("rr", "nf", "seq")
        pal.compare_schemes(make_data(), schemes=names)
        assert len(tracer.roots) == 1
        compare = tracer.roots[0]
        assert compare.name == "gspecpal.compare"
        assert compare.attrs["schemes"] == list(names)
        runs = [c for c in compare.children if c.name == "gspecpal.run"]
        assert [r.attrs["scheme"] for r in runs] == list(names)
        # Each compared scheme gets the full traced pipeline of a normal run.
        for run in runs:
            assert any(c.name.startswith("scheme:") for c in run.children)
            assert run.attrs["forced"] is True


class TestCycleTiling:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_phase_spans_sum_to_result_cycles(self, rotator_dfa, scheme):
        """The acceptance bar: sibling phase spans tile the whole ledger."""
        tracer = Tracer()
        pal = make_pal(rotator_dfa, tracer=tracer)
        result = pal.run(make_data(), scheme=scheme)
        root = scheme_root(tracer)
        assert root.cycles == pytest.approx(result.cycles, rel=1e-12)
        phase_sum = sum(c.cycles for c in root.children)
        assert phase_sum == pytest.approx(result.cycles, rel=1e-12), scheme

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_phase_spans_are_contiguous(self, rotator_dfa, scheme):
        """Each phase opens exactly where its predecessor closed."""
        tracer = Tracer()
        pal = make_pal(rotator_dfa, tracer=tracer)
        pal.run(make_data(), scheme=scheme)
        children = scheme_root(tracer).children
        for prev, nxt in zip(children, children[1:]):
            assert nxt.cycle_start == pytest.approx(prev.cycle_end), scheme


class TestZeroCostWhenDisabled:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_traced_and_untraced_results_identical(self, rotator_dfa, scheme):
        data = make_data()
        plain = make_pal(rotator_dfa).run(data, scheme=scheme)
        traced = make_pal(rotator_dfa, tracer=Tracer()).run(data, scheme=scheme)
        assert plain.end_state == traced.end_state
        assert plain.accepts == traced.accepts
        assert plain.cycles == traced.cycles  # exact, not approx
        assert plain.stats.phase_cycles == traced.stats.phase_cycles
        assert plain.stats.summary() == traced.stats.summary()
        if plain.chunk_ends is None:
            assert traced.chunk_ends is None
        else:
            np.testing.assert_array_equal(plain.chunk_ends, traced.chunk_ends)


class TestTraceExport:
    def test_trace_jsonl_export_from_real_run(self, rotator_dfa, tmp_path):
        tracer = Tracer()
        pal = make_pal(rotator_dfa, tracer=tracer)
        pal.run(make_data(), scheme="sre")
        path = tmp_path / "trace.jsonl"
        path.write_text(tracer.to_jsonl())
        import json

        lines = path.read_text().splitlines()
        assert len(lines) == len(tracer.to_dicts())
        names = {json.loads(line)["name"] for line in lines}
        assert {"gspecpal.run", "predict", "merge"} <= names

    def test_render_timeline_smoke(self, rotator_dfa):
        from repro.observability import render_timeline

        tracer = Tracer()
        pal = make_pal(rotator_dfa, tracer=tracer)
        pal.run(make_data(), scheme="rr")
        text = render_timeline(tracer, max_run=4)
        assert "scheme:rr" in text and "verify_recover.round" in text
        assert "more" in text  # the 8 round spans exceed max_run=4: elided
