"""Smoke test of the e2e benchmark: every workload, untraced and traced.

Not collected by tier-1 (``testpaths = ["tests"]``); run it with

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py

It takes about a minute: each case is two fresh-interpreter runs at smoke
scale (one round, fewest trials).  ``run.py --quick`` does the same
without pytest.
"""

import json

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_declared_metrics_and_audits_clean(workload):
    assert run.smoke(SPEC, workload) == []
