"""Scenario schema + runner: seeded documents, gated JSONL results.

Covers the declarative layer (validation errors name the offending
field, builtins validate, JSON/YAML interchangeability, seeded schedule
determinism) and the runner end-to-end: a small scenario through an
embedded gateway over real sockets must be oracle-exact, write one JSONL
line per request, and fail its report when a regression gate trips, a
serving audit fails, a connection is refused or a feed errors out.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.errors import ScenarioError, ServingError
from repro.gateway import GatewayClient, GatewayServer
from repro.scenarios import (
    BUILTIN_SCENARIOS,
    GateSpec,
    Scenario,
    build_schedule,
    builtin_scenario,
    load_scenario,
    run_scenario,
    scenario_from_text,
)
from repro.scenarios.runner import (
    RequestRecord,
    ScenarioReport,
    _gate_failures,
    _serving_audits,
)
from repro.serving import PlanCache


#: The keys of one JSONL result row.
JSONL_KEYS = {
    "scenario", "request", "phase", "tenant", "variant", "stream", "ok",
    "rejects", "segments", "symbols", "open_ms", "feed_ms_mean",
    "feed_ms_max", "fused_feeds", "scheme_switches", "end_state", "accepts",
    "oracle_ok", "t_start_s", "t_end_s", "error",
}


def small_scenario(**overrides):
    doc = {
        "id": "unit",
        "seed": 11,
        "clients": 2,
        "requests": 6,
        "warmup_requests": 2,
        "arrival": {"kind": "uniform", "rate_per_s": 500.0},
        "tenants": [
            {"name": "kw", "weight": 0.5, "fsm": {"kind": "keyword", "keyword": "abc"}},
            {"name": "par", "weight": 0.5, "fsm": {"kind": "parity"}},
        ],
        "segments": {
            "min_len": 16,
            "max_len": 48,
            "per_stream_min": 1,
            "per_stream_max": 2,
        },
        "pool": {"max_streams": 8},
        "backend": "sim",
    }
    doc.update(overrides)
    return Scenario.from_dict(doc)


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
def test_builtin_scenarios_validate_and_build():
    assert set(BUILTIN_SCENARIOS) == {
        "smoke",
        "capacity",
        "bursty-mix",
        "soak",
        "soak-fused",
        "equivalent-mix",
        "drift",
    }
    for name in BUILTIN_SCENARIOS:
        scenario = builtin_scenario(name)
        assert scenario.id == name
        assert scenario.total_requests > 0
        fleet, trainings = scenario.build_fleet()
        assert len(fleet) == len(scenario.tenants)
        assert len(trainings) == len(scenario.tenants)
        for tenant, variants, training in zip(
            scenario.tenants, fleet, trainings
        ):
            assert len(variants) == tenant.variants
            assert variants[0].n_states >= 2
            assert len(training) == scenario.training_len

    with pytest.raises(ScenarioError, match="unknown builtin"):
        builtin_scenario("nope")


@pytest.mark.parametrize(
    "mutation, match",
    [
        ({"bogus_field": 1}, "unknown field"),
        ({"arrival": {"kind": "fractal"}}, "arrival.kind"),
        ({"tenants": []}, "non-empty list"),
        ({"backend": "gpu"}, "backend"),
        ({"requests": 0}, "requests"),
        (
            {"tenants": [{"name": "t", "fsm": {"kind": "wat"}}]},
            "fsm.kind",
        ),
        (
            {
                "tenants": [
                    {
                        "name": "t",
                        "weight": 0,
                        "fsm": {"kind": "parity"},
                    }
                ]
            },
            "weight",
        ),
        ({"segments": {"min_len": 0}}, "min_len"),
        ({"pool": {"max_streams": 0}}, "max_streams"),
        # wrong-typed fields: a ScenarioError naming section.field, never a
        # raw ValueError/TypeError and never silently accepted
        ({"clients": "many"}, "scenario.clients"),
        ({"arrival": {"rate_per_s": "fast"}}, "arrival.rate_per_s"),
        ({"gates": {"p99_feed_ms": "slow"}}, "gates.p99_feed_ms"),
        ({"pool": {"max_streams": None}}, "pool.max_streams"),
        ({"segments": [1, 2]}, "segments must be a mapping"),
        ({"pool": {"fused": "no"}}, "pool.fused must be a bool"),
        (
            {"tenants": [{"scheme": 7, "fsm": {"kind": "parity"}}]},
            r"tenants\[0\].scheme must be a str",
        ),
        # the three new fields are range-checked like the rest
        (
            {"tenants": [{"variants": 0, "fsm": {"kind": "parity"}}]},
            r"tenants\[0\].variants",
        ),
        ({"drift_at": 1.5}, "drift_at"),
        ({"pool": {"drift": 1}}, "pool.drift must be a bool"),
    ],
)
def test_schema_rejects_bad_documents(mutation, match):
    doc = {
        "id": "bad",
        "tenants": [{"name": "t", "fsm": {"kind": "parity"}}],
    }
    doc.update(mutation)
    with pytest.raises(ScenarioError, match=match):
        Scenario.from_dict(doc)


def test_json_text_and_file_loading(tmp_path):
    doc = {
        "id": "from-json",
        "tenants": [{"name": "t", "fsm": {"kind": "divisibility", "modulus": 5}}],
    }
    scenario = scenario_from_text(json.dumps(doc))
    assert scenario.id == "from-json"

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert load_scenario(path).id == "from-json"

    with pytest.raises(ScenarioError, match="invalid JSON"):
        scenario_from_text("{broken")
    with pytest.raises(ScenarioError, match="no scenario file"):
        load_scenario(tmp_path / "missing.yaml")


def test_yaml_loading_matches_json(tmp_path):
    pytest.importorskip("yaml")
    text = """
id: from-yaml
seed: 3
tenants:
  - name: kw
    fsm: {kind: keyword, keyword: abc}
"""
    scenario = scenario_from_text(text)
    assert scenario.id == "from-yaml"
    assert scenario.seed == 3
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    assert load_scenario(path) == scenario


def test_replace_returns_validated_copy():
    scenario = small_scenario()
    flipped = scenario.replace(backend="fast", seed=99)
    assert (flipped.backend, flipped.seed) == ("fast", 99)
    assert (scenario.backend, scenario.seed) == ("sim", 11)  # frozen original
    assert flipped.tenants == scenario.tenants
    with pytest.raises(ScenarioError, match="backend"):
        scenario.replace(backend="gpu")


# ----------------------------------------------------------------------
# seeded schedule
# ----------------------------------------------------------------------
def test_schedule_is_deterministic_per_seed():
    scenario = small_scenario()
    first, second = build_schedule(scenario), build_schedule(scenario)
    assert len(first) == scenario.total_requests
    for a, b in zip(first, second):
        assert a.tenant_index == b.tenant_index
        assert a.segments == b.segments
        assert a.gap_s == b.gap_s
    assert [s.phase for s in first[:2]] == ["warmup", "warmup"]
    assert all(s.phase == "measure" for s in first[2:])

    reseeded = build_schedule(small_scenario(seed=12))
    assert any(
        a.segments != b.segments for a, b in zip(first, reseeded)
    )


@pytest.mark.parametrize(
    "name, digest",
    [
        ("smoke", "9f7908af496dc2e80fa7f462a08a0089b6c039c9c7e0580db36ff624fb576d52"),
        ("capacity", "1ed2fe24bda91e437a233e560ad45983970b73ce2689ee33a20955e5c5f2eee2"),
        ("bursty-mix", "8e798d1d7ff22ee9e55e207574382aa21721a2ae3cc327b43ae3f886bdf38279"),
    ],
)
def test_pre_existing_builtin_schedules_are_byte_identical(name, digest):
    """Digests captured on 95ebe92, before the schema grew ``variants`` /
    ``drift_at``: a document using neither draws exactly what it drew."""
    sha = hashlib.sha256()
    for spec in build_schedule(builtin_scenario(name)):
        assert spec.variant == 0
        sha.update(
            repr(
                (spec.index, spec.phase, spec.tenant_index, spec.segments, spec.gap_s)
            ).encode()
        )
    assert sha.hexdigest() == digest


def test_schedule_draws_variants_and_drifts_at_the_flip():
    hot = bytes(range(240, 256))  # drifting_phase's hot symbol region
    scenario = small_scenario(
        requests=30,
        warmup_requests=0,
        drift_at=0.5,
        tenants=[
            {"name": "kw", "variants": 3, "fsm": {"kind": "keyword", "keyword": "abc"}},
            {"name": "phase", "fsm": {"kind": "drifting_phase", "n_states": 16}},
        ],
    )
    schedule = build_schedule(scenario)
    assert {s.variant for s in schedule if s.tenant_index == 0} == {0, 1, 2}
    assert {s.variant for s in schedule if s.tenant_index == 1} == {0}
    for spec in schedule:
        for segment in spec.segments:
            share = sum(byte in hot for byte in segment) / len(segment)
            if spec.tenant_index == 0:
                assert share == 0.0  # lowercase noise, untouched by drift_at
            elif spec.index < 15:
                assert share < 0.4  # calm: ~5% hot
            else:
                assert share > 0.6  # drifted: ~97% hot


# ----------------------------------------------------------------------
# runner end-to-end (embedded gateway, real sockets)
# ----------------------------------------------------------------------
def test_runner_smoke_writes_gated_jsonl(tmp_path):
    out = tmp_path / "results.jsonl"
    scenario = small_scenario()
    report = run_scenario(scenario, out_path=str(out))
    assert report.ok, report.summary()
    assert report.completed == scenario.requests
    assert report.failed == 0
    assert not report.oracle_failures
    assert report.gateway_stats["pool"]["active_streams"] == 0

    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == scenario.total_requests
    assert [line["request"] for line in lines] == list(
        range(scenario.total_requests)
    )
    phases = {line["phase"] for line in lines}
    assert phases == {"warmup", "measure"}
    for line in lines:
        assert set(line) == JSONL_KEYS
        assert line["scenario"] == "unit"
        assert line["ok"] is True
        assert line["oracle_ok"] is True
        assert line["tenant"] in {"kw", "par"}
        assert line["symbols"] >= 16


def test_runner_reports_gate_violation():
    scenario = small_scenario(
        gates={"min_throughput_sym_per_s": 1e12}
    )
    report = run_scenario(scenario)
    assert not report.ok
    assert report.gate_failures
    assert "min_throughput_sym_per_s" in report.gate_failures[0]
    # The traffic itself was still healthy — only the gate tripped.
    assert report.completed == scenario.requests
    assert not report.oracle_failures


#: Each gate, its comparison, and the report value it reads (all distinct,
#: so a gate wired to the wrong metric reports the wrong number).
GATES = [
    ("p99_open_ms", "<=", 3.0),
    ("p99_feed_ms", "<=", 7.0),
    ("min_throughput_sym_per_s", ">=", 13_000.0),
    ("min_throughput_req_per_s", ">=", 11.0),
    ("max_reject_rate", "<=", 0.25),
]


def test_gate_table_covers_every_gate():
    assert {name for name, _, _ in GATES} == {
        f.name for f in dataclasses.fields(GateSpec)
    }


@pytest.mark.parametrize("name, op, actual", GATES)
def test_each_gate_trips_on_its_own_metric(name, op, actual):
    report = ScenarioReport(
        "gates", "sim", 0, 1, 1,
        p99_open_ms=3.0,
        p99_feed_ms=7.0,
        throughput_sym_per_s=13_000.0,
        throughput_req_per_s=11.0,
        reject_rate=0.25,
    )
    assert _gate_failures(GateSpec(), report) == []
    # A bound equal to the value passes: both comparisons are inclusive.
    assert _gate_failures(GateSpec(**{name: actual}), report) == []
    bound = actual * 2 if op == ">=" else actual / 2
    assert _gate_failures(GateSpec(**{name: bound}), report) == [
        f"{name}: {actual:.3f} violates {op} {bound:.3f}"
    ]


def test_jsonl_row_renames_index_and_summarizes_feeds():
    record = RequestRecord(
        index=3,
        phase="measure",
        tenant="kw",
        stream=9,
        ok=True,
        segments=2,
        symbols=40,
        open_ms=1.23456,
        feed_ms=[1.0, 2.0004],
        end_state=4,
        accepts=False,
        oracle_ok=True,
        t_start_s=0.12345678,
        t_end_s=0.5,
    )
    assert record.to_json("unit") == {
        "scenario": "unit",
        "request": 3,
        "phase": "measure",
        "tenant": "kw",
        "variant": 0,
        "stream": 9,
        "ok": True,
        "rejects": 0,
        "segments": 2,
        "symbols": 40,
        "open_ms": 1.235,
        "feed_ms_mean": 1.5,
        "feed_ms_max": 2.0,
        "fused_feeds": 0,
        "scheme_switches": 0,
        "end_state": 4,
        "accepts": False,
        "oracle_ok": True,
        "t_start_s": 0.123457,
        "t_end_s": 0.5,
        "error": None,
    }
    failed = RequestRecord(index=0, phase="warmup", tenant="kw").to_json("unit")
    assert set(failed) == JSONL_KEYS
    assert (failed["feed_ms_mean"], failed["feed_ms_max"]) == (0.0, 0.0)


@pytest.mark.parametrize("target", [{"host": "127.0.0.1"}, {"port": 7770}])
def test_external_gateway_needs_host_and_port(target):
    with pytest.raises(ScenarioError, match="both --host and --port"):
        run_scenario(small_scenario(), **target)


def test_runner_counts_capacity_rejects():
    scenario = small_scenario(
        clients=4,
        requests=12,
        warmup_requests=0,
        pool={"max_streams": 1, "open_timeout": 0.0},
        retry={"max_attempts": 64, "backoff_s": 0.002},
        arrival={"kind": "bursty", "rate_per_s": 500.0, "burst_size": 4},
    )
    report = run_scenario(scenario)
    assert report.ok, report.summary()
    assert report.completed == 12
    assert report.reject_attempts > 0
    assert 0.0 < report.reject_rate < 1.0


def test_fused_pool_document_gang_feeds():
    """``pool.fused`` drives gangs through ``feed_many``: the pool reports
    fused dispatches, and every feed the clients saw is either marked
    fused on the wire or counted by the pool as a per-stream fallback."""
    scenario = small_scenario(
        requests=12,
        warmup_requests=0,
        pool={"max_streams": 8, "fused": True},
    )
    report = run_scenario(scenario)
    assert report.ok, report.summary()
    assert report.metrics["serving.pool.fused_dispatches"] >= 1
    fed = sum(r.segments for r in report.records)
    fused = sum(r.fused_feeds for r in report.records)
    assert 0 < fused == report.metrics["serving.pool.fused_streams"]
    assert fed - fused == report.metrics.get("serving.pool.fused_fallbacks", 0)


def test_refused_connection_costs_no_requests(monkeypatch):
    """One client that cannot connect is an error, not lost work: the
    healthy connections serve every request."""
    real_connect = GatewayClient.connect
    attempts = []

    async def flaky_connect(host, port, **kwargs):
        attempts.append(port)
        if len(attempts) == 1:
            raise ConnectionRefusedError("injected refusal")
        return await real_connect(host, port, **kwargs)

    monkeypatch.setattr(GatewayClient, "connect", flaky_connect)
    scenario = small_scenario(clients=3, requests=12)
    report = run_scenario(scenario)
    assert len(attempts) == 3
    assert [e for e in report.errors if "connect failed" in e]
    assert not [e for e in report.errors if "lost records" in e]
    assert report.completed == scenario.requests
    assert not report.ok  # the refused connection itself is still reported


def test_failed_feed_still_closes_its_stream(monkeypatch):
    """A feed error fails that request only, and the stream it had opened
    is closed by the client — not left holding an admission slot until
    the connection drops."""
    real_feed, real_start = GatewayClient.feed, GatewayServer.start
    real_aclose = GatewayClient.aclose
    failed, servers, active_at_disconnect = [], [], []

    async def flaky_feed(self, stream, segment):
        if not failed:
            failed.append(stream)
            raise ServingError("injected feed failure", code="internal")
        return await real_feed(self, stream, segment)

    async def start(self):
        servers.append(self)
        await real_start(self)

    async def aclose(self):
        active_at_disconnect.append(servers[0].pool.stats()["active_streams"])
        await real_aclose(self)

    monkeypatch.setattr(GatewayClient, "feed", flaky_feed)
    monkeypatch.setattr(GatewayServer, "start", start)
    monkeypatch.setattr(GatewayClient, "aclose", aclose)
    scenario = small_scenario(clients=1)
    report = run_scenario(scenario)
    assert active_at_disconnect == [0]
    assert report.gateway_stats["orphans_closed"] == 0
    assert report.gateway_stats["drained_streams"] == 0
    broken = [r for r in report.records if r.error]
    assert [r.stream for r in broken] == failed
    assert "injected feed failure" in broken[0].error
    assert len(report.records) == scenario.total_requests
    assert not report.errors  # nothing leaked, so no audit trips


# ----------------------------------------------------------------------
# the embedded run's always-on serving audits
# ----------------------------------------------------------------------
def test_serving_audits_catch_each_corrupted_input(tmp_path):
    scenario = small_scenario(
        requests=12,
        warmup_requests=0,
        drift_at=0.5,
        pool={"max_streams": 8, "fused": True, "drift": True},
    )
    report = run_scenario(scenario, spill_dir=str(tmp_path))
    classes = {p.stem for p in tmp_path.glob("*.npz")}
    assert len(classes) == 2
    assert report.metrics == report.gateway_stats["metrics"]
    # No drifting_phase tenant, so nothing drifted: stand in one revise.
    stats = {
        **report.gateway_stats,
        "metrics": {**report.metrics, "drift.revises": 1.0},
    }
    assert _serving_audits(scenario, classes, stats, classes) == []

    def corrupted(path, value):
        broken = json.loads(json.dumps(stats))
        section = broken
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        return _serving_audits(scenario, classes, broken, classes)

    assert "3 compiles" in corrupted(("pool", "cache", "compiles"), 3)[0]
    # ... unless the cache says a plan was evicted or loaded from disk.
    evicted = json.loads(json.dumps(stats))
    evicted["pool"]["cache"].update(compiles=3, evictions=1)
    assert _serving_audits(scenario, classes, evicted, classes) == []
    for path in (
        ("pool", "active_streams"),
        ("pool", "reserved"),
        ("orphans_closed",),
        ("drained_streams",),
    ):
        assert path[-1] in corrupted(path, 1)[0]

    for counter, value, message in (
        ("drift.revise_errors", 1.0, "revises failed"),
        ("drift.revises", 0.0, "provoked no revise"),
        ("serving.pool.fused_dispatches", 0.0, "no fused dispatch"),
    ):
        assert message in corrupted(("metrics", counter), value)[0]
    for spilled in (set(), classes | {"f" * 64}):
        failure = _serving_audits(scenario, classes, stats, spilled)
        assert "spill files" in failure[0]


def test_failed_serving_audit_fails_the_report(monkeypatch, tmp_path):
    """End to end: a cache that stops spilling turns a healthy run's
    report red through the always-on audits, whatever the gates say."""
    monkeypatch.setattr(PlanCache, "_spill", lambda self, plan: None)
    report = run_scenario(small_scenario(), spill_dir=str(tmp_path))
    assert report.completed == 6 and not report.oracle_failures
    assert not report.ok
    assert "audit: 0 spill files for 2 language classes" in report.errors[0]
    assert "FAIL" in report.summary()
