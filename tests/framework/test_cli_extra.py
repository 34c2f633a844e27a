"""CLI timeline/report/trace/scenario-list command tests."""

import json

from repro.cli import _render_timeline, main
from repro.observability import SPAN_SCHEMA_KEYS
from repro.scenarios import BUILTIN_SCENARIOS


def test_timeline_rendering():
    out = _render_timeline([1, 5, 10])
    assert "round 0" in out and "round 2" in out
    assert "#" in out


def test_timeline_empty():
    assert "no recovery rounds" in _render_timeline([])


def test_timeline_downsamples():
    out = _render_timeline(list(range(100)), max_rows=8)
    assert len(out.splitlines()) == 8
    assert "round 0" in out and "round 99" in out


def test_run_with_timeline(capsys):
    rc = main(
        ["run", "snort", "8", "--scheme", "rr",
         "--input-length", "8192", "--threads", "64",
         "--training-length", "2048", "--timeline"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "recovery-round activity" in out


def test_report_command(capsys, tmp_path):
    out_file = tmp_path / "report.md"
    assert main(["report", "--output", str(out_file)]) == 0
    assert out_file.exists()
    text = out_file.read_text()
    assert "# Experiment report" in text


def test_report_to_stdout(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 8" in out


def test_trace_prints_timeline_and_writes_one_json_object_per_span(
    capsys, tmp_path
):
    path = tmp_path / "spans.jsonl"
    rc = main(
        ["trace", "snort", "1", "--input-length", "4096",
         "--training-length", "1024", "--threads", "32", "--jsonl", str(path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "phase timeline" in out
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans and f"wrote {len(spans)} spans to {path}" in out
    for span in spans:
        assert set(SPAN_SCHEMA_KEYS) <= set(span)


def test_scenario_list_names_every_builtin(capsys):
    assert main(["scenario", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(BUILTIN_SCENARIOS)
    assert len(lines) == 7
