"""Analysis and reporting: experiment runners, tables, report assembly."""

from repro.analysis.experiments import (
    DEFAULT_INPUT_LENGTH,
    DEFAULT_N_THREADS,
    MemberRun,
    run_member,
    verify_against_sequential,
)
from repro.analysis.report import build_report
from repro.analysis.tables import (
    format_cell,
    geometric_mean,
    render_bars,
    render_series,
    render_table,
)

__all__ = [
    "DEFAULT_INPUT_LENGTH",
    "DEFAULT_N_THREADS",
    "MemberRun",
    "build_report",
    "format_cell",
    "geometric_mean",
    "render_bars",
    "render_series",
    "render_table",
    "run_member",
    "verify_against_sequential",
]
