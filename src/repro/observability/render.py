"""Human-readable rendering of recorded traces (the ``repro trace`` view).

``render_timeline`` flattens a tracer's span forest into an aligned table:
one row per span, indented by depth, with cycle boundaries, per-span cycles,
share of the run, and the interesting attributes (scheme, frontier, matched,
active threads).  Long runs of same-named sibling spans — hundreds of
``verify_recover.round`` spans on big inputs — are elided to head/tail rows
plus an aggregate line, so the table stays terminal-sized while still
reporting the total cost of the elided region.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.observability.tracer import Span, Tracer

# NOTE: repro.analysis imports are deferred into the render functions —
# observability sits below every other layer (schemes/gpu import it), and a
# module-level import of repro.analysis would close a cycle through
# analysis.experiments → framework → schemes.

#: Attributes surfaced in the timeline's ``detail`` column, in this order.
_DETAIL_ATTRS = ("scheme", "decision", "frontier", "matched", "active_threads")


def _detail(span: Span) -> str:
    parts = []
    for key in _DETAIL_ATTRS:
        if key in span.attrs:
            parts.append(f"{key}={span.attrs[key]}")
    return " ".join(parts)


def _fmt_cycle(value: Optional[float]) -> str:
    return f"{value:.0f}" if value is not None else "-"


def _span_rows(
    span: Span,
    rows: List[Sequence],
    total_cycles: float,
    max_run: int,
) -> None:
    indent = "  " * span.depth
    share = 100.0 * span.cycles / total_cycles if total_cycles else 0.0
    rows.append(
        [
            indent + span.name,
            _fmt_cycle(span.cycle_start),
            _fmt_cycle(span.cycle_end),
            f"{span.cycles:.0f}",
            f"{share:.1f}%",
            _detail(span),
        ]
    )
    # Group consecutive same-named children so repetitive phases collapse.
    i = 0
    children = span.children
    while i < len(children):
        j = i
        while j < len(children) and children[j].name == children[i].name:
            j += 1
        run = children[i:j]
        if len(run) <= max_run:
            for child in run:
                _span_rows(child, rows, total_cycles, max_run)
        else:
            head, tail = run[: max_run // 2], run[-1:]
            for child in head:
                _span_rows(child, rows, total_cycles, max_run)
            elided = run[len(head) : -1]
            elided_cycles = sum(c.cycles for c in elided)
            elided_share = (
                100.0 * elided_cycles / total_cycles if total_cycles else 0.0
            )
            rows.append(
                [
                    "  " * run[0].depth
                    + f"... {len(elided)} more {run[0].name!r} spans ...",
                    _fmt_cycle(elided[0].cycle_start),
                    _fmt_cycle(elided[-1].cycle_end),
                    f"{elided_cycles:.0f}",
                    f"{elided_share:.1f}%",
                    "",
                ]
            )
            for child in tail:
                _span_rows(child, rows, total_cycles, max_run)
        i = j


def render_timeline(tracer: Tracer, *, max_run: int = 8, title: Optional[str] = None) -> str:
    """Render the tracer's span forest as a per-phase timeline table.

    Parameters
    ----------
    max_run:
        Longest run of consecutive same-named sibling spans rendered in
        full; longer runs are elided to head + aggregate + last.
    """
    from repro.analysis.tables import render_table

    if not tracer.roots:
        return "(no spans recorded)"
    rows: List[Sequence] = []
    for root in tracer.roots:
        # The run's total is the deepest ancestor that carries cycles —
        # usually the scheme span right under the framework root.
        total = root.cycles
        if not total:
            total = sum(c.cycles for c in root.children)
        _span_rows(root, rows, total, max_run)
    return render_table(
        ["span", "cycle_start", "cycle_end", "cycles", "share", "detail"],
        rows,
        title=title,
    )

