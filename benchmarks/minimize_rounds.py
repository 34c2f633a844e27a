"""Refinement rounds × ms per round of ``minimize_dfa`` on PowerEN members.

    PYTHONPATH=src python3 benchmarks/minimize_rounds.py [--members 1,2,3,4,10] [--repeat 5]

The question before any work on minimization itself: is a
``canonical_form`` expensive because it runs many refinement rounds, or
because each round is wide?  ``repro.automata.minimize`` is measured as
shipped.  Rounds are counted by one instrumented call that routes the
module's ``group_rows`` — called once per round on the signature rows,
and once by the column pass, which is not counted — through a counter,
which also times it.  A member with more than one reachable state that
shows no round means the counter no longer sees the loop: the script then
exits 1.  Times are the best of ``--repeat``
uninstrumented calls, split at the module's own helpers: *setup* is
reachability plus the distinct column pass, *renumber* is the final BFS
renumbering, and *refine* is the rest (the round loop and the quotient).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

import repro.automata.minimize as minimize
from repro.workloads.suites import build_member


def _count_rounds(dfa):
    """Per round of the refinement loop: the dirty-frontier width and the
    ms its signature grouping took."""
    widths, group_ms = [], []
    group_rows, columns = minimize.group_rows, minimize._distinct_columns

    def counted(rows):
        t0 = time.perf_counter()
        out = group_rows(rows)
        group_ms.append((time.perf_counter() - t0) * 1e3)
        widths.append(int(rows.shape[0]))
        return out

    def uncounted(table):  # the column pass groups too, but is not a round
        minimize.group_rows = group_rows
        try:
            return columns(table)
        finally:
            minimize.group_rows = counted

    minimize.group_rows, minimize._distinct_columns = counted, uncounted
    try:
        minimize.minimize_dfa(dfa)
    finally:
        minimize.group_rows, minimize._distinct_columns = group_rows, columns
    return widths, group_ms


def _timed(dfa):
    """Wall-clock ms of one call: (total, setup, renumber)."""
    marks = {}
    columns, renumber = minimize._distinct_columns, minimize._bfs_renumber

    def distinct(table):
        out = columns(table)
        marks["setup"] = time.perf_counter()
        return out

    def bfs(quotient):
        marks["renumber"] = time.perf_counter()
        return renumber(quotient)

    minimize._distinct_columns, minimize._bfs_renumber = distinct, bfs
    try:
        t0 = time.perf_counter()
        minimize.minimize_dfa(dfa)
        t1 = time.perf_counter()
    finally:
        minimize._distinct_columns, minimize._bfs_renumber = columns, renumber
    return (
        (t1 - t0) * 1e3,
        (marks["setup"] - t0) * 1e3,
        (t1 - marks["renumber"]) * 1e3,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--members", default="1,2,3,4,10")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)

    print(
        "| member | states | reachable | minimal | rounds | mean / max frontier | "
        "total ms | setup ms | refine ms | renumber ms | refine ms / round | "
        "signature grouping ms / round |"
    )
    print("| --- |" + " ---: |" * 11)
    status = 0
    for index in (int(i) for i in args.members.split(",")):
        dfa = build_member("poweren", index).dfa
        widths, group_ms = _count_rounds(dfa)
        reachable = minimize._restrict_to_reachable(dfa).n_states
        if not widths:
            if reachable > 1:
                print(f"poweren{index}: no refinement round counted", file=sys.stderr)
                status = 1
            continue
        minimal = minimize.minimize_dfa(dfa).n_states
        total, setup, renumber = min(_timed(dfa) for _ in range(args.repeat))
        refine = total - setup - renumber
        print(
            f"| poweren{index} | {dfa.n_states} | {reachable} | {minimal} | "
            f"{len(widths)} | {np.mean(widths):.0f} / {max(widths)} | {total:.1f} | "
            f"{setup:.1f} | {refine:.1f} | {renumber:.1f} | "
            f"{refine / len(widths):.2f} | {np.mean(group_ms):.2f} |"
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
