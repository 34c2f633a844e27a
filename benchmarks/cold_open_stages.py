"""Per-stage ms of a cold open, and its full-table hashes and training walks.

    PYTHONPATH=src python3 benchmarks/cold_open_stages.py [--members 1,2,3,4,10] [--repeat 5]

A cold open is ``PlanCache.get_or_compile`` on a first sighting (the
cache canonicalizes, then ``compile_plan`` runs its ``COMPILE_STAGES``)
followed by ``GSpecPal.from_plan``.  Each open starts from a fresh
``PlanCache`` and a freshly constructed DFA, so no digest or plan carries
over.  One instrumented open per member counts the SHA-256 passes over
the submitted table (every ``hashlib.sha256`` update whose bytes equal
the table's) and the ``DFA.run_path`` walks of the training slice; the
script exits 1 if either count exceeds one.  Times are from the fastest
of ``--repeat`` uninstrumented opens: *canonicalize* is the cache's own
``canonical_form`` call, the stage columns are the plan's
``stage_timings_ms`` and *from_plan* serves the finished plan.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import time

import repro.serving.cache as cache_module
from repro.automata.dfa import DFA
from repro.framework import GSpecPal, GSpecPalConfig
from repro.plan.compile import COMPILE_STAGES
from repro.serving import PlanCache
from repro.workloads.suites import build_member


def _cold_open(dfa, training, config):
    """One cold open: (cache canonicalize ms, plan, from_plan ms)."""
    canonical_ms = []
    canonical_form = cache_module.canonical_form

    def timed(form_of):
        t0 = time.perf_counter()
        out = canonical_form(form_of)
        canonical_ms.append((time.perf_counter() - t0) * 1e3)
        return out

    cache_module.canonical_form = timed
    try:
        plan = PlanCache(config=config).get_or_compile(dfa, training, config)
    finally:
        cache_module.canonical_form = canonical_form
    t0 = time.perf_counter()
    GSpecPal.from_plan(plan)
    return sum(canonical_ms), plan, (time.perf_counter() - t0) * 1e3


def _count_passes(dfa, training, config):
    """(SHA-256 passes over ``dfa.table``, ``run_path`` walks of ``training``)
    made by one cold open."""
    table_bytes = dfa.table.tobytes()
    counts = {"hashes": 0, "walks": 0}
    real_sha256, real_run_path = hashlib.sha256, DFA.run_path

    class Tap:
        def __init__(self, digest):
            self.digest = digest

        def update(self, data):
            if memoryview(data).tobytes() == table_bytes:
                counts["hashes"] += 1
            self.digest.update(data)

        def hexdigest(self):
            return self.digest.hexdigest()

    def run_path(self, data, start=None):
        path = real_run_path(self, data, start=start)
        if path.size == len(training) + 1:
            counts["walks"] += 1
        return path

    hashlib.sha256 = lambda *args: Tap(real_sha256(*args))
    DFA.run_path = run_path
    try:
        _cold_open(dfa, training, config)
    finally:
        hashlib.sha256, DFA.run_path = real_sha256, real_run_path
    return counts["hashes"], counts["walks"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--members", default="1,2,3,4,10")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    config = GSpecPalConfig(selfcheck=False)

    columns = ("canonicalize (cache)",) + COMPILE_STAGES + ("from_plan", "total")
    print(
        "| member | states | "
        + " | ".join(f"{c} ms" for c in columns)
        + " | table hashes | training walks |"
    )
    print("| --- |" + " ---: |" * (len(columns) + 3))
    status = 0
    for index in (int(i) for i in args.members.split(",")):
        member = build_member("poweren", index)
        training = member.training_input()
        hashes, walks = _count_passes(dataclasses.replace(member.dfa), training, config)
        if hashes > 1 or walks > 1:
            print(
                f"poweren{index}: {hashes} table hashes and {walks} training walks "
                "in one cold open (at most one each)",
                file=sys.stderr,
            )
            status = 1
        best = None
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            canonical_ms, plan, from_plan_ms = _cold_open(
                dataclasses.replace(member.dfa), training, config
            )
            total = (time.perf_counter() - t0) * 1e3
            if best is None or total < best[-1]:
                stages = [plan.stage_timings_ms[s] for s in COMPILE_STAGES]
                best = [canonical_ms, *stages, from_plan_ms, total]
        print(
            f"| poweren{index} | {member.dfa.n_states} | "
            + " | ".join(f"{ms:.1f}" for ms in best)
            + f" | {hashes} | {walks} |"
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
