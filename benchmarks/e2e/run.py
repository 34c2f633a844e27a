#!/usr/bin/env python3
"""End-to-end benchmark of the serving stack: one command per workload.

    python3 benchmarks/e2e/run.py --workload gw_small_feeds [--seed N] [--trace 1]

drives the real GatewayServer → MatcherPool → PlanCache/compile_plan →
StreamSession → scheme → engine/gpu stack over a localhost socket with the
repo's own GatewayClient, audits every answer against ``DFA.run`` and
prints one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``) as the last line.  ``--trace 0`` gives the end-to-end
metrics, ``--trace 1`` the per-layer ones; both sets are declared in
``BENCHMARK.json``.

Each run is a fresh interpreter (``harness.py``) started with a hermetic
environment, so nothing — disk caches, backend or selfcheck switches,
hash seeds, another workload's peak RSS — leaks in.

    --repeat N   N runs on seeds seed..seed+N-1; per end-to-end metric the
                 median, quartiles, quartile distance ÷ median and the shift
                 between the medians of the two halves, checked against the
                 metric's bound (non-zero exit when one is exceeded)
    --quick      all four workloads at smoke scale, untraced and traced,
                 checking that every declared metric is emitted
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: One run must end within the driver's 180 s; leave room to report.
RUN_TIMEOUT_S = 170


def hermetic_env() -> dict:
    """The child's environment: this checkout's ``repro``, nothing cached."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR="0",  # suite scanners are rebuilt, never read from ~/.cache
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_once(workload: str, seed: int, trace: int, seconds=None, rounds=None):
    """One fresh-interpreter run; returns (exit code, result or None)."""
    command = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if rounds is not None:
        command += ["--rounds", str(rounds)]
    try:
        done = subprocess.run(command, env=hermetic_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"{workload}: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = done.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None and done.returncode == 0:
        return 1, None
    return done.returncode, result


def spread_report(spec: dict, workload: str, results: list) -> bool:
    """Print per-metric spread and half-to-half shift; True when in bounds."""
    ok = True
    print(f"{workload}: {len(results)} runs")
    names = [m["name"] for m in spec["end_to_end"]]
    print("  " + " ".join(f"{name[:14]:>14}" for name in names))
    for result in results:
        print("  " + " ".join(f"{result['metrics'][n]['value']:14.5g}" for n in names))
    print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'shift':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        half = len(values) // 2
        first, second = statistics.median(values[:half]), statistics.median(values[half:])
        shift = (second - first) / first
        worse = shift if metric["better"] == "lower" else -shift
        # setup_s is exempt from the spread rule, as in the driver.
        bad = worse > bound or (spread > bound and name != "setup_s")
        ok &= not bad
        print(f"  {name:24} {median:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.4f} {shift:+8.4f} {bound:6.2f}{'  <-- out of bound' if bad else ''}")
    return ok


def repeat(spec: dict, args) -> int:
    results = []
    for seed in range(args.seed, args.seed + args.repeat):
        code, result = run_once(args.workload, seed, 0, args.seconds, args.rounds)
        if code != 0 or result is None:
            print(f"seed {seed}: run failed (exit {code})", file=sys.stderr)
            return code or 1
        results.append(result)
    in_bounds = spread_report(spec, args.workload, results)
    return 0 if in_bounds else 1


#: |harness.tiling_gap_ms| a smoke run may show: spans of one request must
#: add up to its root to within clock resolution.
TILING_EPSILON_MS = 0.01


def smoke(spec: dict, workload: str) -> list:
    """One workload at smoke scale, untraced and traced; returns problems.

    Checks that both runs emit exactly the declared names and units with
    no failed audit, that spans tile their roots, and that the traced
    run's cycle phases add up to the untraced run's
    ``sim_cycles_per_symbol`` — two interpreters, one seed, one figure.
    """
    problems, metrics = [], {}
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        code, result = run_once(workload, 0, trace, seconds=1, rounds=1)
        if code != 0 or result is None:
            problems.append(f"trace={trace}: exit {code}")
            continue
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(f"trace={trace}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got.items()) ^ set(want.items()))}")
        if result["failed"] or not result["correct"]:
            problems.append(f"trace={trace}: {result['failed']} of "
                            f"{result['attempted']} checks failed")
        metrics.update({k: v["value"] for k, v in result["metrics"].items()})
    if not problems:
        if abs(metrics["harness.tiling_gap_ms"]) > TILING_EPSILON_MS:
            problems.append(f"spans do not tile: gap {metrics['harness.tiling_gap_ms']} ms")
        phases = sum(v for k, v in metrics.items() if k.startswith("gpu.cycles."))
        if abs(phases - metrics["sim_cycles_per_symbol"]) > 1e-9 * phases:
            problems.append(f"sim_cycles_per_symbol {metrics['sim_cycles_per_symbol']} "
                            f"!= sum of traced phases {phases}")
    return problems


def quick(spec: dict) -> int:
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        problems = smoke(spec, workload)
        print(f"{workload}: {'; '.join(problems) or 'ok'}")
        status |= bool(problems)
    return status


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("run.py: no src/repro next to benchmarks/: nothing to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"size of the run (default {spec['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    if args.quick:
        return quick(spec)
    if args.workload is None:
        parser.error("--workload is required (or --quick)")
    if args.repeat:
        return repeat(spec, args)
    code, result = run_once(args.workload, args.seed, args.trace, args.seconds, args.rounds)
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
