#!/usr/bin/env python
"""Cross-process plan round-trip check (CI acceptance gate).

Phase 1 (``compile``): compile a suite member's plan and write it to disk,
alongside the reference answers that freshly compiled plan serves in this
process (scheme, end state, accepts, and the sim backend's cycle figure).

Phase 2 (``serve``): in a *fresh* process, reload the plan, serve it via
``GSpecPal.from_plan`` on both backends, and cross-check against the
recorded reference — proving the artifact carries everything the online
phase needs and nothing drifted through serialization.

Usage (what CI runs)::

    python scripts/check_plan_roundtrip.py compile /tmp/plan-check
    python scripts/check_plan_roundtrip.py serve   /tmp/plan-check
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from repro.framework import GSpecPal, GSpecPalConfig
from repro.observability import Tracer
from repro.plan import compile_plan, load_plan, save_plan
from repro.workloads.suites import build_member

MEMBERS = (("snort", 1), ("poweren", 3))
INPUT_LENGTH = 8_192
TRAINING_LENGTH = 2_048
N_THREADS = 64
BACKENDS = ("sim", "fast")


def _setup(suite: str, index: int):
    member = build_member(suite, index)
    training = member.training_input(TRAINING_LENGTH)
    data = member.generate_input(INPUT_LENGTH, seed=0)
    return member, training, data


def do_compile(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for suite, index in MEMBERS:
        member, training, data = _setup(suite, index)
        config = GSpecPalConfig(n_threads=N_THREADS)
        plan = compile_plan(member.dfa, training, config)
        path = save_plan(plan, out_dir / f"{suite}{index}.npz")
        reference = {}
        for backend in BACKENDS:
            pal = GSpecPal.from_plan(plan, backend=backend)
            result = pal.run(data)
            reference[backend] = {
                "scheme": result.scheme,
                "end_state": int(result.end_state),
                "accepts": bool(result.accepts),
                "cycles": None if math.isnan(result.cycles) else result.cycles,
            }
        manifest[f"{suite}{index}"] = {
            "plan": path.name,
            "fingerprint": plan.fingerprint,
            "selected": plan.scheme,
            "reference": reference,
        }
        print(f"compiled {suite}{index}: scheme={plan.scheme} "
              f"fingerprint={plan.fingerprint[:12]}…")
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return 0


def do_serve(out_dir: Path) -> int:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    failures = []
    for (suite, index) in MEMBERS:
        key = f"{suite}{index}"
        entry = manifest[key]
        member, _, data = _setup(suite, index)
        plan = load_plan(out_dir / entry["plan"])
        plan.verify(member.dfa)
        if plan.fingerprint != entry["fingerprint"]:
            failures.append(f"{key}: fingerprint drifted through serialization")
            continue
        for backend in BACKENDS:
            tracer = Tracer()
            pal = GSpecPal.from_plan(plan, backend=backend, tracer=tracer)
            result = pal.run(data)
            spans = [s.name for s in tracer.iter_spans()]
            ref = entry["reference"][backend]
            checks = {
                "no profile span": "profile" not in spans,
                "scheme": result.scheme == ref["scheme"],
                "end_state": int(result.end_state) == ref["end_state"],
                "accepts": bool(result.accepts) == ref["accepts"],
            }
            if ref["cycles"] is not None:
                checks["cycles"] = result.cycles == ref["cycles"]
            bad = [name for name, ok in checks.items() if not ok]
            if bad:
                failures.append(f"{key}/{backend}: mismatch on {', '.join(bad)}")
            else:
                print(f"served {key}/{backend}: OK "
                      f"(scheme={result.scheme}, end_state={result.end_state})")
    if failures:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        return 1
    print("plan round-trip: all cross-process checks passed")
    return 0


def main(argv) -> int:
    if len(argv) != 3 or argv[1] not in ("compile", "serve"):
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[2])
    return do_compile(out_dir) if argv[1] == "compile" else do_serve(out_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
