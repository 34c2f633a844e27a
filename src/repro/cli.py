"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``run``      — execute one scheme (or the auto-selected one) on a suite
               member and print the cost breakdown; ``--plan`` serves from
               a precompiled artifact (zero profiling), ``--plan-cache``
               keeps compiled plans in a directory across invocations.
``compare``  — race the selector's five schemes on one member (same plan
               flags; needs the cycle-accounting ``sim`` backend).
``compile``  — run the offline phase once and write the immutable plan
               artifact (``repro compile snort 8 -o plan.npz``).
``profile``  — print a member's feature vector and the selector's reasoning.
``suite``    — list a suite's members and their regimes.
``trace``    — run a member with tracing on and print ``run``'s result
               plus the per-phase span timeline, the warp-step counts and
               the table layout; ``--jsonl`` exports the spans for
               external tooling.
``fuzz``     — differential fuzzing: random DFAs × schemes × backends ×
               streaming cross-checked against the sequential oracle with
               runtime invariant audits on; failures are shrunk and saved
               as JSON repros (``--replay`` re-runs one).
``serve``    — run the TCP gateway over one shared serving pool.
``scenario`` — drive a seeded traffic scenario (a builtin or a YAML/JSON
               document) through the gateway over real sockets, audited
               against the sequential oracle; the serving soaks are the
               builtins ``soak`` / ``soak-fused`` / ``equivalent-mix`` /
               ``drift`` (exactly one compile per language class, nothing
               leaked, no lost or incorrect stream states).

Examples
--------
::

    python -m repro.cli suite snort
    python -m repro.cli profile snort 8
    python -m repro.cli compile snort 8 -o snort8.npz
    python -m repro.cli run snort 8 --plan snort8.npz
    python -m repro.cli run snort 8 --scheme nf --input-length 65536
    python -m repro.cli compare poweren 4 --threads 256
    python -m repro.cli trace snort 1 --input-length 4096 --threads 32
    python -m repro.cli fuzz --iterations 200 --seed 42 --out fuzz-repros
    python -m repro.cli scenario soak --backend fast
    python -m repro.cli scenario equivalent-mix --spill-dir stress-spill
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.tables import render_table
from repro.engine import BACKEND_NAMES, resolve_backend_name
from repro.errors import ReproError, ScenarioError, SelfCheckError
from repro.framework import GSpecPal, GSpecPalConfig
from repro.selector import profile_features
from repro.selector.decision_tree import DecisionTreeSelector
from repro.selfcheck.fuzz import FUZZ_SCHEMES
from repro.workloads.suites import REGIME_LAYOUT, SUITES, build_member

#: The arguments that pick and run a suite member.  Each command takes a
#: prefix of them: ``suite`` one, ``profile`` three, ``compile`` four, and
#: ``run`` / ``trace`` / ``compare`` all six.
_MEMBER_ARGS = (
    ("suite", dict(choices=SUITES)),
    ("index", dict(type=int, help="member index 1..12")),
    ("--training-length", dict(type=int, default=8_192)),
    ("--threads", dict(type=int, default=256)),
    ("--input-length", dict(type=int, default=65_536)),
    ("--seed", dict(type=int, default=0)),
)


def _add_member_args(p: argparse.ArgumentParser, depth: int = 6) -> None:
    for name, kwargs in _MEMBER_ARGS[:depth]:
        p.add_argument(name, **kwargs)


def _add_backend(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="execution backend: 'sim' = cycle-accurate simulation, "
        "'fast' = answer-only serving path with no cycle ledger "
        "(default: $REPRO_BACKEND, else sim; for 'scenario', the "
        "document's own backend first)",
    )


def _add_scheme(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scheme",
        choices=GSpecPal.KNOWN_SCHEMES,
        default=None,
        help="force a scheme (default: selector's pick)",
    )


def _add_plan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--plan",
        default=None,
        metavar="PATH",
        help="serve from a precompiled plan artifact (see 'compile'); "
        "skips all profiling and uses the plan's compiled selection",
    )
    p.add_argument(
        "--plan-cache",
        default=None,
        metavar="DIR",
        dest="plan_cache",
        help="directory of cached plans keyed by FSM fingerprint; hit = "
        "zero profiling, miss = compile once and persist for next time",
    )


def _resolve_plan(args, member, tracer=None):
    """The plan to serve from: ``--plan``, else ``--plan-cache``, else
    compiled here from the member's training input."""
    plan_path = getattr(args, "plan", None)
    cache_dir = getattr(args, "plan_cache", None)
    if plan_path is not None:
        from repro.plan import load_plan

        plan = load_plan(plan_path)
        # A plan only serves the automaton it was compiled for.
        plan.verify(member.dfa)
        return plan
    training = member.training_input(args.training_length)
    config = GSpecPalConfig(n_threads=args.threads)
    if cache_dir is not None:
        from repro.serving import PlanCache

        return PlanCache(directory=cache_dir).get_or_compile(
            member.dfa, training, config
        )
    from repro.plan import compile_plan

    return compile_plan(member.dfa, training, config, tracer=tracer)


def _build(args, tracer=None):
    member = build_member(args.suite, args.index)
    data = member.generate_input(args.input_length, seed=args.seed)
    pal = GSpecPal.from_plan(
        _resolve_plan(args, member, tracer),
        backend=getattr(args, "backend", None),
        tracer=tracer,
    )
    return member, pal, data


def cmd_suite(args) -> int:
    rows = [
        [i + 1, regime] for i, regime in enumerate(REGIME_LAYOUT[args.suite])
    ]
    print(render_table(["index", "regime"], rows, title=f"suite {args.suite}"))
    return 0


def cmd_profile(args) -> int:
    member = build_member(args.suite, args.index)
    features = profile_features(
        member.dfa, member.training_input(args.training_length)
    )
    for key, value in features.as_dict().items():
        print(f"{key:22s} {value}")
    print()
    print(DecisionTreeSelector().explain(features))
    return 0


def _render_timeline(samples, max_rows: int = 16) -> str:
    """ASCII bar timeline of active threads per recovery round."""
    from repro.analysis.tables import render_bars

    if not samples:
        return "(no recovery rounds)"
    idx = range(len(samples))
    if len(samples) > max_rows:
        # Downsample evenly, keeping first and last rounds.
        import numpy as np

        idx = np.linspace(0, len(samples) - 1, max_rows).astype(int)
    labels = [f"round {i}" for i in idx]
    values = [float(samples[i]) for i in idx]
    return render_bars(labels, values, width=30, unit=" threads")


def _print_result(member, pal, result, *, detail=False, timeline=False) -> None:
    """The run's ledger, shared by ``run`` and ``trace``.  ``detail`` (the
    ``trace`` view) adds the warp-step counts and the sim backend's layout.
    The memory, warp-step and layout lines are measurements only on a
    backend that accounts cycles; an answer-only one prints ``n/a``."""
    sim = pal._simulator()
    stats = result.stats
    print(f"member   : {member.name} ({member.dfa.n_states} states)")
    print(f"scheme   : {result.scheme}")
    print(f"backend  : {sim.backend}"
          + ("" if sim.engine.accounts_cycles
             else "  (answer-only: cycle figures exclude execution)"))
    print(f"accepts  : {result.accepts}")
    print(f"kernel   : {result.time_ms:.3f} ms ({result.cycles:.0f} cycles)")
    print(f"accuracy : {stats.runtime_speculation_accuracy:.1%}")
    print(f"recovery : {stats.recovery_rounds} rounds, "
          f"{stats.avg_active_threads:.1f} avg active threads")
    if not sim.engine.accounts_cycles:
        print("memory   : n/a (answer-only backend)")
        if detail:
            print("layout   : n/a (answer-only backend)")
    else:
        print(f"memory   : {stats.hot_access_fraction:.1%} shared-memory hits")
        if detail:
            memory = sim.engine.memory
            print(f"warps    : {stats.warp_steps} warp_steps, "
                  f"{stats.divergent_warp_steps} divergent_warp_steps")
            print(f"layout   : {memory.layout.value}, "
                  f"{memory.hot_state_count} hot states")
    print("phases   :")
    for phase, cycles in sorted(stats.phase_cycles.items(), key=lambda kv: -kv[1]):
        print(f"  {phase:24s} {cycles:14.0f} cycles")
    if timeline:
        print("recovery-round activity:")
        print(_render_timeline(stats.active_thread_samples))


def cmd_run(args) -> int:
    member, pal, data = _build(args)
    result = pal.run(data, scheme=args.scheme)
    _print_result(member, pal, result, timeline=args.timeline)
    return 0


def cmd_trace(args) -> int:
    from repro.observability import Tracer, render_timeline

    tracer = Tracer()
    member, pal, data = _build(args, tracer=tracer)
    result = pal.run(data, scheme=args.scheme)
    _print_result(member, pal, result, detail=True)
    print()
    print(render_timeline(tracer, title=f"{member.name}: phase timeline"))
    if args.jsonl:
        path = Path(args.jsonl)
        path.write_text(tracer.to_jsonl())
        print(f"\nwrote {len(tracer.to_dicts())} spans to {path}")
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import build_report

    report = build_report()
    if args.output:
        Path(args.output).write_text(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def cmd_compile(args) -> int:
    from repro.plan import save_plan
    from repro.plan.compile import COMPILE_STAGES

    plan = _resolve_plan(args, build_member(args.suite, args.index))
    path = save_plan(plan, args.output)
    print(plan.summary())
    if args.stats:
        total = sum(plan.stage_timings_ms.values())
        print("\ncompile stages:")
        for name in COMPILE_STAGES:
            ms = plan.stage_timings_ms.get(name, 0.0)
            share = (ms / total * 100.0) if total > 0 else 0.0
            print(f"  {name:12s} {ms:9.3f} ms  ({share:5.1f}%)")
        print(f"  {'total':12s} {total:9.3f} ms")
        print(f"content fingerprint  : {plan.fingerprint}")
        print(f"canonical fingerprint: {plan.canonical_fingerprint}")
    print(f"\nwrote {path}")
    return 0


def cmd_fuzz(args) -> int:
    from repro.selfcheck.fuzz import replay, run_fuzz

    if args.replay:
        message = replay(args.replay)
        if message is None:
            print(f"repro {args.replay}: no longer fails")
            return 0
        print(f"repro {args.replay}: still fails\n  {message}")
        return 1
    path = run_fuzz(
        iterations=args.iterations,
        seed=args.seed,
        out_dir=args.out,
        schemes=tuple(args.schemes.split(",")),
        backends=tuple(args.backends.split(",")),
        log=print,
    )
    if path is not None:
        print(f"FAIL: shrunk repro at {path}")
        return 1
    print("PASS")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.gateway import GatewayServer
    from repro.serving import MatcherPool, PlanCache

    config = GSpecPalConfig(n_threads=args.threads)
    pool = MatcherPool(
        PlanCache(capacity=args.capacity, config=config),
        config=config,
        backend=args.backend,
        max_streams=args.max_streams,
        open_timeout=args.open_timeout,
        fused=args.fused,
    )
    server = GatewayServer(pool, host=args.host, port=args.port, log=print)

    async def serve() -> None:
        await server.start()
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_scenario(args) -> int:
    from repro.scenarios import (
        BUILTIN_SCENARIOS,
        builtin_scenario,
        load_scenario,
        run_scenario,
    )

    if args.list:
        for name, doc in BUILTIN_SCENARIOS.items():
            print(f"{name:12s} {doc.get('label', '')}")
        return 0
    if args.scenario is None:
        raise ScenarioError("a scenario name or file is required (or --list)")
    if args.scenario in BUILTIN_SCENARIOS:
        scenario = builtin_scenario(args.scenario)
    else:
        scenario = load_scenario(args.scenario)
    overrides = {"backend": args.backend, "seed": args.seed}
    scenario = scenario.replace(
        **{key: value for key, value in overrides.items() if value is not None}
    )
    report = run_scenario(
        scenario,
        host=args.host,
        port=args.port,
        out_path=args.out,
        spill_dir=args.spill_dir,
        log=print,
    )
    return 0 if report.ok else 1


def cmd_compare(args) -> int:
    if resolve_backend_name(args.backend) != "sim":
        # An answer-only backend counts no execution cycles, so a ranking
        # would sort schemes on their scheme-side charges alone.
        raise ReproError(
            "compare ranks schemes by modelled cycles, which only "
            "the 'sim' backend counts; rerun with --backend sim"
        )
    member, pal, data = _build(args)
    results = pal.compare_schemes(data)
    selected = pal.select_scheme()
    base = results["pm"].cycles
    rows = [
        [
            name + (" *" if name == selected else ""),
            res.cycles,
            res.time_ms,
            base / res.cycles,
            res.stats.recovery_rounds,
            res.stats.avg_active_threads,
        ]
        for name, res in sorted(results.items(), key=lambda kv: kv[1].cycles)
    ]
    print(
        render_table(
            ["scheme", "cycles", "ms", "speedup/pm", "rounds", "active"],
            rows,
            title=f"{member.name}: scheme comparison (* = selector's pick)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.cli", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="list a suite's members")
    _add_member_args(p, depth=1)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("profile", help="profile a member and explain selection")
    _add_member_args(p, depth=3)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("run", help="run one scheme on a member")
    _add_member_args(p)
    _add_backend(p)
    _add_scheme(p)
    p.add_argument(
        "--timeline",
        action="store_true",
        help="show per-recovery-round thread activity",
    )
    _add_plan_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "compile",
        help="compile a member's offline phase into a reusable plan artifact",
    )
    _add_member_args(p, depth=4)
    p.add_argument(
        "-o",
        "--output",
        required=True,
        metavar="PATH",
        help="where to write the plan (.npz)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print per-stage compile timings and both plan fingerprints",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "trace", help="run a member with tracing and print the span timeline"
    )
    _add_member_args(p)
    _add_backend(p)
    _add_scheme(p)
    p.add_argument(
        "--jsonl",
        default=None,
        metavar="PATH",
        help="also export the spans as JSON lines",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("report", help="assemble the experiment report")
    p.add_argument("--output", default=None, help="write to a file")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compare", help="race all schemes on a member")
    _add_member_args(p)
    _add_backend(p)
    _add_plan_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing against the sequential oracle",
    )
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out",
        default="fuzz-repros",
        help="directory shrunk failure repros are written to",
    )
    p.add_argument(
        "--schemes",
        default=",".join(FUZZ_SCHEMES),
        help="comma-separated scheme pool",
    )
    p.add_argument(
        "--backends", default="sim,fast", help="comma-separated backend pool"
    )
    p.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="re-run one saved repro instead of fuzzing",
    )
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the TCP gateway over a shared serving pool",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=7770, help="0 picks a free port"
    )
    _add_backend(p)
    p.add_argument("--threads", type=int, default=8, help="lanes per matcher")
    p.add_argument("--max-streams", type=int, default=64)
    p.add_argument(
        "--open-timeout",
        type=float,
        default=None,
        help="seconds an open waits for a slot before a capacity reject "
        "(default: reject immediately)",
    )
    p.add_argument("--capacity", type=int, default=16, help="plan-cache size")
    p.add_argument(
        "--fused",
        action="store_true",
        help="gang-schedule same-fingerprint feeds into fused batches",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "scenario",
        help="drive a seeded traffic scenario through the gateway",
    )
    p.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="builtin name (see --list) or a YAML/JSON scenario file",
    )
    p.add_argument(
        "--list", action="store_true", help="list builtin scenarios"
    )
    p.add_argument(
        "--host",
        default=None,
        help="target an already-running gateway instead of an embedded "
        "one (needs --port too)",
    )
    p.add_argument("--port", type=int, default=None)
    _add_backend(p)
    p.add_argument(
        "--seed", type=int, default=None, help="override the scenario's seed"
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="JSONL",
        help="write one JSON line per request",
    )
    p.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="plan-cache spill directory of the embedded gateway "
        "(audited: one plan file per language class)",
    )
    p.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    """Run one command.  Bad user input -- any :class:`ReproError` -- is
    one ``error:`` line on stderr and exit status 2; a failed selfcheck
    audit is a bug, so it keeps its traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SelfCheckError:
        raise
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
