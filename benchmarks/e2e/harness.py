"""One workload run: fresh interpreter, pinned, rounds of set-up → trials.

Started by ``run.py`` with a hermetic environment; prints the result
object (``correct`` / ``attempted`` / ``failed`` / ``metrics``) as the
last line of standard output.  The README explains the run shape and the
estimators; the short version:

* everything that depends on the seed is generated before any clock
  starts, and a trial is a fixed list of operations, never a time window;
* a calibration kernel is read before and after every set-up and trial
  and every wall-clock reading is divided by ``reading / CALIB_REF_S`` of
  its own section, so timed metrics are at reference host speed;
* every estimator is a median over the trials of all rounds (latencies:
  per-trial nearest-rank percentile first; the p90 takes the lower
  quartile over trials instead).
"""

from __future__ import annotations

import argparse
import asyncio
import base64
import gc
import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from time import perf_counter
from typing import Dict, List

import numpy as np

import layers
import replay as sim_replay
import tracing
from repro.errors import ServingError
from repro.gateway import GatewayClient, GatewayServer
from repro.observability import MetricsRegistry
from repro.serving import MatcherPool, PlanCache
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: What one calibration reading takes on the box the bounds were set on.
#: (The issue put this constant in BENCHMARK.json; that file's key set is
#: fixed by the driver's contract, so it lives here.)
CALIB_REF_S = 0.0060

#: Trial kinds of a traced run, by global trial index.
TRACED_MODES = ("traced", "plain", "traced", "unpinned")


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ≥ p of them at or
    below it — always a latency that was measured, never a blend of two
    modes."""
    ordered = sorted(values)
    return ordered[max(0, ceil(p * len(ordered)) - 1)]


def set_affinity(cpus) -> None:
    """Pin (or unpin) every thread of this process, not just the caller."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:
            pass  # thread exited while we iterated


class Calibration:
    """A fixed ~7 ms kernel of the work the stack does: interpreter loops,
    JSON and base64 codecs, small-array gathers.  A reading is the median
    of three runs, so one preemption does not move it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(1)
        self._flat = rng.integers(0, 256, size=256 * 256)
        self._syms = rng.integers(0, 256, size=(64, 1500))
        self._blob = bytes(rng.integers(0, 256, size=40 * 1024).astype(np.uint8))
        self._doc = {
            "op": "feed_many",
            "feeds": [
                {"stream": i, "segment_b64": "QUJD" * 24, "row": list(range(48))}
                for i in range(36)
            ],
        }
        self.readings: List[float] = []

    def _kernel(self) -> int:
        acc = 0
        seen: Dict[int, int] = {}
        for i in range(27000):
            seen[i & 255] = acc
            acc = (acc * 31 + i) & 0xFFFF
        for _ in range(5):
            json.loads(json.dumps(self._doc, separators=(",", ":")))
            base64.b64decode(base64.b64encode(self._blob))
        states = np.arange(64)
        flat, syms = self._flat, self._syms
        for j in range(syms.shape[1]):
            states = flat[states * 256 + syms[:, j]]
        return acc + int(states[0])

    def read(self) -> float:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        reading = sorted(times)[1]
        self.readings.append(reading)
        return reading


@dataclass
class Section:
    """One set-up or one trial, run as slices between calibration readings.

    Each slice's wall-clock and latencies are divided by that slice's own
    host-speed factor (calibration reading ÷ reference) as they are
    absorbed, so everything kept here is at reference host speed.
    """

    round: int
    trial: object  # trial index, or "setup" / "teardown"
    mode: str  # "plain", "traced" or "unpinned"
    wall_s: float = 0.0
    norm_s: float = 0.0
    speeds: List[float] = field(default_factory=list)
    log: list = field(default_factory=list)  # (op, normalised latency ms, reply-or-error)

    def absorb(self, slice_log: list, wall_s: float, speed: float) -> None:
        self.wall_s += wall_s
        self.norm_s += wall_s / speed
        self.speeds.append(speed)
        self.log.extend((op, lat / speed * 1e3, reply) for op, lat, reply in slice_log)

    @property
    def symbols(self) -> int:
        return sum(op.symbols for op, _, _ in self.log)

    def latencies_ms(self, verb: str) -> List[float]:
        return [ms for op, ms, _ in self.log if op.verb == verb]


class Audit:
    """Counts checks made and checks failed; remembers the first few."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 10:
                self.examples.append(what)

    def reply(self, op, reply) -> None:
        """One wire reply against the oracle's answer for that op."""
        if isinstance(reply, Exception):
            self.check(False, f"{op.verb} raised {reply!r}")
        elif op.verb == "feed":
            got = (reply["end_state"], reply["accepts"], reply["symbols"])
            self.check(got == (*op.expect, len(op.segment)), f"feed {got} != {op.expect}")
        elif op.verb == "feed_many":
            self.check(len(reply) == len(op.feeds), "feed_many outcome count")
            for outcome, want, (_, segment) in zip(reply, op.expect, op.feeds):
                got = (outcome["ok"], outcome["end_state"], outcome["accepts"],
                       outcome["symbols"], outcome["fused"])
                self.check(
                    got == (True, *want, len(segment), True),
                    f"feed_many outcome {got} != {want} fused",
                )
        elif op.verb == "close":
            got = (reply["end_state"], reply["accepts"], reply["segments"],
                   reply["total_symbols"])
            self.check(got == op.expect, f"close {got} != {op.expect}")
        else:  # open, stats: answered without error
            self.check(True, op.verb)


# ----------------------------------------------------------------------
# driving the gateway
# ----------------------------------------------------------------------
async def _call(client, op, slots, tenants):
    verb = op.verb
    if verb == "feed":
        return await client.feed(slots[op.slot], op.segment)
    if verb == "feed_many":
        return await client.feed_many([(slots[s], seg) for s, seg in op.feeds])
    if verb == "open":
        tenant = tenants[op.tenant]
        slots[op.slot] = await client.open(tenant.dfa, training=tenant.training)
        return slots[op.slot]
    if verb == "close":
        return await client.close_stream(slots.pop(op.slot))
    return await client.stats()


async def run_ops(client, conn, ops, slots, tenants, recorder, log) -> None:
    """Closed loop on one connection: next request after the last reply."""
    for op in ops:
        t0 = perf_counter()
        try:
            if recorder is None:
                reply = await _call(client, op, slots, tenants)
            else:
                with recorder.request(conn, op.verb) as root:
                    root.attrs["symbols"] = op.symbols
                    reply = await _call(client, op, slots, tenants)
        except ServingError as exc:
            reply = exc
        log.append((op, perf_counter() - t0, reply))


class Gateway:
    """The stack under test for one round, built the way ``repro serve``
    builds it: one registry, PlanCache → MatcherPool → GatewayServer."""

    def __init__(self, workload) -> None:
        self.registry = MetricsRegistry()
        self.cache = PlanCache(  # no spill directory: every round compiles
            capacity=workload.cache_capacity,
            config=workload.config,
            metrics=self.registry,
        )
        self.pool = MatcherPool(
            self.cache,
            config=workload.config,
            backend=workload.backend,
            fused=workload.fused,
            metrics=self.registry,
        )
        self.server = GatewayServer(self.pool, metrics=self.registry)
        self.clients: list = []
        self.slots: Dict[int, int] = {}

    async def start(self, workload, recorder, log) -> None:
        """Bind, connect, and say hello once per connection — one request
        each before any concurrency, so the traced run can tell the
        server's handler tasks apart."""
        await self.server.start()
        for conn in range(workload.connections):
            client = await GatewayClient.connect("127.0.0.1", self.server.port)
            self.clients.append(client)
            await run_ops(client, conn, [Op("stats")], self.slots, (), recorder, log)

    async def run(self, workload, ops_per_conn, recorder, log) -> None:
        await asyncio.gather(
            *(
                run_ops(client, conn, ops, self.slots, workload.tenants, recorder, log)
                for conn, (client, ops) in enumerate(zip(self.clients, ops_per_conn))
            )
        )

    async def tear_down(self) -> int:
        for client in self.clients:
            await client.aclose()
        return await self.server.stop()


class Run:
    """State of one benchmark run (one workload, one seed)."""

    def __init__(self, workload, rounds, recorder, pinned, all_cpus) -> None:
        self.workload = workload
        self.rounds = rounds
        self.recorder = recorder
        self.pinned = pinned
        self.all_cpus = all_cpus
        self.calibration = Calibration()
        self.audit = Audit()
        self.setups: List[Section] = []
        self.trials: List[Section] = []
        self.counts: Dict[str, float] = {}

    def _count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    async def _section(self, section: Section, slices, gateway, starting=False) -> None:
        """A set-up (nothing → ready to serve) or a trial, slice by slice.

        The calibration kernel is read at every slice boundary, so the
        reading after one slice doubles as the reading before the next.
        """
        gc.collect()
        traced = section.mode == "traced"
        recorder = self.recorder if traced else None
        if traced:
            recorder.section = (section.round, section.trial)
        if section.mode == "unpinned":
            set_affinity(self.all_cpus)
        with tracing.installed(recorder) if traced else nullcontext():
            before = self.calibration.read()
            for i, ops_per_conn in enumerate(slices):
                log: list = []
                t0 = perf_counter()
                if starting and i == 0:
                    await gateway.start(self.workload, recorder, log)
                await gateway.run(self.workload, ops_per_conn, recorder, log)
                wall_s = perf_counter() - t0
                after = self.calibration.read()
                section.absorb(log, wall_s, (before + after) / 2 / CALIB_REF_S)
                before = after
        if section.mode == "unpinned":
            set_affinity(self.pinned)

    async def drive(self) -> None:
        workload = self.workload
        traced_run = self.recorder is not None
        for r, rnd in enumerate(self.rounds):
            gateway = Gateway(workload)
            if traced_run:
                self.recorder.new_server()
            setup = Section(r, "setup", "traced" if traced_run else "plain")
            await self._section(setup, rnd.setup, gateway, starting=True)
            self.setups.append(setup)
            for k, slices in enumerate(rnd.trials):
                mode = "plain"
                if traced_run:
                    mode = TRACED_MODES[len(self.trials) % len(TRACED_MODES)]
                trial = Section(r, k, mode)
                await self._section(trial, slices, gateway)
                self.trials.append(trial)
            teardown = Section(r, "teardown", "plain")
            await self._section(teardown, [rnd.teardown], gateway)
            server_stats = gateway.server.stats()
            stragglers = await gateway.tear_down()
            self._audit_round(rnd, gateway, [setup, *self.trials[-len(rnd.trials):], teardown],
                              stragglers)
            self._count("gateway.requests", server_stats["requests"])
            self._count("gateway.rejects", server_stats["rejects"])
            for key, value in gateway.cache.stats().items():
                self._count(f"cache.{key}", value)
            metrics = gateway.registry.as_dict()
            width_n = metrics.get("serving.pool.fused_batch_width.count", 0.0)
            self._count("fused_width_n", width_n)
            self._count(
                "fused_width_sum",
                width_n * metrics.get("serving.pool.fused_batch_width.mean", 0.0),
            )
            self._count("pool.fused_fallbacks", metrics.get("serving.pool.fused_fallbacks", 0.0))

    def _audit_round(self, rnd, gateway, sections, stragglers) -> None:
        audit = self.audit
        for section in sections:
            for op, _latency, reply in section.log:
                audit.reply(op, reply)
        planned = sum(
            len(ops)
            for slices in (rnd.setup, *rnd.trials, [rnd.teardown])
            for ops_per_conn in slices
            for ops in ops_per_conn
        )
        answered = sum(len(s.log) for s in sections) - self.workload.connections  # hellos
        audit.check(answered == planned, f"answered {answered} of {planned} planned ops")
        audit.check(gateway.pool.active == 0, f"pool.active == {gateway.pool.active} after teardown")
        audit.check(stragglers == 0, f"{stragglers} revise threads outlived the drain")
        cache_stats = gateway.cache.stats()
        for key, want in rnd.cache_expect.items():
            audit.check(cache_stats[key] == want, f"cache.{key} {cache_stats[key]} != {want}")


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------
def end_to_end(run: Run, replay: dict) -> Dict[str, float]:
    feed_verb = run.workload.feed_verb
    opens = [
        ms for section in (*run.setups, *run.trials) for ms in section.latencies_ms("open")
    ]
    return {
        "setup_s": statistics.median(s.norm_s for s in run.setups),
        "throughput_sym_per_s": statistics.median(
            t.symbols / t.norm_s for t in run.trials
        ),
        "feed_p50_ms": statistics.median(
            percentile(t.latencies_ms(feed_verb), 0.50) for t in run.trials
        ),
        # Lower quartile, not median, over trials: the host only ever adds
        # to a tail, and the median of the trials' p90s moved by up to 10 %
        # between runs where this moved by 3 %.
        "feed_p90_ms": percentile(
            [percentile(t.latencies_ms(feed_verb), 0.90) for t in run.trials], 0.25
        ),
        "open_p50_ms": percentile(opens, 0.50),
        "sim_cycles_per_symbol": replay["sim_cycles_per_symbol"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def harness_metrics(run: Run) -> Dict[str, float]:
    def throughput(mode: str, normalised: bool = True) -> float:
        picked = [t for t in run.trials if t.mode == mode]
        if not picked:
            return 0.0
        return statistics.median(
            t.symbols / (t.norm_s if normalised else t.wall_s) for t in picked
        )

    readings = run.calibration.readings
    q1, _, q3 = statistics.quantiles(readings, n=4)
    plain, traced, unpinned = throughput("plain"), throughput("traced"), throughput("unpinned")
    return {
        "harness.trace_overhead_pct": (plain / traced - 1) * 100 if plain and traced else 0.0,
        "harness.host_speed_ratio": statistics.median(readings) / CALIB_REF_S,
        "harness.calib_spread_pct": (q3 - q1) / statistics.median(readings) * 100,
        "harness.raw_throughput_sym_per_s": throughput("plain", normalised=False),
        "harness.trials": float(len(run.trials)),
        "harness.all_cpus_throughput_ratio": unpinned / plain if plain and unpinned else 0.0,
    }


# ----------------------------------------------------------------------
def parse_args(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="size of the run: trials per round scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="set-up → trials cycles (default: the workload's own)")
    return parser.parse_args(argv), spec


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    all_cpus = os.sched_getaffinity(0)
    pinned = {max(all_cpus)}
    set_affinity(pinned)

    workload = WORKLOADS[args.workload]()
    rounds = args.rounds if args.rounds is not None else workload.rounds
    trials = max(1, round(workload.trials_per_round * args.seconds / spec["run_seconds"]))
    if args.trace:
        # Every trial kind must occur at least once.
        trials = max(trials, ceil(len(TRACED_MODES) / rounds))
    traffic = workload.generate(args.seed, rounds, trials)

    recorder = tracing.Recorder() if args.trace else None
    run = Run(workload, traffic, recorder, pinned, all_cpus)
    asyncio.run(run.drive())
    replay = sim_replay.replay(workload, run.audit, with_selector=bool(args.trace))

    if args.trace:
        values = {**layers.layer_metrics(run, replay), **harness_metrics(run)}
        spans_dir = HERE / "spans"
        spans_dir.mkdir(exist_ok=True)
        stem = spans_dir / f"{workload.name}-seed{args.seed}"
        recorder.dump_jsonl(f"{stem}.jsonl")
        Path(f"{stem}.budget.json").write_text(
            json.dumps(layers.layer_budget(run), indent=1) + "\n"
        )
        declared = spec["per_layer"]
    else:
        values = end_to_end(run, replay)
        declared = spec["end_to_end"]

    for example in run.audit.examples:
        print(f"audit: {example}", file=sys.stderr)
    speeds = [x for s in (*run.setups, *run.trials) for x in s.speeds]
    print(
        f"{workload.name} seed {args.seed}: {len(run.setups)} set-ups, {len(run.trials)} trials, "
        f"{sum(s.wall_s for s in (*run.setups, *run.trials)):.1f} s measured, host speed "
        f"x{statistics.median(speeds):.2f} ({min(speeds):.2f}-{max(speeds):.2f}) of reference",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": run.audit.failed == 0,
                "attempted": run.audit.attempted,
                "failed": run.audit.failed,
                "metrics": {
                    m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared
                },
            }
        )
    )
    return 0 if run.audit.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
