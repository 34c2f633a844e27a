"""Drive a traffic scenario through the TCP gateway over real sockets.

:func:`run_scenario` turns a validated :class:`~repro.scenarios.Scenario`
into live wire traffic: an open-loop arrival process releases stream
lifecycles (open → N feeds → close) into a fleet of concurrent
:class:`~repro.gateway.GatewayClient` connections, against either an
embedded :class:`~repro.gateway.GatewayServer` on localhost (the
default — one process, but every byte still crosses a real socket) or an
external gateway at ``host:port``.

Every lifecycle is audited client-side against the ``dfa.run`` oracle —
the runner knows exactly which bytes it sent, so a closed stream's
``end_state``/``accepts`` must match the sequential truth regardless of
how the server interleaved, fused, or hot-swapped execution.  Rejected
opens (the retryable ``capacity`` backpressure signal) are retried with
backoff per the scenario's retry policy and counted.

This is the repo's one seeded traffic harness and the socket is its one
transport: the gateway runs every connection's pool call on its own
worker thread, so ``clients: 8`` is up to eight threads inside the
pool and the plan cache.  A ``pool.fused`` scenario drives each
connection's streams in gangs of :data:`GANG_WIDTH` fed with
``feed_many``; ``pool.drift`` + ``drift_at`` shift the traffic under a
drift-monitored pool mid-run; ``tenants[].variants`` submits
language-equivalent automata.  An embedded run additionally audits the
serving tier's own counters (:func:`_serving_audits`): one compile per
language class, nothing leaked past the drain, no failed revise.

Results follow the JSONL pattern of the animica harness: one structured
line per request (``out_path``), plus a :class:`ScenarioReport` summary
with p50/p99 open/feed latency, throughput over the measure window, and
the scenario's CI gate verdicts.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ScenarioError, ServingError
from repro.framework.config import GSpecPalConfig
from repro.gateway.client import GatewayClient
from repro.gateway.server import GatewayServer
from repro.scenarios.schema import GateSpec, Scenario
from repro.serving.cache import PlanCache
from repro.serving.pool import MatcherPool
from repro.workloads import classic

#: Streams one connection opens, gang-feeds and closes together when the
#: scenario's pool is fused (a plain scenario drives them one at a time).
GANG_WIDTH = 4


@dataclass
class _RequestSpec:
    """One precomputed stream lifecycle (fully seeded, socket-free)."""

    index: int
    phase: str  # "warmup" | "measure"
    tenant_index: int
    segments: Tuple[bytes, ...]
    gap_s: float  # inter-arrival gap *before* this request
    variant: int = 0  # which of the tenant's equivalent automata it opens


@dataclass
class RequestRecord:
    """Outcome of one stream lifecycle (one JSONL line)."""

    index: int
    phase: str
    tenant: str
    variant: int = 0
    stream: Optional[int] = None
    ok: bool = False
    rejects: int = 0
    segments: int = 0
    symbols: int = 0
    open_ms: float = 0.0
    feed_ms: List[float] = field(default_factory=list)
    fused_feeds: int = 0  # feeds that rode a fused gang dispatch
    scheme_switches: int = 0  # in-stream hot-swaps (from the close summary)
    end_state: Optional[int] = None
    accepts: Optional[bool] = None
    oracle_ok: Optional[bool] = None
    t_start_s: float = 0.0
    t_end_s: float = 0.0
    error: Optional[str] = None

    def to_json(self, scenario_id: str) -> Dict[str, Any]:
        """Every field, ``index`` as ``request`` and ``feed_ms`` as its
        mean and max."""
        row = dataclasses.asdict(self)
        feed_ms = row.pop("feed_ms") or [0.0]
        row["open_ms"] = round(self.open_ms, 3)
        row["t_start_s"] = round(self.t_start_s, 6)
        row["t_end_s"] = round(self.t_end_s, 6)
        return {
            "scenario": scenario_id,
            "request": row.pop("index"),
            **row,
            "feed_ms_mean": round(float(np.mean(feed_ms)), 3),
            "feed_ms_max": round(float(np.max(feed_ms)), 3),
        }


@dataclass
class ScenarioReport:
    """Summary of one :func:`run_scenario` invocation."""

    scenario_id: str
    backend: str
    seed: int
    requests: int
    total_requests: int
    completed: int = 0
    failed: int = 0
    reject_attempts: int = 0
    reject_rate: float = 0.0
    oracle_failures: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    gate_failures: List[str] = field(default_factory=list)
    p50_open_ms: float = 0.0
    p99_open_ms: float = 0.0
    p50_feed_ms: float = 0.0
    p99_feed_ms: float = 0.0
    throughput_req_per_s: float = 0.0
    throughput_sym_per_s: float = 0.0
    elapsed_s: float = 0.0
    measure_elapsed_s: float = 0.0
    require_all_completed: bool = True
    #: embedded runs only: the gateway's stats after the drain and the
    #: shared registry's export (``serving.*`` / ``drift.*`` / ``gateway.*``).
    gateway_stats: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    records: List[RequestRecord] = field(default_factory=list)
    out_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the run is answer-exact and inside every gate: no
        worker errors or failed serving audits (both land in ``errors``),
        every closed stream oracle-identical, all gates green — and,
        unless the scenario opted out, every request completed."""
        return (
            not self.errors
            and not self.oracle_failures
            and not self.gate_failures
            and (not self.require_all_completed or self.failed == 0)
        )

    def summary(self) -> str:
        lines = [
            f"scenario {self.scenario_id}: {self.total_requests} requests "
            f"({self.requests} measured) over backend={self.backend}, "
            f"seed={self.seed}",
            f"  completed  : {self.completed} ({self.failed} failed, "
            f"{self.reject_attempts} capacity rejects, "
            f"reject rate {self.reject_rate:.1%})",
            f"  open       : p50 {self.p50_open_ms:.2f} ms / "
            f"p99 {self.p99_open_ms:.2f} ms",
            f"  feed       : p50 {self.p50_feed_ms:.2f} ms / "
            f"p99 {self.p99_feed_ms:.2f} ms",
            f"  throughput : {self.throughput_req_per_s:.1f} req/s, "
            f"{self.throughput_sym_per_s:.0f} sym/s "
            f"(measure window {self.measure_elapsed_s:.2f}s of "
            f"{self.elapsed_s:.2f}s)",
        ]
        if self.gateway_stats:
            cache = self.gateway_stats["pool"]["cache"]
            metric = self.metrics.get
            lines.append(
                f"  serving    : {cache['compiles']} compiles "
                f"({cache['compile_waits']} waits, "
                f"{cache['alias_hits']} alias hits), "
                f"{metric('serving.pool.fused_dispatches', 0):.0f} fused "
                f"dispatches, {metric('drift.revises', 0):.0f} revises / "
                f"{metric('drift.swaps', 0):.0f} swaps / "
                f"{sum(r.scheme_switches for r in self.records)} "
                "in-stream switches"
            )
        lines += [
            f"  oracle     : {len(self.oracle_failures)} mismatches",
            f"  errors     : {len(self.errors)}",
        ]
        if self.gate_failures:
            for failure in self.gate_failures:
                lines.append(f"    gate!   {failure}")
        else:
            lines.append("  gates      : all green")
        for failure in self.oracle_failures[:5]:
            lines.append(f"    oracle! {failure}")
        for error in self.errors[:5]:
            lines.append(f"    error!  {error}")
        if self.out_path:
            lines.append(f"  results    : {self.out_path}")
        lines.append("  verdict    : " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# schedule generation (pure, seeded — no sockets)
# ----------------------------------------------------------------------
def build_schedule(scenario: Scenario) -> List[_RequestSpec]:
    """The scenario's full request schedule, derived from its seed.

    Same scenario document ⇒ same tenants, segment bytes and arrival
    gaps, whatever the network does at run time — which is what makes
    the oracle audit and the JSONL results comparable across runs.
    """
    rng = np.random.default_rng(scenario.seed)
    weights = scenario.tenant_weights()
    seg = scenario.segments
    arrival = scenario.arrival

    def segment(phase: Optional[float]) -> bytes:
        length = int(rng.integers(seg.min_len, seg.max_len + 1))
        if phase is None:
            return bytes(rng.integers(97, 123, size=length).astype(np.uint8))
        return classic.drifting_phase_input(
            length, drift_at=phase, seed=int(rng.integers(0, 2**31))
        )

    specs: List[_RequestSpec] = []
    for index in range(scenario.total_requests):
        tenant_index = int(rng.choice(len(weights), p=weights))
        tenant = scenario.tenants[tenant_index]
        # ``variants`` and ``drift_at`` draw only when a document uses them,
        # so one that does not keeps its digest-pinned schedule.
        variant = (
            int(rng.integers(0, tenant.variants)) if tenant.variants > 1 else 0
        )
        # A drifting_phase tenant under ``drift_at``: pure calm traffic
        # (1.0) before that share of the schedule, pure drifted-hot after.
        phase = None
        if (
            scenario.drift_at is not None
            and tenant.fsm["kind"] == "drifting_phase"
        ):
            drifted = index >= scenario.drift_at * scenario.total_requests
            phase = 0.0 if drifted else 1.0
        n_segments = int(
            rng.integers(seg.per_stream_min, seg.per_stream_max + 1)
        )
        segments = tuple(segment(phase) for _ in range(n_segments))
        if arrival.kind == "poisson":
            gap = float(rng.exponential(1.0 / arrival.rate_per_s))
        elif arrival.kind == "uniform":
            gap = 1.0 / arrival.rate_per_s
        else:  # bursty: burst_size back-to-back, then a pause
            gap = (
                arrival.burst_pause_s
                if index % arrival.burst_size == 0 and index > 0
                else 0.0
            )
        if arrival.jitter > 0:
            gap *= float(
                rng.uniform(1.0 - arrival.jitter, 1.0 + arrival.jitter)
            )
        specs.append(
            _RequestSpec(
                index=index,
                phase=(
                    "warmup"
                    if index < scenario.warmup_requests
                    else "measure"
                ),
                tenant_index=tenant_index,
                segments=segments,
                gap_s=gap,
                variant=variant,
            )
        )
    return specs


# ----------------------------------------------------------------------
# the async drive
# ----------------------------------------------------------------------
async def _open(
    scenario: Scenario,
    client: GatewayClient,
    spec: _RequestSpec,
    fleet,
    trainings,
    epoch: float,
) -> RequestRecord:
    """Start ``spec``'s record by opening its stream, honoring the wire
    backpressure contract (retryable ``capacity`` rejects back off and
    retry); on failure ``record.stream`` stays ``None`` and
    ``record.error`` says why."""
    tenant = scenario.tenants[spec.tenant_index]
    record = RequestRecord(
        index=spec.index,
        phase=spec.phase,
        tenant=tenant.name,
        variant=spec.variant,
        t_start_s=perf_counter() - epoch,
    )
    attempt = 0
    while True:
        started = perf_counter()
        try:
            record.stream = await client.open(
                fleet[spec.tenant_index][spec.variant],
                training=trainings[spec.tenant_index],
                scheme=tenant.scheme,
            )
            record.open_ms = (perf_counter() - started) * 1e3
            return record
        except ServingError as exc:
            if exc.code == "capacity" and exc.retryable:
                record.rejects += 1
                attempt += 1
                if attempt < scenario.retry.max_attempts:
                    await asyncio.sleep(scenario.retry.backoff_s * attempt)
                    continue
                record.error = "capacity retries exhausted"
            else:
                record.error = f"open failed: {exc}"
            return record


async def _lifecycle(
    scenario: Scenario,
    client: GatewayClient,
    gang: Sequence[_RequestSpec],
    fleet,
    trainings,
    epoch: float,
) -> List[RequestRecord]:
    """A gang of stream lifecycles on one connection: open each (with
    capacity retries) → one feed per segment round → close and audit one
    by one.

    A gang of one feeds with ``feed``; a wider gang sends each round —
    one segment for every member that still has one — as a single
    ``feed_many``, which is what lets a fused pool gang-dispatch the
    members sharing a language class.  Every stream that was opened is
    closed, whatever failed in between, so a failed feed never strands
    an admission slot.
    """
    members = [
        (spec, await _open(scenario, client, spec, fleet, trainings, epoch))
        for spec in gang
    ]
    # -- feeds: one round per segment position --------------------------
    for position in range(max(len(spec.segments) for spec in gang)):
        batch = [
            (record, spec.segments[position])
            for spec, record in members
            if record.stream is not None
            and record.error is None
            and position < len(spec.segments)
        ]
        if not batch:
            break
        started = perf_counter()
        try:
            if len(gang) == 1:
                await client.feed(batch[0][0].stream, batch[0][1])
                outcomes = [{"ok": True, "fused": False}]
            else:
                outcomes = await client.feed_many(
                    [(record.stream, segment) for record, segment in batch]
                )
        except ServingError as exc:  # the whole round failed
            for record, _ in batch:
                record.error = f"feed failed: {type(exc).__name__}: {exc}"
            continue
        elapsed_ms = (perf_counter() - started) * 1e3
        for (record, segment), outcome in zip(batch, outcomes):
            if not outcome["ok"]:
                record.error = f"feed failed: {outcome['error']['message']}"
                continue
            record.feed_ms.append(elapsed_ms)
            record.segments += 1
            record.symbols += len(segment)
            record.fused_feeds += bool(outcome["fused"])
    # -- close + client-side oracle audit, one by one -------------------
    for spec, record in members:
        if record.stream is not None:
            try:
                summary = await client.close_stream(record.stream)
            except ServingError as exc:
                record.error = record.error or f"close failed: {exc}"
            else:
                if record.error is None:
                    _audit_close(scenario, spec, record, summary, fleet)
        record.t_end_s = perf_counter() - epoch
    return [record for _, record in members]


def _audit_close(scenario, spec, record, summary, fleet) -> None:
    """Check a close summary against ``dfa.run`` over the bytes sent."""
    dfa = fleet[spec.tenant_index][0]  # every variant decides this language
    fed = b"".join(spec.segments)
    expected = int(dfa.run(fed))
    record.end_state = int(summary["end_state"])
    record.accepts = bool(summary["accepts"])
    record.scheme_switches = int(summary["scheme_switches"])
    record.oracle_ok = (
        # Aliased variants are served in the first submitter's state
        # numbering, so only the verdict is comparable across a class.
        (
            scenario.tenants[spec.tenant_index].variants > 1
            or record.end_state == expected
        )
        and record.accepts == (expected in dfa.accepting)
        and int(summary["total_symbols"]) == len(fed)
        and int(summary["segments"]) == len(spec.segments)
    )
    record.ok = True


async def _drive(
    scenario: Scenario,
    schedule: List[_RequestSpec],
    fleet,
    trainings,
    host: str,
    port: int,
    epoch: float,
) -> Tuple[List[RequestRecord], List[str]]:
    """Arrival producer + client-fleet consumers over real sockets.

    The schedule is cut into gangs of consecutive requests (width 1
    unless the scenario's pool is fused), so gang membership is as
    seed-determined as the requests themselves; a gang arrives when its
    last member would have.
    """
    width = GANG_WIDTH if scenario.pool.fused else 1
    records: List[RequestRecord] = []
    errors: List[str] = []
    queue: "asyncio.Queue[Optional[List[_RequestSpec]]]" = asyncio.Queue()

    async def producer() -> None:
        for start in range(0, len(schedule), width):
            gang = schedule[start : start + width]
            gap = sum(spec.gap_s for spec in gang)
            if gap > 0:
                await asyncio.sleep(gap)
            await queue.put(gang)
        for _ in range(scenario.clients):
            await queue.put(None)

    async def consumer(worker_index: int) -> None:
        try:
            client = await GatewayClient.connect(host, port)
        except OSError as exc:
            # The queue is unbounded, so the producer never waits on this
            # consumer: the healthy clients serve what it would have.
            errors.append(f"client {worker_index}: connect failed: {exc}")
            return
        try:
            while True:
                gang = await queue.get()
                if gang is None:
                    return
                try:
                    records.extend(
                        await _lifecycle(
                            scenario, client, gang, fleet, trainings, epoch
                        )
                    )
                except Exception as exc:  # noqa: BLE001 - audit collects
                    errors.append(
                        f"request {gang[0].index}: "
                        f"{type(exc).__name__}: {exc}"
                    )
        finally:
            await client.aclose()

    await asyncio.gather(
        producer(), *(consumer(i) for i in range(scenario.clients))
    )
    return records, errors


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _serving_audits(
    scenario: Scenario,
    classes: Set[str],
    stats: Dict[str, Any],
    spilled: Optional[Set[str]],
) -> List[str]:
    """What an embedded run's own counters must show, whatever the gates.

    ``classes`` are the canonical fingerprints of the tenants that got a
    stream opened, ``stats`` the gateway's stats after the drain (its
    ``metrics`` entry is the stack's registry export) and ``spilled`` the
    plan files the run left in its spill directory (``None`` without one).
    """
    pool, cache = stats["pool"], stats["pool"]["cache"]
    metrics = stats["metrics"]
    failures = []
    if (
        not cache["evictions"]
        and not cache["disk_loads"]
        and cache["compiles"] != len(classes)
    ):
        failures.append(
            f"{cache['compiles']} compiles for {len(classes)} language "
            "classes opened (want exactly one each)"
        )
    leaked = {
        name: count
        for name, count in (
            ("active_streams", pool["active_streams"]),
            ("reserved", pool["reserved"]),
            # Streams a client left open are closed by the gateway, at the
            # disconnect or at the drain: either way the client leaked them.
            ("orphans_closed", stats["orphans_closed"]),
            ("drained_streams", stats["drained_streams"]),
        )
        if count
    }
    if leaked:
        failures.append(f"leaked past the drain: {leaked}")
    if metrics.get("drift.revise_errors", 0):
        failures.append(
            f"{int(metrics['drift.revise_errors'])} drift revises failed"
        )
    if (
        scenario.pool.drift
        and scenario.drift_at is not None
        and not metrics.get("drift.revises", 0)
    ):
        failures.append("the drifting traffic provoked no revise")
    if scenario.pool.fused and not metrics.get(
        "serving.pool.fused_dispatches", 0
    ):
        failures.append("pool.fused produced no fused dispatch")
    if spilled is not None and spilled != classes:
        failures.append(
            f"{len(spilled)} spill files for {len(classes)} language classes "
            f"(unexpected: {sorted(spilled - classes)[:3]}, "
            f"missing: {sorted(classes - spilled)[:3]})"
        )
    return [f"audit: {failure}" for failure in failures]


def _spill_files(spill_dir: Optional[str]) -> Set[str]:
    if spill_dir is None:
        return set()
    return {path.stem for path in Path(spill_dir).glob("*.npz")}


def _gate_failures(gates: GateSpec, report: ScenarioReport) -> List[str]:
    """One message per tripped gate: ``min_<m>`` floors the report's
    ``<m>``, ``max_<m>`` caps it, and any other gate caps the report field
    of its own name."""
    failures = []
    for gate in dataclasses.fields(gates):
        bound = getattr(gates, gate.name)
        if bound is None:
            continue
        op, metric = "<=", gate.name.removeprefix("max_")
        if gate.name.startswith("min_"):
            op, metric = ">=", gate.name.removeprefix("min_")
        actual = getattr(report, metric)
        if not (actual >= bound if op == ">=" else actual <= bound):
            failures.append(f"{gate.name}: {actual:.3f} violates {op} {bound:.3f}")
    return failures


def run_scenario(
    scenario: Scenario,
    *,
    host: Optional[str] = None,
    port: Optional[int] = None,
    out_path: Optional[str] = None,
    spill_dir: Optional[str] = None,
    log=None,
) -> ScenarioReport:
    """Run ``scenario`` and return its audited report.

    With ``host`` and ``port`` unset an embedded gateway is started on a
    free localhost port (pool built from the scenario's ``pool`` /
    ``backend`` / ``n_threads`` fields, plan cache spilling to
    ``spill_dir`` when given), gracefully drained afterwards and held to
    :func:`_serving_audits`.  With both set the traffic targets an
    already-running external gateway and the scenario's pool knobs and
    ``spill_dir`` are ignored; one without the other is a
    :class:`~repro.errors.ScenarioError`.  ``out_path`` writes one JSONL
    line per request.
    """
    from repro.engine import resolve_backend_name

    if (host is None) != (port is None):
        raise ScenarioError("an external gateway needs both --host and --port")
    schedule = build_schedule(scenario)
    fleet, trainings = scenario.build_fleet()
    foreign_spills = _spill_files(spill_dir)  # an earlier run's: not ours

    async def main() -> Tuple[List[RequestRecord], List[str], Dict, int]:
        server = None
        target_host, target_port = host, port
        if target_host is None:
            config = GSpecPalConfig(n_threads=scenario.n_threads)
            pool = MatcherPool(
                PlanCache(
                    capacity=scenario.pool.cache_capacity,
                    config=config,
                    directory=spill_dir,
                ),
                config=config,
                backend=scenario.backend,
                max_streams=scenario.pool.max_streams,
                open_timeout=scenario.pool.open_timeout,
                fused=scenario.pool.fused,
                drift=scenario.pool.drift,
            )
            server = GatewayServer(pool, log=log)
            await server.start()
            target_host, target_port = server.host, server.port
        epoch = perf_counter()
        try:
            records, errors = await _drive(
                scenario,
                schedule,
                fleet,
                trainings,
                target_host,
                target_port,
                epoch,
            )
        finally:
            gateway_stats: Dict[str, Any] = {}
            if server is not None:
                await server.stop()
                gateway_stats = server.stats()
        return records, errors, gateway_stats

    started = perf_counter()
    records, errors, gateway_stats = asyncio.run(main())
    elapsed = perf_counter() - started
    records.sort(key=lambda r: r.index)

    # -- audits ---------------------------------------------------------
    oracle_failures = [
        f"request {r.index} ({r.tenant}): end_state {r.end_state} / "
        f"accepts {r.accepts} does not match dfa.run oracle"
        for r in records
        if r.ok and r.oracle_ok is False
    ]
    if len(records) != scenario.total_requests:
        errors = errors + [
            f"lost records: {len(records)} of {scenario.total_requests}"
        ]
    if gateway_stats:
        opened = {
            schedule[r.index].tenant_index
            for r in records
            if r.stream is not None
        }
        classes = {fleet[i][0].canonical_fingerprint() for i in opened}
        spilled = (
            None
            if spill_dir is None
            else _spill_files(spill_dir) - (foreign_spills - classes)
        )
        errors = errors + _serving_audits(scenario, classes, gateway_stats, spilled)

    measured = [r for r in records if r.phase == "measure"]
    completed = [r for r in measured if r.ok]
    failed = [r for r in measured if not r.ok]
    open_latencies = [r.open_ms for r in completed]
    feed_latencies = [ms for r in completed for ms in r.feed_ms]
    reject_attempts = sum(r.rejects for r in records)
    open_attempts = reject_attempts + sum(1 for r in records if r.stream is not None)
    window = (
        max(r.t_end_s for r in measured) - min(r.t_start_s for r in measured)
        if measured
        else 0.0
    )
    symbols = sum(r.symbols for r in completed)

    report = ScenarioReport(
        scenario_id=scenario.id,
        backend=resolve_backend_name(scenario.backend),
        seed=scenario.seed,
        requests=scenario.requests,
        total_requests=scenario.total_requests,
        completed=len(completed),
        failed=len(failed),
        reject_attempts=reject_attempts,
        reject_rate=(
            reject_attempts / open_attempts if open_attempts else 0.0
        ),
        oracle_failures=oracle_failures,
        errors=errors,
        p50_open_ms=_percentile(open_latencies, 50),
        p99_open_ms=_percentile(open_latencies, 99),
        p50_feed_ms=_percentile(feed_latencies, 50),
        p99_feed_ms=_percentile(feed_latencies, 99),
        throughput_req_per_s=(len(completed) / window if window > 0 else 0.0),
        throughput_sym_per_s=(symbols / window if window > 0 else 0.0),
        elapsed_s=elapsed,
        measure_elapsed_s=window,
        require_all_completed=scenario.require_all_completed,
        gateway_stats=gateway_stats,
        metrics=gateway_stats.get("metrics", {}),
        records=records,
        out_path=out_path,
    )

    report.gate_failures = _gate_failures(scenario.gates, report)

    # -- JSONL export ---------------------------------------------------
    if out_path is not None:
        path = Path(out_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for record in records:
                handle.write(
                    json.dumps(record.to_json(scenario.id)) + "\n"
                )

    if log is not None:
        log(report.summary())
    return report


__all__ = [
    "RequestRecord",
    "ScenarioReport",
    "build_schedule",
    "run_scenario",
]
