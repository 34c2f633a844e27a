"""Deterministic multithreaded stress harness for the serving tier.

Drives ``M`` worker threads over ``K`` fingerprints with interleaved
open/feed/close traffic through one shared :class:`~repro.serving.PlanCache`
+ :class:`~repro.serving.MatcherPool`, then audits the outcome against a
sequential oracle:

* every closed stream's ``end_state``/``accepts`` must equal
  ``dfa.run(...)`` over the exact segments that stream was fed (each
  worker's schedule is derived from its own seeded RNG, so the per-stream
  byte sequence — and therefore the oracle — is independent of thread
  interleaving);
* the cache must have compiled **exactly once per distinct fingerprint**
  the run touched, however many threads raced the cold cache (workers
  start behind a barrier so the single-flight path is genuinely exercised);
* no stream summary may be lost or duplicated, and no unexpected exception
  may escape a worker.

The harness layers on :mod:`repro.selfcheck` rather than re-implementing
it: pass ``selfcheck=True`` (the CI job sets ``REPRO_SELFCHECK=1``) and
every segment of every stream additionally runs the full runtime invariant
audits — end-state oracle, chunk-end chain, ledger tiling — inside the
scheme layer itself.

Entry points: :func:`run_stress` (used by the soak tests) and the
``python -m repro.cli stress`` command.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.automata.dfa import DFA
from repro.framework.config import GSpecPalConfig
from repro.observability import MetricsRegistry
from repro.serving.cache import PlanCache
from repro.serving.drift import DriftConfig
from repro.serving.pool import MatcherPool
from repro.workloads import classic


@dataclass
class StressReport:
    """Outcome of one :func:`run_stress` invocation."""

    threads: int
    fingerprints: int
    operations: int
    backend: str
    seed: int
    fused: bool = False
    equivalent_mix: bool = False
    drift: bool = False
    variants: int = 1
    elapsed_s: float = 0.0
    streams_opened: int = 0
    streams_closed: int = 0
    segments_fed: int = 0
    fused_dispatches: int = 0
    fused_streams: int = 0
    compiles: int = 0
    fingerprints_used: int = 0
    compile_waits: int = 0
    alias_hits: int = 0
    dedupes: int = 0
    spill_files: int = 0
    drift_triggers: int = 0
    drift_revises: int = 0
    drift_swaps: int = 0
    drift_revise_errors: int = 0
    scheme_switches: int = 0
    oracle_failures: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    pool_stats: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every audit held: correct oracle states, exactly one
        compile per touched fingerprint (per *language class* in the
        equivalent mix), no lost summaries, no errors.  Drift mode adds:
        no revise errors, and the drifting traffic actually provoked at
        least one background revise (revises go through
        :func:`~repro.plan.revise_plan`, never the compiler, so the
        one-compile-per-class audit still holds verbatim)."""
        return (
            not self.errors
            and not self.oracle_failures
            and self.compiles == self.fingerprints_used
            and self.streams_opened == self.streams_closed
            and self.drift_revise_errors == 0
            and (not self.drift or self.drift_revises >= 1)
        )

    def summary(self) -> str:
        lines = [
            f"serving stress: {self.threads} threads x "
            f"{self.fingerprints} fingerprints x {self.operations} ops "
            f"(backend={self.backend}, seed={self.seed}"
            + (", fused" if self.fused else "")
            + (", drift" if self.drift else "")
            + ")",
            f"  elapsed    : {self.elapsed_s:.2f}s",
            f"  streams    : {self.streams_opened} opened / "
            f"{self.streams_closed} closed",
            f"  segments   : {self.segments_fed} fed",
        ]
        if self.fused:
            lines.append(
                f"  fused      : {self.fused_dispatches} dispatches / "
                f"{self.fused_streams} gang-fed streams"
            )
        lines += [
            f"  compiles   : {self.compiles} "
            f"({'classes' if self.equivalent_mix else 'fingerprints'} "
            f"touched: {self.fingerprints_used}, "
            f"waits: {self.compile_waits})",
        ]
        if self.equivalent_mix:
            lines.append(
                f"  aliasing   : {self.variants} variants/class, "
                f"{self.alias_hits} alias hits / {self.dedupes} dedupes, "
                f"{self.spill_files} spill files"
            )
        if self.drift:
            lines.append(
                f"  drift      : {self.drift_triggers} triggers / "
                f"{self.drift_revises} revises / {self.drift_swaps} swaps "
                f"({self.scheme_switches} in-stream scheme switches, "
                f"{self.drift_revise_errors} revise errors)"
            )
        lines += [
            f"  oracle     : {len(self.oracle_failures)} mismatches",
            f"  errors     : {len(self.errors)}",
        ]
        for failure in self.oracle_failures[:5]:
            lines.append(f"    oracle! {failure}")
        for error in self.errors[:5]:
            lines.append(f"    error!  {error}")
        lines.append("  verdict    : " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def build_fleet(fingerprints: int) -> Tuple:
    """``fingerprints`` structurally distinct DFAs for the stress mix.

    Alternates keyword scanners (sticky accepts, realistic serving shape)
    with divisibility counters (dense, never-converging) so both friendly
    and adversarial automata sit behind one cache.
    """
    primes = (3, 5, 7, 11, 13, 17, 19, 23)
    fleet = []
    for i in range(fingerprints):
        if i % 2 == 0:
            fleet.append(classic.keyword_scanner(b"kw%d" % i + b"end"))
        else:
            fleet.append(classic.divisibility(primes[(i // 2) % len(primes)]))
    return tuple(fleet)


def _inflated_duplicate(
    dfa: DFA, rng: np.random.Generator, name: str
) -> DFA:
    """A language-equivalent DFA with one duplicated (redundant) state.

    Picks a state ``s``, appends a copy of its row as a fresh state ``d``
    (accepting iff ``s`` is) and reroutes a random subset of the
    transitions into ``s`` to ``d`` instead.  ``s`` and ``d`` are
    behaviourally identical, so the language is unchanged while both the
    state count and the content fingerprint differ.
    """
    n, k = dfa.n_states, dfa.n_symbols
    s = int(rng.integers(0, n))
    table = np.vstack([np.asarray(dfa.table), dfa.table[s : s + 1]])
    body = table[:n]
    reroute = (body == s) & (rng.random((n, k)) < 0.5)
    body[reroute] = n
    accepting = set(dfa.accepting)
    if s in accepting:
        accepting.add(n)
    return DFA(
        table=table, start=dfa.start, accepting=frozenset(accepting), name=name
    )


def build_variant_fleet(
    fingerprints: int, variants: int, seed: int
) -> Tuple[Tuple, Tuple]:
    """``(base_fleet, grid)`` where ``grid[i]`` holds ``variants``
    language-equivalent DFAs for class ``i``.

    Variant 0 is the :func:`build_fleet` automaton itself; the others
    alternate between random state relabellings and duplicate-state
    inflations, so every class mixes distinct content fingerprints over
    one canonical fingerprint.
    """
    base = build_fleet(fingerprints)
    rng = np.random.default_rng(seed * 104_729 + 11)
    grid = []
    for dfa in base:
        row = [dfa]
        for v in range(1, variants):
            if v % 2 == 1:
                perm = rng.permutation(dfa.n_states)
                row.append(dfa.renumbered(perm, name=f"{dfa.name}~relabel{v}"))
            else:
                row.append(
                    _inflated_duplicate(dfa, rng, name=f"{dfa.name}~inflate{v}")
                )
        grid.append(tuple(row))
    return base, tuple(grid)


def build_drift_fleet(fingerprints: int) -> Tuple:
    """``fingerprints`` distinct two-phase automata for the drift mix.

    Every class is a :func:`~repro.workloads.classic.drifting_phase`
    variant — calm traffic collapses into a tiny predictable cycle (PM
    territory), hot traffic scatters across the whole state space — with
    a different state count and a stride multiplier kept coprime so the
    hot permutation stays a permutation.
    """
    fleet = []
    for i in range(fingerprints):
        n_states = 128 + 16 * i
        multiplier = next(
            m for m in (5, 3, 7, 11, 13) if math.gcd(m, n_states) == 1
        )
        fleet.append(
            classic.drifting_phase(n_states=n_states, multiplier=multiplier)
        )
    return tuple(fleet)


def _random_segment(rng: np.random.Generator, max_len: int = 160) -> bytes:
    length = int(rng.integers(16, max_len + 1))
    return bytes(rng.integers(97, 123, size=length).astype(np.uint8))


def _drift_segment(rng: np.random.Generator, drifted: bool) -> bytes:
    """One drift-mode segment: pure calm or pure drifted-hot traffic.

    Long enough (vs :func:`_random_segment`) that each run verifies a few
    chunk boundaries, so the monitors accumulate accuracy evidence at a
    useful rate.
    """
    length = int(rng.integers(96, 193))
    return classic.drifting_phase_input(
        length,
        drift_at=0.0 if drifted else 1.0,
        seed=int(rng.integers(0, 2**31)),
    )


def run_stress(
    *,
    threads: int = 8,
    fingerprints: int = 4,
    operations: int = 400,
    seed: int = 0,
    backend: Optional[str] = None,
    selfcheck: Optional[bool] = None,
    capacity: Optional[int] = None,
    max_streams: Optional[int] = None,
    n_threads: int = 8,
    fused: bool = False,
    equivalent_mix: bool = False,
    drift: bool = False,
    drift_config: Optional[DriftConfig] = None,
    variants: int = 3,
    spill_dir: Optional[str] = None,
    log=None,
) -> StressReport:
    """Run the stress schedule and audit every outcome.

    Parameters
    ----------
    threads / fingerprints / operations:
        Worker count, distinct automata, and *total* operations (an open,
        feed or close each count as one), split evenly across workers.
    seed:
        Seeds every worker's schedule; same seed ⇒ same per-stream byte
        sequences and the same oracle, whatever the interleaving.
    backend / selfcheck:
        Runtime knobs forwarded to the pool's matchers (``selfcheck=None``
        defers to ``REPRO_SELFCHECK``).
    capacity / max_streams:
        Cache capacity (default: all fingerprints resident) and pool
        admission bound (default: roomy enough that the schedule is never
        rejected — rejection paths have their own dedicated tests).
    n_threads:
        Simulated GPU threads per segment run (kept small: the harness
        stresses the serving tier, not the simulator).
    fused:
        Gang-scheduling mode: the pool is built with ``fused=True`` and
        each worker, instead of feeding one stream at a time, batches a
        fresh segment for *every* stream it has open into one
        :meth:`~repro.serving.MatcherPool.feed_many` call — so fused
        dispatches race other workers' gang dispatches, opens and closes
        on the same fingerprints.  The oracle audit is unchanged: fused or
        not, every closed stream must match ``dfa.run`` over exactly the
        bytes it was fed.
    equivalent_mix:
        Language-equivalence dedupe mode: every open submits a randomly
        chosen *variant* of its class (``variants`` per class — the base
        automaton plus relabelled and duplicate-state-inflated
        equivalents, see :func:`build_variant_fleet`).  The cache audit
        then requires exactly one compile per *language class* (not per
        content fingerprint), and — with ``spill_dir`` set — exactly one
        spill file per class, named by its canonical fingerprint.  The
        oracle audits ``accepts`` (exact across a class) plus the
        symbol/segment accounting; ``end_state`` is skipped because it is
        reported in the first submitter's state numbering.
    drift:
        Online-adaptation mode: the fleet becomes two-phase
        :func:`build_drift_fleet` automata trained (and initially fed) on
        calm traffic, and every worker switches to drifted-hot segments
        for the second half of its operation budget.  The pool runs with
        drift detection enabled, so the live accuracy collapse must
        trigger background revises and segment-boundary hot-swaps *while*
        other workers keep feeding, opening and closing streams of the
        same classes.  All in-flight revises are drained before the
        audits; the oracle audit is unchanged (swaps must be invisible in
        the answers), and the report additionally requires at least one
        revise and zero revise errors.
    drift_config:
        Override the drift-mode :class:`~repro.serving.DriftConfig`
        (default: thresholds sized for the harness's short segments).
    variants:
        Language-equivalent variants per class in the equivalent mix.
    spill_dir:
        Optional plan-cache spill directory (audited in the equivalent
        mix: one ``<canonical_fingerprint>.npz`` per touched class).
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if fingerprints < 1:
        raise ValueError(f"fingerprints must be >= 1, got {fingerprints}")
    if equivalent_mix and variants < 2:
        raise ValueError(f"equivalent_mix needs variants >= 2, got {variants}")
    if drift and equivalent_mix:
        raise ValueError("drift mode and equivalent_mix are mutually exclusive")
    if equivalent_mix:
        dfas, variant_grid = build_variant_fleet(fingerprints, variants, seed)
    elif drift:
        dfas, variant_grid = build_drift_fleet(fingerprints), None
    else:
        dfas, variant_grid = build_fleet(fingerprints), None
    config = GSpecPalConfig(n_threads=n_threads)
    if drift:
        # Train on pure calm traffic so the compiled plans anchor to the
        # pre-drift distribution — the whole point is that live hot
        # traffic then contradicts those anchors.
        trainings = tuple(
            classic.drifting_phase_input(
                2048, drift_at=1.0, seed=seed * 31 + i
            )
            for i in range(fingerprints)
        )
    else:
        trainings = tuple(
            bytes(
                np.random.default_rng(seed * 31 + i)
                .integers(97, 123, size=1024)
                .astype(np.uint8)
            )
            for i in range(fingerprints)
        )
    metrics = MetricsRegistry()
    cache = PlanCache(
        capacity=capacity if capacity is not None else max(fingerprints, 2),
        config=config,
        directory=spill_dir,
        metrics=metrics,
    )
    # Per-worker stream cap of 4 ⇒ a max_streams default that can never
    # reject this schedule.
    local_cap = 4
    if drift and drift_config is None:
        # Sized for ~100-190 byte segments at n_threads simulated lanes:
        # a heavier newest-sample weight so a handful of collapsed
        # segments drags the EWMA through the threshold, two consecutive
        # breaches to fire, and a warm-up that a few calm segments per
        # class already satisfy.
        drift_config = DriftConfig(
            threshold=0.3, min_samples=32, ewma_alpha=0.5, hysteresis=2
        )
    pool = MatcherPool(
        cache,
        config=config,
        backend=backend,
        selfcheck=selfcheck,
        max_streams=max_streams if max_streams is not None else threads * local_cap,
        fused=fused,
        metrics=metrics,
        drift=drift_config if drift else None,
    )

    per_worker = max(1, operations // threads)
    barrier = threading.Barrier(threads)
    guard = threading.Lock()
    #: (StreamStats, dfa index, joined fed bytes, number of segments)
    closed_records: List[Tuple[object, int, bytes, int]] = []
    errors: List[str] = []
    used_indices: set = set()

    def worker(widx: int) -> None:
        rng = np.random.default_rng(seed * 7919 + widx + 1)
        open_streams: List[List] = []  # [sid, dfa_idx, [segments]]

        def do_open(didx: int) -> None:
            if variant_grid is not None:
                # Equivalent mix: submit a random variant of the class —
                # same language, different content fingerprint.
                submitted = variant_grid[didx][
                    int(rng.integers(0, len(variant_grid[didx])))
                ]
            else:
                submitted = dfas[didx]
            sid = pool.open(submitted, training_input=trainings[didx])
            open_streams.append([sid, didx, []])
            with guard:
                used_indices.add(didx)

        def do_close(slot: int) -> None:
            sid, didx, segments = open_streams.pop(slot)
            stats = pool.close(sid)
            with guard:
                closed_records.append(
                    (stats, didx, b"".join(segments), len(segments))
                )

        try:
            barrier.wait(timeout=60)
            # First open is pinned to fingerprint widx % K, so with
            # threads >= fingerprints every automaton races its cold
            # compile from several workers at the barrier.
            do_open(widx % fingerprints)
            for op in range(1, per_worker):
                # Drift mode: calm traffic for the first half of the
                # budget, drifted-hot for the second — every worker flips
                # at the same op count, so the whole fleet's distribution
                # shifts mid-run.
                if drift:
                    drifted = op >= per_worker // 2
                    segment_of = lambda: _drift_segment(rng, drifted)  # noqa: E731
                else:
                    segment_of = lambda: _random_segment(rng)  # noqa: E731
                roll = float(rng.random())
                if not open_streams or (
                    roll < 0.2 and len(open_streams) < local_cap
                ):
                    do_open(int(rng.integers(0, fingerprints)))
                elif roll < 0.85:
                    if fused and roll < 0.6:
                        # Gang feed: one fresh segment for every open
                        # stream, coalesced into a single feed_many call
                        # (same-fingerprint streams fuse into one batch).
                        feeds = [
                            (entry[0], segment_of())
                            for entry in open_streams
                        ]
                        outcomes = pool.feed_many(feeds)
                        for entry, (_, segment), outcome in zip(
                            open_streams, feeds, outcomes
                        ):
                            if not outcome.ok:
                                raise outcome.error
                            entry[2].append(segment)
                    else:
                        slot = int(rng.integers(0, len(open_streams)))
                        sid, _, segments = open_streams[slot]
                        segment = segment_of()
                        pool.feed(sid, segment)
                        segments.append(segment)
                else:
                    do_close(int(rng.integers(0, len(open_streams))))
            while open_streams:
                do_close(len(open_streams) - 1)
        except Exception as exc:  # noqa: BLE001 - harness collects everything
            with guard:
                errors.append(f"worker {widx}: {type(exc).__name__}: {exc}")

    started = perf_counter()
    pool_threads = [
        threading.Thread(target=worker, args=(w,), name=f"stress-{w}")
        for w in range(threads)
    ]
    for t in pool_threads:
        t.start()
    for t in pool_threads:
        t.join()
    # Let in-flight background revises land before auditing — the swaps
    # themselves raced live traffic; only the bookkeeping waits here.
    stragglers = pool.drain_revisions(timeout=60.0)
    if stragglers:
        errors.append(
            f"{stragglers} revise threads still running after the drain"
        )
    elapsed = perf_counter() - started

    # ------------------------------------------------------------------
    # audits
    # ------------------------------------------------------------------
    oracle_failures: List[str] = []
    seen_ids: set = set()
    total_segments = 0
    for stats, didx, fed, n_segments in closed_records:
        total_segments += n_segments
        if stats.stream_id in seen_ids:
            oracle_failures.append(
                f"duplicate summary for stream {stats.stream_id}"
            )
            continue
        seen_ids.add(stats.stream_id)
        dfa = dfas[didx]
        expected = int(dfa.run(fed))
        if not equivalent_mix and int(stats.end_state) != expected:
            # The end_state audit only holds when every tenant submits the
            # same automaton; aliased tenants get states in the first
            # submitter's numbering, so the equivalent mix audits accepts.
            oracle_failures.append(
                f"stream {stats.stream_id} (fsm {didx}): end_state "
                f"{stats.end_state} != oracle {expected}"
            )
        if bool(stats.accepts) != (expected in dfa.accepting):
            oracle_failures.append(
                f"stream {stats.stream_id} (fsm {didx}): accepts "
                f"{stats.accepts} != oracle {expected in dfa.accepting}"
            )
        if stats.total_symbols != len(fed):
            oracle_failures.append(
                f"stream {stats.stream_id}: total_symbols "
                f"{stats.total_symbols} != {len(fed)} fed"
            )
        if stats.segments != n_segments:
            oracle_failures.append(
                f"stream {stats.stream_id}: segments "
                f"{stats.segments} != {n_segments} fed"
            )

    pool_stats = pool.stats()
    if pool_stats["active_streams"]:
        errors.append(
            f"{pool_stats['active_streams']} streams leaked past the drain"
        )
    cache_stats = cache.stats()

    if equivalent_mix and spill_dir is not None:
        # Exactly one spill file per touched language class, named by the
        # class's canonical fingerprint.
        expected_spills = {
            dfas[didx].canonical_fingerprint() for didx in used_indices
        }
        actual_spills = {p.stem for p in cache.directory.glob("*.npz")}
        if actual_spills != expected_spills:
            errors.append(
                f"spill audit: {len(actual_spills)} files for "
                f"{len(expected_spills)} language classes "
                f"(unexpected: {sorted(actual_spills - expected_spills)[:3]}, "
                f"missing: {sorted(expected_spills - actual_spills)[:3]})"
            )
    from repro.engine import resolve_backend_name

    exported = metrics.as_dict()
    report = StressReport(
        threads=threads,
        fingerprints=fingerprints,
        operations=per_worker * threads,
        backend=resolve_backend_name(backend),
        seed=seed,
        fused=fused,
        equivalent_mix=equivalent_mix,
        drift=drift,
        variants=variants if equivalent_mix else 1,
        elapsed_s=elapsed,
        streams_opened=int(pool_stats["opened"]),
        streams_closed=len(seen_ids),
        segments_fed=total_segments,
        fused_dispatches=int(exported.get("serving.pool.fused_dispatches", 0)),
        fused_streams=int(exported.get("serving.pool.fused_streams", 0)),
        compiles=int(cache_stats["compiles"]),
        fingerprints_used=len(used_indices),
        compile_waits=int(cache_stats["compile_waits"]),
        alias_hits=int(cache_stats["alias_hits"]),
        dedupes=int(cache_stats["dedupes"]),
        spill_files=(
            len(tuple(cache.directory.glob("*.npz")))
            if cache.directory is not None
            else 0
        ),
        drift_triggers=int(exported.get("drift.triggers", 0)),
        drift_revises=int(exported.get("drift.revises", 0)),
        drift_swaps=int(exported.get("drift.swaps", 0)),
        drift_revise_errors=int(exported.get("drift.revise_errors", 0)),
        scheme_switches=sum(
            int(getattr(stats, "scheme_switches", 0))
            for stats, _, _, _ in closed_records
        ),
        oracle_failures=oracle_failures,
        errors=errors,
        pool_stats=pool_stats,
        metrics=exported,
    )
    if log is not None:
        log(report.summary())
    return report
