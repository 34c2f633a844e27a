"""Multi-tenant serving: many concurrent streams over cached plans.

:class:`MatcherPool` is the serve-many half of the compile-once split: one
warmed plan-backed matcher per language class and compile config, shared by
tenants whose DFAs are language-equivalent, and any number of concurrent
streams over those matchers.  It is the locking shell around
:class:`~repro.serving.state.PoolState`: each critical section takes the
pool's one plain lock, applies one transition and lets go, while compiles,
scheme feeds, fused dispatch and revises run outside it.  Every public
method is thread-safe, each stream's own lock serializes its feeds and
close, and locks nest stream → pool → cache (``docs/architecture.md``,
"Serving concurrency contract").

Typical serving loop::

    pool = MatcherPool(PlanCache(capacity=8))
    sid = pool.open(dfa, training_input=train)   # compile-or-hit
    ...
    pool.feed(sid, segment)                      # any interleaving of sids
    ...
    stats = pool.close(sid)                      # final stream summary
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from itertools import chain
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.dfa import _as_symbol_array
from repro.engine.fused import FusedBatchEngine
from repro.errors import ServingError
from repro.framework import GSpecPalConfig
from repro.framework.gspecpal import GSpecPal
from repro.schemes import SchemeResult
from repro.serving.cache import PlanCache
from repro.serving.drift import DriftMonitor
from repro.serving.state import ClassRecord, PoolState, StreamEntry, closed_error
from repro.speculation.observations import LiveObservations

#: Narrowest same-record group :meth:`MatcherPool.feed_many` fuses.
FUSED_MIN_STREAMS = 2


@dataclass(frozen=True)
class StreamStats:
    """Summary returned by :meth:`MatcherPool.close`.

    ``fingerprint`` is the content fingerprint of the stream's plan,
    ``canonical_fingerprint`` its language class; ``scheme_switches``
    counts drift hot-swaps and ``decision_path`` is the Fig. 6 path of the
    selection last served (``("forced",)`` for a forced scheme).
    """

    stream_id: int
    fingerprint: str
    scheme: str
    segments: int
    total_symbols: int
    total_cycles: float
    end_state: int
    accepts: bool
    canonical_fingerprint: str = ""
    scheme_switches: int = 0
    decision_path: Tuple[str, ...] = ()


@dataclass(frozen=True)
class FeedOutcome:
    """Per-feed result of :meth:`MatcherPool.feed_many`: the new carried
    state of an ``ok`` feed, else the ``error`` a lone ``feed`` would have
    raised (one bad feed never poisons its batchmates)."""

    stream_id: int
    ok: bool
    end_state: Optional[int] = None
    accepts: Optional[bool] = None
    symbols: int = 0
    fused: bool = False
    error: Optional[ServingError] = None


def _checked_symbols(segment, n_symbols: int, stream_id=None) -> np.ndarray:
    """``segment`` as a symbol array, refused unless every symbol is in the
    serving DFA's alphabet — the pool boundary's only input check, so no
    layer below ever indexes a table with a tenant's raw byte."""
    symbols = _as_symbol_array(segment)
    if symbols.size and (symbols.min() < 0 or symbols.max() >= n_symbols):
        at = int(np.argmax((symbols < 0) | (symbols >= n_symbols)))
        raise ServingError(
            f"symbol {int(symbols[at])} at offset {at} is outside the "
            f"automaton's alphabet [0, {n_symbols})",
            code="invalid_symbol",
            stream_id=stream_id,
        )
    return symbols


class MatcherPool:
    """Serve many concurrent streams over plan-cached matchers.

    Parameters
    ----------
    cache:
        Shared :class:`PlanCache` (a private one when omitted).
    config:
        The serving config plans are compiled under and whose resolved
        ``backend`` / ``selfcheck`` every matcher is served with; omitted,
        the cache's, else the default :class:`GSpecPalConfig`.
    backend:
        Beats the config's backend (which beats ``$REPRO_BACKEND``, then
        ``"sim"``).  ``selfcheck`` has no override.
    max_streams:
        Upper bound on concurrently open streams (admission control).
    fused:
        Each :meth:`feed_many` wave steps every group of at least
        :data:`FUSED_MIN_STREAMS` feeds on one class record in one
        answer-only kernel pass over the disjoint union of the groups'
        tables (:class:`~repro.engine.fused.FusedBatchEngine`;
        ``total_cycles`` is NaN).
    open_timeout:
        Seconds :meth:`open` may wait for a slot at capacity (``None``
        rejects at once with a retryable ``code="capacity"``).
    drift:
        One :class:`~repro.serving.DriftMonitor` per class record folds
        every unforced feed's evidence (a forced-scheme stream's, alone
        or in a fused gang, is dropped); the feed that fires it revises
        the plan inline, and open sessions swap at their next boundary.
    metrics:
        The registry for ``serving.pool.*`` / ``drift.*`` (the cache's by
        default); :meth:`stats` is a view of it.

    ``state`` is the :class:`~repro.serving.state.PoolState` the pool's
    lock guards: read it to inspect the bookkeeping, never transition it.
    """

    def __init__(
        self,
        cache: Optional[PlanCache] = None,
        *,
        config=None,
        backend: Optional[str] = None,
        max_streams: int = 64,
        fused: bool = False,
        open_timeout: Optional[float] = None,
        drift: bool = False,
        metrics=None,
    ):
        if max_streams < 1:
            raise ServingError(
                f"max_streams must be >= 1, got {max_streams}", code="invalid_argument"
            )
        if cache is None:
            cache = PlanCache(config=config, metrics=metrics)
        self.cache = cache
        config = config or cache.config or GSpecPalConfig()
        self.config = config if backend is None else replace(config, backend=backend)
        self.max_streams = int(max_streams)
        self.fused = bool(fused)
        self.open_timeout = open_timeout
        self.metrics = metrics or cache.metrics
        self.drift = bool(drift)
        self.state = PoolState(self.max_streams, cache.__contains__, cache.capacity)
        self._lock = threading.Lock()
        #: signalled whenever a close or an abandoned reservation frees a slot.
        self._slot_freed = threading.Condition(self._lock)

    @property
    def active(self) -> int:
        """Number of currently open streams."""
        with self._lock:
            return self.state.active

    def stats(self) -> Dict[str, object]:
        """Live sizes plus a view of the ``serving.pool.*`` counters."""
        count = self.metrics.counter
        with self._lock:
            return {
                "active_streams": self.state.active,
                "opened": int(count("serving.pool.opened").value),
                "closed": int(count("serving.pool.closed").value),
                "rejected": int(count("serving.pool.rejected").value),
                "reserved": self.state.reserved,
                "matchers": len(self.state.classes),
                "cache": self.cache.stats(),
            }

    def open(
        self, dfa=None, *, training_input=None, plan=None, scheme: Optional[str] = None
    ) -> int:
        """Open a stream on a precompiled ``plan`` or a ``dfa`` (with
        ``training_input`` if its plan may not be cached); returns its id.

        ``scheme`` forces a scheme, checked before any compile work.
        Admission runs first, so a rejected open (``code="capacity"``, the
        wire's backpressure signal) costs nothing; the compile then runs
        outside the pool lock on the reserved slot, released if it fails.
        """
        GSpecPal.validate_scheme_name(scheme)
        if plan is None and dfa is None:
            raise ServingError(
                "open() needs a dfa or a precompiled plan", code="invalid_argument"
            )
        with self._slot_freed:
            deadline = perf_counter() + (self.open_timeout or 0)
            while not self.state.reserve():
                remaining = deadline - perf_counter()
                if remaining <= 0:
                    self.metrics.counter("serving.pool.rejected").inc()
                    raise ServingError(
                        f"stream capacity exhausted ({self.max_streams} open); "
                        "close a stream before opening another",
                        code="capacity",
                        retryable=True,
                        fingerprint=plan.fingerprint if plan is not None else None,
                    )
                self._slot_freed.wait(remaining)
        try:
            if plan is None:
                if training_input is not None:
                    training_input = _checked_symbols(training_input, dfa.n_symbols)
                plan = self.cache.get_or_compile(dfa, training_input, self.config)
            else:
                self.cache.put(plan)
        except BaseException:
            with self._slot_freed:
                self.state.release()
                self._slot_freed.notify()
            raise
        # A reloaded or language-equivalent plan keys the same record and
        # keeps its warmed matcher; another config's plan gets its own.
        with self._slot_freed:
            try:
                stream_id = self.state.admit(
                    plan,
                    self._build_record,
                    lambda matcher: matcher.stream(scheme=scheme, evidence=self.drift),
                    forced=scheme is not None,
                )
            except BaseException:
                self._slot_freed.notify()  # admit released the reservation
                raise
            self.metrics.counter("serving.pool.opened").inc()
            self.metrics.gauge("serving.pool.active").set(self.state.active)
        return stream_id

    def _build_record(self, key, plan) -> ClassRecord:
        """A new class's record: ``plan``'s matcher under the serving
        switches, and its drift monitor when drift is on."""
        cfg = self.config
        matcher = GSpecPal.from_plan(plan, backend=cfg.backend, selfcheck=cfg.selfcheck)
        return ClassRecord(key, matcher, DriftMonitor(plan) if self.drift else None)

    def _lookup(self, stream_id) -> StreamEntry:
        """The open stream's entry, under one pool-lock acquisition."""
        with self._lock:
            return self.state.lookup(stream_id)

    def feed(self, stream_id: int, segment) -> SchemeResult:
        """Process one segment on the stream, under its lock.  A closed
        stream raises ``code="stream_closed"``, an id that is not an ``int``
        from :meth:`open` ``code="unknown_stream"``, and a symbol outside
        the alphabet ``code="invalid_symbol"``."""
        entry = self._lookup(stream_id)
        n_symbols = entry.record.matcher.dfa.n_symbols
        symbols = _checked_symbols(segment, n_symbols, stream_id)
        return self._feed_entry(stream_id, entry, symbols)

    def _feed_entry(self, stream_id, entry: StreamEntry, segment) -> SchemeResult:
        started = perf_counter()
        with entry.lock:
            if entry.closed:
                raise closed_error(stream_id, entry.fingerprint)
            result = entry.session.feed(segment)
            if not entry.forced:
                self._observe(entry.record, result.observations)
        self.metrics.counter("serving.pool.feeds").inc()
        self.metrics.histogram("serving.pool.feed_ms").observe(
            (perf_counter() - started) * 1e3
        )
        return result

    # -- online adaptation: drift detection and plan hot-swap --
    def _observe(self, record: ClassRecord, observations) -> None:
        """Fold one run's unforced evidence into the record's monitor and
        revise if it fired; the firing fold also takes the revise's inputs
        (a latched monitor never touches its breach window again)."""
        monitor = record.monitor
        if monitor is None or observations is None:
            return
        with self._lock:
            fired = monitor.observe(observations)
            self.metrics.counter("drift.observations").inc()
            self.metrics.gauge("drift.divergence").set(monitor.divergence)
            if fired:
                self.metrics.counter("drift.triggers").inc()
                stale, evidence = record.matcher.plan, monitor.snapshot()
        if fired:
            self._run_revise(record, stale, evidence)

    def _run_revise(self, record: ClassRecord, stale, evidence) -> None:
        """Revise one record's plan in the feed that fired its monitor,
        under that stream's lock (so the record stays held and a racing
        close waits); only the ``adopt`` takes the pool lock."""
        from repro.plan import revise_plan

        try:
            revised = revise_plan(stale, evidence, metrics=self.metrics)
            self.cache.put(revised)
            with self._lock:
                lag = self.state.adopt(record, revised)
        except Exception:
            # The stale plan keeps serving (correct, just slow) and the
            # latched monitor cannot refire in a loop; the feed succeeds.
            self.metrics.counter("drift.revise_errors").inc()
            return
        self.metrics.counter("drift.revises").inc()
        if revised.scheme != stale.scheme:
            self.metrics.counter("drift.swaps").inc()
        self.metrics.histogram("drift.observation_lag_segments").observe(lag)

    # -- gang scheduling: fused cross-stream dispatch --
    def feed_many(self, feeds: Sequence[Tuple[int, object]]) -> Tuple[FeedOutcome, ...]:
        """Process many ``(stream_id, segment)`` feeds, gang-scheduled;
        returns one :class:`FeedOutcome` per feed, in input order.

        Each feed is answer-identical to :meth:`feed`.  A wave's fused
        pass holds every participant's stream lock, across classes (taken
        in id order), so a racing close lands before or after it.  A
        repeated stream id's segments apply in input order, one per wave.
        """
        feeds = list(feeds)
        outcomes: List[Optional[FeedOutcome]] = [None] * len(feeds)
        pending = list(enumerate(feeds))
        while pending:
            # One wave: each stream id at most once.  Only an exact int
            # names a stream; any other id (an unhashable one included)
            # joins the first wave, where the lookup refuses it alone.
            wave, later, seen = [], [], set()
            for idx, (stream_id, segment) in pending:
                exact = type(stream_id) is int
                if exact and stream_id in seen:
                    later.append((idx, (stream_id, segment)))
                else:
                    if exact:
                        seen.add(stream_id)
                    wave.append((idx, stream_id, segment))
            self._dispatch_wave(wave, outcomes)
            pending = later
        return tuple(outcomes)  # type: ignore[arg-type]

    def _dispatch_wave(self, wave, outcomes) -> None:
        """Look the wave up under one pool-lock acquisition and group it by
        class record (language-equivalent plans gang); every group of at
        least :data:`FUSED_MIN_STREAMS` joins one union pass."""
        found = []
        with self._lock:
            for idx, stream_id, segment in wave:
                try:
                    entry = self.state.lookup(stream_id)
                except ServingError as exc:
                    outcomes[idx] = FeedOutcome(stream_id, False, error=exc)
                else:
                    found.append((idx, stream_id, entry, segment))
        groups: Dict[ClassRecord, list] = {}
        for idx, stream_id, entry, segment in found:
            n_symbols = entry.record.matcher.dfa.n_symbols
            try:
                symbols = _checked_symbols(segment, n_symbols, stream_id)
            except ServingError as exc:
                outcomes[idx] = FeedOutcome(stream_id, False, error=exc)
            else:
                groups.setdefault(entry.record, []).append(
                    (idx, stream_id, entry, symbols)
                )
        fused = {}
        for record, group in groups.items():
            if self.fused and len(group) >= FUSED_MIN_STREAMS:
                fused[record] = group
            else:
                self._dispatch_sequential(group, outcomes)
        if fused:
            self._dispatch_union(fused, outcomes)

    def _dispatch_sequential(self, group, outcomes) -> None:
        """Per-stream fallback: each feed runs the ordinary scheme path."""
        for idx, stream_id, entry, segment in group:
            try:
                result = self._feed_entry(stream_id, entry, segment)
            except ServingError as exc:
                outcomes[idx] = FeedOutcome(stream_id, False, error=exc)
            else:
                outcomes[idx] = FeedOutcome(
                    stream_id=stream_id,
                    ok=True,
                    end_state=int(result.end_state),
                    accepts=bool(result.accepts),
                    symbols=int(segment.size),
                )
            self.metrics.counter("serving.pool.fused_fallbacks").inc()

    def _dispatch_union(self, groups, outcomes) -> None:
        """One kernel pass over the wave's fused groups, under every
        participant's stream lock (taken in id order across classes).  A
        stream found closed under its lock gets ``stream_closed``; the
        union its class set keeps still serves the rest."""
        started = perf_counter()
        records = tuple(sorted(groups, key=lambda record: record.key))
        with self._lock:
            union = self.state.union(records)
        if union is None:
            # Built outside every lock (a racing build is harmless: each pass
            # steps the union it got); a fast class alone reuses its table.
            dfas = [record.matcher.dfa for record in records]
            alone = len(dfas) == 1 and self.config.backend == "fast"
            own = records[0].matcher._simulator().engine if alone else None
            union = FusedBatchEngine(dfas, own)
            with self._lock:
                self.state.keep(records, union)
        feeds = sorted(chain(*groups.values()), key=lambda feed: feed[1])
        locked: List[StreamEntry] = []
        live = []
        try:
            for idx, stream_id, entry, segment in feeds:
                entry.lock.acquire()
                locked.append(entry)
                if entry.closed:
                    error = closed_error(stream_id, entry.fingerprint)
                    outcomes[idx] = FeedOutcome(stream_id, False, error=error)
                else:
                    live.append((idx, stream_id, entry, segment))
            if not live:
                return
            ends = union.dispatch(
                [records.index(entry.record) for _, _, entry, _ in live],
                [segment for *_ignored, segment in live],
                [entry.session.state for _, _, entry, _ in live],
                selfcheck=self.config.selfcheck,
            )
            for (idx, stream_id, entry, segment), end in zip(live, ends):
                entry.session.apply_fused(segment, int(end))
                outcomes[idx] = FeedOutcome(
                    stream_id=stream_id,
                    ok=True,
                    end_state=entry.session.state,
                    accepts=entry.session.accepts,
                    symbols=int(segment.size),
                    fused=True,
                )
        finally:
            for entry in reversed(locked):
                entry.lock.release()
        count = self.metrics.counter
        count("serving.pool.fused_dispatches").inc()
        count("serving.pool.feeds").inc(len(live))
        count("serving.pool.fused_streams").inc(len(live))
        count("serving.pool.fused_symbols").inc(sum(int(f[3].size) for f in live))
        self.metrics.histogram("serving.pool.fused_batch_width").observe(len(live))
        self.metrics.histogram("serving.pool.fused_ms").observe(
            (perf_counter() - started) * 1e3
        )
        # Fused execution verifies no chunk boundaries: a sample-free
        # observation per class lets drift count its unforced traffic.
        for record in records:
            unforced = [
                segment
                for _, _, entry, segment in live
                if entry.record is record and not entry.forced
            ]
            if unforced:
                symbols = sum(int(segment.size) for segment in unforced)
                observed = LiveObservations(
                    scheme="fused", spec_k=1, segments=len(unforced), symbols=symbols
                )
                self._observe(record, observed)

    def close(self, stream_id: int) -> StreamStats:
        """Close a stream and return its summary, built under the stream's
        lock after ``closed`` flips (exactly what the last feed left).  Its
        class record stays until a prune finds it unneeded."""
        entry = self._lookup(stream_id)
        with entry.lock:
            if entry.closed:
                raise closed_error(stream_id, entry.fingerprint)
            entry.closed = True
            with self._slot_freed:
                self.state.retire(stream_id)
                plan = entry.record.matcher.plan
                self.metrics.counter("serving.pool.closed").inc()
                self.metrics.gauge("serving.pool.active").set(self.state.active)
                self._slot_freed.notify()
            session = entry.session
            scheme, decision_path = session.scheme, tuple(session.decision_path)
            if scheme is None:
                # Never fed: report what a segment would have run.
                scheme, decision_path = plan.scheme, tuple(plan.decision_path)
            return StreamStats(
                stream_id=stream_id,
                fingerprint=entry.fingerprint,
                scheme=scheme,
                segments=session.segments,
                total_symbols=session.total_symbols,
                total_cycles=session.total_cycles,
                end_state=session.state,
                accepts=session.accepts,
                canonical_fingerprint=plan.canonical_fingerprint,
                scheme_switches=session.scheme_switches,
                decision_path=decision_path,
            )

    def close_all(self) -> Tuple[StreamStats, ...]:
        """Close every stream open at the snapshot; returns the summaries
        of the streams *this call* closed.  A stream another thread closes
        meanwhile is skipped, so concurrent calls partition the streams."""
        with self._lock:
            ids = tuple(self.state.entries)
        summaries = []
        for sid in ids:
            try:
                summaries.append(self.close(sid))
            except ServingError as exc:
                if exc.code not in ("unknown_stream", "stream_closed"):
                    raise
        return tuple(summaries)
