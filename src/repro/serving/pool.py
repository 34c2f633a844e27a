"""Multi-tenant serving: many concurrent streams over cached plans.

:class:`MatcherPool` is the serve-many half of the compile-once split.  It
keeps one record per *language class and compile config* — keyed by the
plan's canonical fingerprint and config hash, so tenants submitting
language-equivalent DFAs share one warmed
:class:`~repro.framework.GSpecPal` matcher (built via
``GSpecPal.from_plan`` — zero profiling on the serving path) — and
multiplexes any number of concurrent
:class:`~repro.framework.gspecpal.StreamSession`\\ s over those matchers.
A stream keeps the record it was opened on, so after ``open`` nothing
looks a matcher up again.
Plans come from a shared :class:`~repro.serving.PlanCache`, so N tenants
matching the same (or an equivalent) automaton cost one compile, one
simulator, and one scheme instance per stream — nothing else.

Concurrency contract (see ``docs/architecture.md``): every public method is
thread-safe.  The pool lock only guards bookkeeping; each stream carries
its own lock making :meth:`MatcherPool.feed` and :meth:`MatcherPool.close`
mutually exclusive *per stream id* — concurrent feeds to different streams
run in parallel, while a feed racing a close of the same stream gets a
structured :class:`~repro.errors.ServingError` (``code="stream_closed"``)
instead of running on a released session.  Admission control rejects opens
beyond ``max_streams`` with a retryable ``code="capacity"`` error, or —
with ``open_timeout`` set — waits boundedly for a slot.  Locks nest
stream → pool → cache, and the cache never calls back into the pool.
With drift detection on, the feed whose evidence fires a class's monitor
runs that class's revise inline, under its stream lock, so the pool
starts no thread.  A class record is dropped once nothing needs it
(:meth:`MatcherPool._prune_locked`).

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
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.automata.dfa import _as_symbol_array
from repro.errors import ServingError
from repro.framework import GSpecPalConfig
from repro.framework.gspecpal import GSpecPal, StreamSession
from repro.plan import CompiledPlan
from repro.schemes import SchemeResult
from repro.serving.cache import PlanCache
from repro.serving.drift import DriftMonitor
from repro.speculation.observations import LiveObservations

#: Narrowest same-plan group :meth:`MatcherPool.feed_many` fuses; a lone
#: feed gains nothing from the gang layout and runs per-stream.
FUSED_MIN_STREAMS = 2


@dataclass(frozen=True)
class StreamStats:
    """Summary returned by :meth:`MatcherPool.close`.

    ``fingerprint`` is the content fingerprint of the plan the stream was
    opened with; ``canonical_fingerprint`` identifies its language class
    (shared across aliased tenants served by one matcher).
    ``scheme_switches`` counts segment-boundary scheme changes over the
    stream's lifetime (drift hot-swaps land here), and ``decision_path``
    is the Fig. 6 node path behind the selection the stream last served
    (``("forced",)`` when a scheme was forced at open) — together they let
    close-time audits assert when and why a stream was swapped.
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
    """Per-feed result of one :meth:`MatcherPool.feed_many` call.

    A gang dispatch must not let one closed stream poison its batchmates,
    so instead of raising, ``feed_many`` reports every feed individually:
    ``ok`` feeds carry the stream's new carried state, failed feeds carry
    the structured :class:`~repro.errors.ServingError` a lone :meth:`feed`
    would have raised (``unknown_stream`` / ``stream_closed`` /
    ``invalid_symbol``).

    Attributes
    ----------
    stream_id / ok:
        The feed's target and whether it was applied.
    end_state / accepts:
        Carried state after the segment (``None`` on failure).
    symbols:
        Symbols advanced by this feed (0 on failure).
    fused:
        True when the segment ran inside a fused cross-stream dispatch;
        False when it fell back to the per-stream scheme path (pool not in
        fused mode, or the batch too narrow to gang).
    error:
        The structured error for a failed feed, ``None`` otherwise.
    """

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


def _closed_error(stream_id, fingerprint: Optional[str] = None) -> ServingError:
    """The structured error for a feed or close of a closed stream."""
    return ServingError(
        f"stream {stream_id} is closed",
        code="stream_closed",
        stream_id=stream_id,
        fingerprint=fingerprint,
    )


class _ClassRecord:
    """One language class under one compile config: its warmed matcher
    and, with drift detection on, its monitor.

    Built at the first ``open`` of its ``key`` — ``(canonical
    fingerprint, config hash)`` — and held by every stream opened on it,
    which is also the gang-scheduling unit: streams sharing a record run
    one transition table.  ``streams`` counts those holders (under the
    pool lock) for :meth:`MatcherPool._prune_locked`.
    """

    __slots__ = ("key", "matcher", "monitor", "streams")

    def __init__(self, key, matcher: GSpecPal, drift: bool):
        self.key = key
        self.matcher = matcher
        self.streams = 0
        #: anchored to the plan the matcher serves; None with drift off.
        self.monitor = DriftMonitor(matcher.plan) if drift else None


class _StreamEntry:
    """Pool-side record of one open stream.

    ``lock`` serializes feed/close on this stream only; ``closed`` flips
    exactly once, under the lock, so a feed that raced the close observes
    it instead of touching the released session.
    """

    __slots__ = ("session", "fingerprint", "record", "forced", "lock", "closed")

    def __init__(
        self,
        session: StreamSession,
        fingerprint: str,
        record: _ClassRecord,
        forced: bool,
    ):
        self.session = session
        #: content fingerprint of the plan this stream was opened with.
        self.fingerprint = fingerprint
        #: the class record whose matcher serves this stream.
        self.record = record
        #: opened with a forced scheme: its accuracy describes that scheme,
        #: not the plan's selection, so it feeds no drift evidence.
        self.forced = forced
        self.lock = threading.Lock()
        self.closed = False


class MatcherPool:
    """Serve many concurrent streams over plan-cached matchers.

    Parameters
    ----------
    cache:
        Shared :class:`PlanCache`; a private default-capacity one is
        created when omitted.
    config:
        The pool's serving config: what plans the pool compiles are
        compiled under, and whose resolved ``backend`` / ``selfcheck``
        switches every matcher is served with.  Omitted, the cache's
        config is used, else the default :class:`GSpecPalConfig`; either
        way it is settled once, here.
    backend:
        Overrides the serving config's backend (which already resolved
        ``$REPRO_BACKEND``, else ``"sim"``).  Precedence, highest first:
        this argument, the config's explicit ``backend``,
        ``$REPRO_BACKEND``, ``"sim"``.  ``selfcheck`` has no override: the
        config's explicit value, else ``$REPRO_SELFCHECK``.
    max_streams:
        Upper bound on concurrently open streams (admission control).
    fused:
        Opt into gang scheduling: :meth:`feed_many` coalesces pending
        feeds whose streams share a matcher into one fused
        ``(streams × lanes)`` dispatch (see
        :class:`~repro.engine.fused.FusedBatchEngine`) instead of N
        per-stream scheme runs.  Off by default — fused streams report
        ``total_cycles = NaN`` (answer-only execution), so cycle-accounting
        consumers should stay per-stream.  Groups narrower than
        :data:`FUSED_MIN_STREAMS` fall back to the per-stream path
        (counted by ``serving.pool.fused_fallbacks``).
    open_timeout:
        Seconds :meth:`open` may block waiting for a slot when the pool is
        at capacity (``None`` — the default — rejects immediately).  Both
        paths raise a retryable ``ServingError(code="capacity")`` when no
        slot frees up.
    drift:
        Opt into online adaptation: ``True`` attaches one
        :class:`~repro.serving.DriftMonitor` (the fixed policy of
        :mod:`repro.serving.drift`) per class record.  Every unforced
        feed's :class:`LiveObservations` are folded in under the pool
        lock; when live speculation accuracy diverges from the plan's
        profiled anchors past ``drift.THRESHOLD``, the feed that fired
        runs one ``revise_plan`` inline before it returns, installs the
        revision into the cache and the matcher, and open sessions pick
        up the new scheme at their next segment boundary.  With a spill
        directory, that feed also writes the revision's spill file.  A
        stream opened with a forced ``scheme`` is exempt both ways: it
        feeds no evidence and never swaps.  Off by default.
    metrics:
        The registry the pool records ``serving.pool.*`` / ``drift.*`` /
        ``compile.stage.revise_ms`` into; it defaults to the cache's, so
        one stack shares one registry.  Its matchers record nothing into
        it: simulated work lives in each feed's ledger.
        Instruments are safe to record from any thread, :meth:`stats` is a
        view of the registry, and a registry is the scope of its counts:
        pools sharing one report its totals.
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
                f"max_streams must be >= 1, got {max_streams}",
                code="invalid_argument",
            )
        self.cache = (
            cache
            if cache is not None
            else PlanCache(config=config, metrics=metrics)
        )
        config = config or self.cache.config or GSpecPalConfig()
        if backend is not None:
            config = replace(config, backend=backend)
        self.config = config
        self.max_streams = int(max_streams)
        self.fused = bool(fused)
        self.open_timeout = open_timeout
        self.metrics = metrics or self.cache.metrics
        self.drift = bool(drift)
        #: (canonical fingerprint, config hash) → that class's record.
        self._classes: Dict[Tuple[str, str], _ClassRecord] = {}
        #: key of a pruned record → the plan it served; a rebuild uses it,
        #: so the class keeps the numbering of the first variant opened.
        self._pruned: Dict[Tuple[str, str], CompiledPlan] = {}
        self._entries: Dict[int, _StreamEntry] = {}
        self._next_id = 0
        #: admission slots reserved by opens that are still compiling —
        #: they count against ``max_streams`` but have no entry yet.
        self._reserved = 0
        self._lock = threading.RLock()
        #: signalled whenever a close (or an abandoned reservation) frees
        #: a stream slot.
        self._slot_freed = threading.Condition(self._lock)

    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        """Number of currently open streams."""
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Live sizes plus a view of the registry's ``serving.pool.*``
        lifecycle counters."""
        count = self.metrics.counter
        with self._lock:
            return {
                "active_streams": len(self._entries),
                "opened": int(count("serving.pool.opened").value),
                "closed": int(count("serving.pool.closed").value),
                "rejected": int(count("serving.pool.rejected").value),
                "reserved": self._reserved,
                "matchers": len(self._classes),
                "cache": self.cache.stats(),
            }

    # ------------------------------------------------------------------
    def open(
        self,
        dfa=None,
        *,
        training_input=None,
        plan=None,
        scheme: Optional[str] = None,
    ) -> int:
        """Open a stream; returns its id for :meth:`feed`/:meth:`close`.

        Pass either a precompiled ``plan`` or a ``dfa`` (with
        ``training_input`` if its plan may not be cached yet).  ``scheme``
        forces a scheme for this stream; it is validated against
        ``GSpecPal.KNOWN_SCHEMES`` and ``GSpecPal.PM_ALIAS``
        (``pm-spec4``) *before* any compile work, so a typo
        fails immediately instead of after paying a cold compile.  By
        default every segment uses the plan's compiled selection.  A
        ``training_input`` holding a symbol outside ``dfa``'s alphabet is
        refused with ``code="invalid_symbol"``.

        At capacity, the call raises a retryable
        ``ServingError(code="capacity")`` — or, when ``open_timeout`` is
        set, waits up to that many seconds for another stream to close
        before rejecting.  Admission runs *before* any compile work: a
        rejected open costs the caller nothing (rejections must be cheap
        — they are the wire-level backpressure signal), and the compile
        itself runs outside the pool lock against a reserved slot that is
        released if the compile fails.
        """
        GSpecPal.validate_scheme_name(scheme)
        if plan is None and dfa is None:
            raise ServingError(
                "open() needs a dfa or a precompiled plan",
                code="invalid_argument",
            )
        # Admission first: reserve a slot (bounded wait with open_timeout)
        # before paying for a compile, so a tenant rejected at capacity
        # never burns a cold compile on a stream it cannot open.
        self._reserve_slot(plan.fingerprint if plan is not None else None)
        try:
            if plan is None:
                if training_input is not None:
                    training_input = _checked_symbols(
                        training_input, dfa.n_symbols
                    )
                plan = self.cache.get_or_compile(
                    dfa, training_input, self.config
                )
            else:
                self.cache.put(plan)
        except BaseException:
            self._release_slot()
            raise
        with self._slot_freed:
            try:
                # A plan reloaded from disk, or a language-equivalent one,
                # keys the same record and so keeps its warmed matcher; a
                # plan compiled under another config gets its own.  A
                # pruned record is rebuilt from the plan it served.
                key = (plan.canonical_fingerprint, plan.config_hash)
                record = self._classes.get(key)
                if record is None:
                    matcher = GSpecPal.from_plan(
                        self._pruned.get(key, plan),
                        backend=self.config.backend,
                        selfcheck=self.config.selfcheck,
                    )
                    record = self._classes[key] = _ClassRecord(
                        key, matcher, self.drift
                    )
                    self._pruned.pop(key, None)
                session = record.matcher.stream(scheme=scheme)
            except BaseException:
                self._release_slot()
                raise
            # Convert the reservation into the entry (net slot count is
            # unchanged, so no waiter is woken).
            self._reserved -= 1
            stream_id = self._next_id
            self._next_id += 1
            self._entries[stream_id] = _StreamEntry(
                session, plan.fingerprint, record, scheme is not None
            )
            record.streams += 1
            self._prune_locked()
            self.metrics.counter("serving.pool.opened").inc()
            self.metrics.gauge("serving.pool.active").set(len(self._entries))
            return stream_id

    def _reserve_slot(self, fingerprint: Optional[str] = None) -> None:
        """Claim one admission slot or raise the retryable capacity error.

        Reserved slots count against ``max_streams`` alongside live
        entries, so concurrent opens cannot over-admit while their
        compiles are in flight.  ``fingerprint`` only annotates the error
        (it is known when the caller brought a precompiled plan).
        """
        with self._slot_freed:
            deadline = None
            while len(self._entries) + self._reserved >= self.max_streams:
                if self.open_timeout is not None and self.open_timeout > 0:
                    if deadline is None:
                        deadline = perf_counter() + self.open_timeout
                    remaining = deadline - perf_counter()
                    if remaining > 0:
                        self._slot_freed.wait(remaining)
                        continue
                self.metrics.counter("serving.pool.rejected").inc()
                raise ServingError(
                    f"stream capacity exhausted ({self.max_streams} open); "
                    "close a stream before opening another",
                    code="capacity",
                    retryable=True,
                    fingerprint=fingerprint,
                )
            self._reserved += 1

    def _release_slot(self) -> None:
        """Abandon a reservation (the open failed before creating its
        entry) and wake one waiter blocked on admission."""
        with self._slot_freed:
            self._reserved -= 1
            self._slot_freed.notify()

    def _missing_stream_error(self, stream_id, next_id: int) -> ServingError:
        """Classify a miss: an id below the allocation cursor was opened
        and has since closed (ids are handed out sequentially and never
        reused), anything else never existed — so the structured code is
        exact, matching what a feed racing the close itself would get."""
        try:
            was_opened = 0 <= int(stream_id) < next_id and int(stream_id) == stream_id
        except (TypeError, ValueError):
            was_opened = False
        if was_opened:
            return _closed_error(stream_id)
        return ServingError(
            f"unknown stream id {stream_id}",
            code="unknown_stream",
            stream_id=stream_id,
        )

    def _entry(self, stream_id: int) -> _StreamEntry:
        with self._lock:
            entry = self._entries.get(stream_id)
            next_id = self._next_id
        if entry is None:
            raise self._missing_stream_error(stream_id, next_id)
        return entry

    def feed(self, stream_id: int, segment) -> SchemeResult:
        """Process one segment on the identified stream.

        Feeds to the same stream are serialized by its per-stream lock
        (two threads can never interleave on one session's carried state);
        feeds to different streams proceed concurrently.  Feeding a stream
        that a racing thread closed raises ``code="stream_closed"``; a
        segment holding a symbol outside the DFA's alphabet is refused with
        ``code="invalid_symbol"`` and leaves the stream untouched.
        """
        entry = self._entry(stream_id)
        n_symbols = entry.record.matcher.dfa.n_symbols
        symbols = _checked_symbols(segment, n_symbols, stream_id)
        return self._feed_entry(stream_id, entry, symbols)

    def _feed_entry(
        self, stream_id: int, entry: _StreamEntry, segment: np.ndarray
    ) -> SchemeResult:
        started = perf_counter()
        with entry.lock:
            if entry.closed:
                raise _closed_error(stream_id, entry.fingerprint)
            result = entry.session.feed(segment)
            if self._observe(entry.record, result.observations, entry.forced):
                self._run_revise(entry.record)
        self.metrics.counter("serving.pool.feeds").inc()
        self.metrics.histogram("serving.pool.feed_ms").observe(
            (perf_counter() - started) * 1e3
        )
        return result

    # ------------------------------------------------------------------
    # online adaptation (drift detection + plan hot-swap)
    # ------------------------------------------------------------------
    def _observe(self, record: _ClassRecord, observations, forced=False) -> bool:
        """Feed one run's evidence to the record's drift monitor.

        The monitor is state, so it is folded under the pool lock (taken
        only when drift detection is on).  A forced stream's evidence is
        dropped: its accuracy was measured at another scheme's depth than
        the plan's anchor.  Returns True when the monitor just fired and
        the caller should run the revise.
        """
        monitor = record.monitor
        if monitor is None or observations is None or forced:
            return False
        with self._lock:
            fired = monitor.observe(observations)
            self.metrics.counter("drift.observations").inc()
            self.metrics.gauge("drift.divergence").set(monitor.divergence)
            if fired:
                self.metrics.counter("drift.triggers").inc()
        return fired

    def _run_revise(self, record: _ClassRecord) -> None:
        """Revise one record's plan from its monitor's evidence.

        Runs in the feed that fired the monitor, under that stream's lock:
        the stream holds the record for the whole revise (a racing
        ``close`` waits on the lock), and the monitor's fire-once latch
        keeps it to one revise per trigger.  The expensive step
        (``revise_plan`` — one selector walk plus one cost-model
        evaluation) and the cache install (with its spill file, if any)
        run outside the pool lock; the snapshot before them and the
        matcher install after them each take it briefly.  The revision
        goes into both the shared cache (so future opens get it) and the
        live matcher (so open sessions swap at their next segment
        boundary).
        """
        from repro.plan import revise_plan

        try:
            with self._lock:
                stale = record.matcher.plan
                observations = record.monitor.snapshot()
            revised = revise_plan(stale, observations, metrics=self.metrics)
            self.cache.put(revised)
            with self._lock:
                record.matcher.adopt_plan(revised)
                self.metrics.counter("drift.revises").inc()
                if revised.scheme != stale.scheme:
                    self.metrics.counter("drift.swaps").inc()
                lag = record.monitor.rearm(revised)
                self.metrics.histogram("drift.observation_lag_segments").observe(lag)
        except Exception:
            # A failed revise must not fail the feed that fired it: the
            # stale plan keeps serving — it is still correct, just slow —
            # the monitor stays latched so the failure cannot refire in a
            # loop, and the error is visible in the counter.
            self.metrics.counter("drift.revise_errors").inc()

    def _prune_locked(self) -> None:
        """Drop every class record nothing needs any more: no open stream
        holds it and its canonical fingerprint is no longer resident in
        the cache.

        The matcher (simulator, scheme state) and monitor go; the plan the
        record served stays in ``_pruned``.  A stream's answers use the
        numbering of that plan (the first variant opened), and the cache
        may next compile the class from a renumbered twin, so the rebuild
        starts from the kept plan, not the cache's.  Called under the pool
        lock; the cache test takes the cache lock inside it (the pool →
        cache order every caller keeps).
        """
        for key, record in list(self._classes.items()):
            if not record.streams and key[0] not in self.cache:
                self._pruned[key] = record.matcher.plan
                del self._classes[key]

    # ------------------------------------------------------------------
    # gang scheduling (fused cross-stream dispatch)
    # ------------------------------------------------------------------
    def feed_many(self, feeds: Sequence[Tuple[int, object]]) -> Tuple[FeedOutcome, ...]:
        """Process many ``(stream_id, segment)`` feeds, gang-scheduled.

        Feeds targeting streams that share a class record are coalesced
        into one fused ``(streams × lanes)`` dispatch when the pool is in
        fused mode and the group is at least :data:`FUSED_MIN_STREAMS` wide;
        everything else runs through the ordinary per-stream scheme path.
        Either way each feed is answer-identical to calling :meth:`feed`
        with the same segment (the differential suites pin this).

        The per-stream-lock contract is preserved: a fused dispatch holds
        every participating stream's lock (acquired in stream-id order, so
        concurrent gang dispatches cannot deadlock) for the duration of
        the batch — a close racing the dispatch either lands before it
        (that feed reports ``stream_closed``) or blocks until the batch
        completes, never mid-batch.  A stream id may appear several times
        in one call; its segments are applied in input order across
        successive dispatch waves.

        Returns one :class:`FeedOutcome` per input feed, in input order.
        Serving-contract failures (unknown/closed streams, a symbol outside
        the alphabet) are reported in the outcomes instead of raised, so
        one bad feed never poisons its batchmates.
        """
        feeds = list(feeds)
        outcomes: List[Optional[FeedOutcome]] = [None] * len(feeds)
        pending = list(enumerate(feeds))
        while pending:
            # One wave: each stream id at most once, so per-stream segment
            # order is preserved across waves.
            wave: List[Tuple[int, int, object]] = []
            seen: set = set()
            later: List[Tuple[int, Tuple[int, object]]] = []
            for idx, (stream_id, segment) in pending:
                if stream_id in seen:
                    later.append((idx, (stream_id, segment)))
                else:
                    seen.add(stream_id)
                    wave.append((idx, stream_id, segment))
            self._dispatch_wave(wave, outcomes)
            pending = later
        return tuple(outcomes)  # type: ignore[arg-type]

    def _dispatch_wave(self, wave, outcomes) -> None:
        """Group one wave by class record and dispatch each group.

        Grouping on the record means streams opened with different but
        language-equivalent plans of one compile config gang into one
        fused dispatch (their sessions all run the record's transition
        table).  The entry table is snapshotted *once* per wave under a
        single lock acquisition — answer-identical to the per-feed
        lookups it replaces (a close racing the wave is still caught
        under the per-stream lock at dispatch time), without hammering
        the pool lock N times per wave."""
        with self._lock:
            entries = dict(self._entries)
            next_id = self._next_id
        groups: Dict[_ClassRecord, List[Tuple[int, int, _StreamEntry, object]]] = {}
        for idx, stream_id, segment in wave:
            entry = entries.get(stream_id)
            try:
                if entry is None:
                    raise self._missing_stream_error(stream_id, next_id)
                symbols = _checked_symbols(
                    segment, entry.record.matcher.dfa.n_symbols, stream_id
                )
            except ServingError as exc:
                outcomes[idx] = FeedOutcome(
                    stream_id=stream_id, ok=False, error=exc
                )
                continue
            groups.setdefault(entry.record, []).append(
                (idx, stream_id, entry, symbols)
            )
        for record, group in groups.items():
            if self.fused and len(group) >= FUSED_MIN_STREAMS:
                self._dispatch_fused(record, group, outcomes)
            else:
                self._dispatch_sequential(group, outcomes)

    def _dispatch_sequential(self, group, outcomes) -> None:
        """Per-stream fallback: each feed runs the ordinary scheme path."""
        for idx, stream_id, entry, segment in group:
            try:
                result = self._feed_entry(stream_id, entry, segment)
            except ServingError as exc:
                outcomes[idx] = FeedOutcome(
                    stream_id=stream_id, ok=False, error=exc
                )
            else:
                outcomes[idx] = FeedOutcome(
                    stream_id=stream_id,
                    ok=True,
                    end_state=int(result.end_state),
                    accepts=bool(result.accepts),
                    symbols=int(segment.size),
                )
            self.metrics.counter("serving.pool.fused_fallbacks").inc()

    def _dispatch_fused(self, record: _ClassRecord, group, outcomes) -> None:
        """One fused dispatch over every live stream in the group.

        Locks are taken in stream-id order and held across the whole
        batch; streams found closed under their lock are reported in their
        outcome and excluded from the dispatch rather than failing it.
        """
        started = perf_counter()
        ordered = sorted(group, key=lambda item: item[1])
        locked: List[_StreamEntry] = []
        try:
            live: List[Tuple[int, int, _StreamEntry, object]] = []
            for idx, stream_id, entry, segment in ordered:
                entry.lock.acquire()
                locked.append(entry)
                if entry.closed:
                    outcomes[idx] = FeedOutcome(
                        stream_id=stream_id,
                        ok=False,
                        error=_closed_error(stream_id, entry.fingerprint),
                    )
                else:
                    live.append((idx, stream_id, entry, segment))
            if not live:
                return
            engine = record.matcher.fused_engine()
            segments = [segment for *_ignored, segment in live]
            starts = [entry.session.state for _, _, entry, _ in live]
            dispatch = engine.dispatch(segments, starts)
            for pos, (idx, stream_id, entry, _segment) in enumerate(live):
                entry.session.apply_fused(
                    segments[pos], int(dispatch.end_states[pos])
                )
                outcomes[idx] = FeedOutcome(
                    stream_id=stream_id,
                    ok=True,
                    end_state=entry.session.state,
                    accepts=entry.session.accepts,
                    symbols=int(segments[pos].size),
                    fused=True,
                )
        finally:
            for entry in reversed(locked):
                entry.lock.release()
        count = self.metrics.counter
        count("serving.pool.fused_dispatches").inc()
        count("serving.pool.feeds").inc(len(live))
        count("serving.pool.fused_streams").inc(len(live))
        count("serving.pool.fused_symbols").inc(dispatch.total_symbols)
        self.metrics.histogram("serving.pool.fused_batch_width").observe(len(live))
        self.metrics.histogram("serving.pool.fused_ms").observe(
            (perf_counter() - started) * 1e3
        )
        # Fused execution bypasses the scheme layer, so it verifies no
        # chunk boundaries — stash a sample-free observation so the drift
        # aggregate still counts the traffic this class is serving.
        if record.monitor is not None:
            self._observe(
                record,
                LiveObservations(
                    scheme="fused",
                    spec_k=1,
                    segments=len(live),
                    symbols=int(dispatch.total_symbols),
                ),
            )

    def close(self, stream_id: int) -> StreamStats:
        """Close a stream and return its final summary.

        The stream's class record (matcher, simulator, drift monitor)
        stays for future streams until :meth:`_prune_locked` finds it
        unneeded; only the per-stream session state is released.
        The summary is built under the stream's lock — after the ``closed``
        flag flips no feed can advance the session — so the reported end
        state is exactly the state the last successful feed left behind.
        """
        entry = self._entry(stream_id)
        with entry.lock:
            if entry.closed:
                raise _closed_error(stream_id, entry.fingerprint)
            entry.closed = True
            session = entry.session
            with self._slot_freed:
                del self._entries[stream_id]
                entry.record.streams -= 1
                self._prune_locked()
                plan = entry.record.matcher.plan
                scheme = session.scheme
                decision_path = tuple(session.decision_path)
                if scheme is None:
                    # Never fed: report what a segment would have run.
                    scheme = plan.scheme
                    decision_path = tuple(plan.decision_path)
                stats = StreamStats(
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
                self.metrics.counter("serving.pool.closed").inc()
                self.metrics.gauge("serving.pool.active").set(len(self._entries))
                self._slot_freed.notify()
        return stats

    def close_all(self) -> Tuple[StreamStats, ...]:
        """Close every stream open at the snapshot; returns the summaries
        of the streams *this call* closed.

        Tolerates races: a stream another thread closes between the
        snapshot and this call's ``close`` is simply skipped, never raised
        on — two concurrent ``close_all`` calls partition the streams
        between them.
        """
        with self._lock:
            ids = tuple(self._entries)
        summaries = []
        for sid in ids:
            try:
                summaries.append(self.close(sid))
            except ServingError as exc:
                if exc.code in ("unknown_stream", "stream_closed"):
                    continue
                raise
        return tuple(summaries)
