"""Two-level fingerprint-keyed LRU cache of compiled plans.

The serving tier's first rule: **at most one compile per language**.
Compiling a plan is the expensive per-FSM work (feature profiling, selector
walk, transformation, cost model, predictor training); the cache amortizes
it across every stream that matches against the same automaton — or any
language-equivalent one.

The cache is two-level:

* an **alias map** from content fingerprints
  (:meth:`~repro.automata.dfa.DFA.fingerprint`) to canonical fingerprints
  (:meth:`~repro.automata.dfa.DFA.canonical_fingerprint`, the hash of the
  minimal BFS-renumbered form);
* the **plan store**, a bounded LRU keyed by canonical fingerprint.

Two tenants submitting syntactically different but language-equivalent
DFAs therefore hit one compiled plan and one spill file
(``<canonical_fingerprint>.npz``).  Dedupe is *first-submitter-wins*: the
resident plan embeds (and executes) the first submitter's DFA, so its
``end_state`` numbering is the plan's; acceptance decisions are exact for
every aliased tenant because the automata accept the same language.
Canonicalization runs once per content fingerprint (outside the lock) and
is memoized in the alias map; the compile that follows reuses the
canonical form, so a cold miss minimizes once.  Only ``load_plan`` (a
spill reload) re-derives a canonical fingerprint; serving a plan does not.

A bounded LRU keeps memory predictable under many-tenant churn; eviction
only drops the *plan* — matchers already serving from it keep their
reference and finish unaffected, and aliases survive so a re-miss skips
re-canonicalization.

Concurrency contract (see ``docs/architecture.md``): the cache is
thread-safe and compiles are **single-flight per canonical fingerprint**.
The global lock only guards the bookkeeping maps; the compile itself (and
the disk spill I/O around it) runs *outside* the critical section under a
canonical-fingerprint-keyed in-flight registry.  Two racing
``get_or_compile`` calls for language-equivalent DFAs still produce exactly
one compile — the loser blocks on the winner's result — while calls for
other language classes hit the resident cache (or start their own compile)
completely unblocked.  A slow compile can therefore never
head-of-line-block another tenant's hit.
"""

from __future__ import annotations

import os
import threading
import zipfile
from collections import OrderedDict
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional

from repro.automata.minimize import canonical_form
from repro.errors import PlanError, ServingError
from repro.observability import MetricsRegistry
from repro.plan import CompiledPlan, compile_plan, load_plan, save_plan
from repro.plan.artifact import config_fingerprint


class _InFlightCompile:
    """One in-progress compile other callers of the language class wait on."""

    __slots__ = ("event", "plan", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.plan: Optional[CompiledPlan] = None
        self.error: Optional[BaseException] = None


class PlanCache:
    """Bounded LRU of :class:`~repro.plan.CompiledPlan` with language aliasing.

    Plans are stored under their *canonical* fingerprint; lookups by content
    fingerprint resolve through the alias map, so every public method keeps
    accepting the content fingerprints callers already hold.

    Parameters
    ----------
    capacity:
        Maximum resident plans; least-recently-used is evicted beyond it.
    config:
        Default compile-time configuration for :meth:`get_or_compile`.
    directory:
        Optional spill directory: plans are persisted as
        ``<canonical_fingerprint>.npz`` on compile and reloaded on a memory
        miss under the same compile config, so a restarted server
        re-serves without recompiling (the CLI's ``--plan-cache`` flag
        builds on this).
    metrics:
        The :class:`~repro.observability.MetricsRegistry` the cache records
        its ``serving.cache.*`` counters/gauges/histograms into (a private
        one when omitted).  :meth:`stats` is a view of it, and a registry
        is the scope of its counts: caches sharing one report its totals.
    """

    def __init__(
        self,
        capacity: int = 16,
        *,
        config=None,
        directory: Optional[str] = None,
        metrics=None,
    ):
        if capacity < 1:
            raise ServingError(
                f"PlanCache capacity must be >= 1, got {capacity}",
                code="invalid_argument",
            )
        self.capacity = int(capacity)
        self.config = config
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics or MetricsRegistry()
        #: plan store, keyed by canonical fingerprint (LRU order).
        self._plans: "OrderedDict[str, CompiledPlan]" = OrderedDict()
        #: content fingerprint → canonical fingerprint (never evicted).
        self._alias: Dict[str, str] = {}
        self._inflight: Dict[str, _InFlightCompile] = {}
        self._lock = threading.Lock()

    def _note_alias_hit(self, plan: CompiledPlan, fingerprint: str) -> None:
        """Record that ``fingerprint`` was served by a plan compiled for a
        *different* content fingerprint in the same language class."""
        if plan.fingerprint != fingerprint:
            self.metrics.counter("serving.cache.alias_hits").inc()

    # ------------------------------------------------------------------
    def _resolve_locked(self, fingerprint: str) -> str:
        """Canonical key for ``fingerprint`` (itself when unaliased)."""
        return self._alias.get(fingerprint, fingerprint)

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return self._resolve_locked(fingerprint) in self._plans

    def stats(self) -> Dict[str, int]:
        """Live sizes plus a view of the registry's ``serving.cache.*``
        counters (monotonic over the registry's lifetime)."""
        count = self.metrics.counter
        with self._lock:
            return {
                "size": len(self._plans),
                "capacity": self.capacity,
                "hits": int(count("serving.cache.hits").value),
                "misses": int(count("serving.cache.misses").value),
                "evictions": int(count("serving.cache.evictions").value),
                "compiles": int(count("serving.cache.compiles").value),
                "disk_loads": int(count("serving.cache.disk_loads").value),
                "compile_waits": int(count("serving.cache.compile_waits").value),
                "alias_hits": int(count("serving.cache.alias_hits").value),
                "dedupes": int(count("serving.cache.dedupes").value),
                "aliases": len(self._alias),
                "in_flight": len(self._inflight),
            }

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[CompiledPlan]:
        """The cached plan for ``fingerprint`` (refreshes recency), or None.

        Accepts either a content fingerprint (resolved through the alias
        map) or a canonical fingerprint.
        """
        with self._lock:
            canonical = self._resolve_locked(fingerprint)
            plan = self._plans.get(canonical)
            if plan is not None:
                self._plans.move_to_end(canonical)
                self.metrics.counter("serving.cache.hits").inc()
                self._note_alias_hit(plan, fingerprint)
                return plan
            self.metrics.counter("serving.cache.misses").inc()
            return None

    def put(self, plan: CompiledPlan) -> None:
        """Insert (or refresh) ``plan``; evicts LRU entries beyond capacity.

        Registers the plan's own content → canonical alias, so later
        content-fingerprint lookups resolve without re-canonicalizing.  A
        put that advances its class's revision — a drift revise landing —
        also replaces the class's spill file (outside the lock, like the
        compile path's spill), so the revision outlives its LRU slot
        instead of the next miss reloading the stale offline artifact.
        """
        with self._lock:
            advanced = self._put_locked(plan)
        if advanced:
            self._spill(plan)

    def _put_locked(self, plan: CompiledPlan) -> bool:
        """Make ``plan`` resident; returns whether it carries a newer
        revision than the class had resident (0 when nothing was)."""
        canonical = plan.canonical_fingerprint
        self._alias[plan.fingerprint] = canonical
        resident = self._plans.get(canonical)
        # Revisions are monotonic: once a drift revise has landed, a
        # tenant re-submitting the stale offline artifact must not roll
        # the class back (the re-submit still refreshes recency).
        if (
            resident is None
            or resident.fingerprint != plan.fingerprint
            or resident.config_hash != plan.config_hash
            or resident.revision <= plan.revision
        ):
            self._plans[canonical] = plan
        self._plans.move_to_end(canonical)
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.metrics.counter("serving.cache.evictions").inc()
        return plan.revision > (resident.revision if resident is not None else 0)

    # ------------------------------------------------------------------
    def get_or_compile(
        self, dfa, training_input=None, config=None
    ) -> CompiledPlan:
        """The plan for ``dfa`` — cached, spilled-to-disk, or compiled now.

        Resolution order: alias-resolved memory hit → in-flight wait →
        spill-directory load → compile (requires ``training_input``).
        Whatever the source, the plan ends up resident and
        most-recently-used under its canonical fingerprint.  A resident
        plan is reused whatever ``config`` is given; a spill file only
        when compiled under the requested config (``config``, else the
        cache's, else the default), and is recompiled otherwise.

        Compiles are single-flight per *language class*: the first caller
        to miss a canonical fingerprint becomes its *leader* and compiles
        outside the cache lock; callers racing any language-equivalent DFA
        wait for the leader's result (a leader failure propagates to every
        waiter, and the class becomes compilable again).  Other language
        classes are never blocked.
        """
        fingerprint = dfa.fingerprint()
        with self._lock:
            canonical = self._alias.get(fingerprint)
        form = None
        if canonical is None:
            # First sighting of this content fingerprint: canonicalize
            # outside the lock (minimization is the expensive part),
            # memoize the alias below, and hand the form to the compile.
            form = canonical_form(dfa)
            canonical = form.fingerprint()
        while True:
            with self._lock:
                if fingerprint not in self._alias:
                    if canonical in self._plans or canonical in self._inflight:
                        # A new content fingerprint joins a known language
                        # class instead of starting its own compile.
                        self.metrics.counter("serving.cache.dedupes").inc()
                    self._alias[fingerprint] = canonical
                plan = self._plans.get(canonical)
                if plan is not None:
                    self._plans.move_to_end(canonical)
                    self.metrics.counter("serving.cache.hits").inc()
                    self._note_alias_hit(plan, fingerprint)
                    return plan
                self.metrics.counter("serving.cache.misses").inc()
                flight = self._inflight.get(canonical)
                if flight is None:
                    flight = self._inflight[canonical] = _InFlightCompile()
                    self.metrics.gauge("serving.cache.in_flight").set(
                        len(self._inflight)
                    )
                    break  # this caller leads the compile
                self.metrics.counter("serving.cache.compile_waits").inc()
            waited_from = perf_counter()
            flight.event.wait()
            self.metrics.histogram("serving.cache.compile_wait_ms").observe(
                (perf_counter() - waited_from) * 1e3
            )
            if flight.error is not None:
                raise flight.error
            if flight.plan is not None:
                self._note_alias_hit(flight.plan, fingerprint)
                return flight.plan
            # Leader vanished without a result (should not happen); retry.

        # -- leader path: all I/O and compute outside the critical section
        try:
            if config is None:
                from repro.framework.config import GSpecPalConfig

                config = self.config if self.config is not None else GSpecPalConfig()
            plan = self._load_spilled(canonical, config)
            from_disk = plan is not None
            if plan is None:
                if training_input is None or len(training_input) == 0:
                    raise ServingError(
                        f"no plan cached for fingerprint {fingerprint[:12]}… and "
                        "no training input to compile one",
                        code="no_training_input",
                        fingerprint=fingerprint,
                    )
                compile_from = perf_counter()
                plan = compile_plan(
                    dfa,
                    training_input,
                    config,
                    canonical=form,
                    metrics=self.metrics,
                )
                compile_ms = (perf_counter() - compile_from) * 1e3
                self._spill(plan)
            with self._lock:
                if from_disk:
                    self.metrics.counter("serving.cache.disk_loads").inc()
                    self._note_alias_hit(plan, fingerprint)
                else:
                    self.metrics.counter("serving.cache.compiles").inc()
                    self.metrics.histogram("serving.cache.compile_ms").observe(
                        compile_ms
                    )
                self._put_locked(plan)
            flight.plan = plan
            return plan
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(canonical, None)
                self.metrics.gauge("serving.cache.in_flight").set(
                    len(self._inflight)
                )
            flight.event.set()

    # ------------------------------------------------------------------
    # optional disk spill
    # ------------------------------------------------------------------
    def _spill_path(self, canonical: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{canonical}.npz"

    def _spill(self, plan: CompiledPlan) -> None:
        """Persist ``plan`` as its class's spill file (never under the lock).

        Written beside the target and renamed over it: a revised plan is
        spilled while other threads may be reloading the class from disk,
        and they must see the old file or the new one, never a torn one.
        """
        path = self._spill_path(plan.canonical_fingerprint)
        if path is None:
            return
        partial = path.with_name(f"{path.stem}.{threading.get_ident()}.partial.npz")
        try:
            save_plan(plan, partial)
            os.replace(partial, path)
        finally:
            partial.unlink(missing_ok=True)

    def _load_spilled(self, canonical: str, config) -> Optional[CompiledPlan]:
        path = self._spill_path(canonical)
        if path is None or not path.exists():
            return None
        try:
            plan = load_plan(path)
            wanted = (canonical, config_fingerprint(config))
            if (plan.canonical_fingerprint, plan.config_hash) != wanted:
                raise PlanError(f"{path.name} holds another class or config")
        except (PlanError, OSError, ValueError, KeyError, zipfile.BadZipFile):
            # Corrupt, stale or other-config spill: drop it and recompile.
            path.unlink(missing_ok=True)
            return None
        return plan
