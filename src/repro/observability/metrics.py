"""Counter/gauge/histogram registry for host-side, serving-wide counts.

The serving tier — plan cache, matcher pool, drift monitor, gateway and
the compile stages — records what the server itself did into a
:class:`MetricsRegistry`.  Simulated kernel work is not recorded here: it
lives in each run's :class:`~repro.gpu.stats.KernelStats` ledger and span
tree.  The registry is create-on-first-use —
``registry.counter("serving.pool.feeds")`` returns the same
:class:`Counter` every call — and exports to a flat dict whose key names
are part of the observability contract (see ``docs/observability.md``).

All instruments are plain python objects with no background machinery, and
they are safe to record into from any thread: ``Counter.inc``,
``Gauge.set``, ``Histogram.observe``, ``as_dict()`` and ``clear()``
synchronise themselves on one lock per registry, shared by its instruments
(a stand-alone instrument carries its own).  Recording layers therefore
keep their locks for their *state* and take none for the sake of a metric.
A registry is the scope of its counts: everything recorded into it is
summed there, so callers that want separate totals attach separate
registries.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Union

Number = Union[int, float]


@dataclass
class Counter:
    """Monotonically increasing count (events, operations, accesses)."""

    name: str
    value: float = 0.0
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self.lock:
            self.value += amount


@dataclass
class Gauge:
    """Last-written value (fractions, sizes, current levels)."""

    name: str
    value: float = 0.0
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, value: Number) -> None:
        with self.lock:
            self.value = float(value)


@dataclass
class Histogram:
    """Streaming summary of observed values (count/sum/min/max/mean).

    Full reservoirs are overkill for the simulator; the aggregate moments
    cover the dashboards' needs while staying O(1) per observation.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def observe(self, value: Number) -> None:
        value = float(value)
        with self.lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named instrument store with create-on-first-use accessors."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Guards create-on-first-use, the export and every record: the
        # instruments below share it (see module docstring).
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            with self._lock:
                inst = self._counters.setdefault(
                    name, Counter(name, lock=self._lock)
                )
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            with self._lock:
                inst = self._gauges.setdefault(
                    name, Gauge(name, lock=self._lock)
                )
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            with self._lock:
                inst = self._histograms.setdefault(
                    name, Histogram(name, lock=self._lock)
                )
        return inst

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __bool__(self) -> bool:
        # An empty registry is still a registry: ``metrics or default`` in
        # the serving constructors must keep the one the caller passed.
        return True

    def as_dict(self) -> Dict[str, float]:
        """Flat name → value export.

        Counters and gauges map directly; histograms expand to
        ``<name>.count`` / ``<name>.mean`` / ``<name>.min`` / ``<name>.max``.
        """
        out: Dict[str, float] = {}
        with self._lock:
            for name, counter in self._counters.items():
                out[name] = counter.value
            for name, gauge in self._gauges.items():
                out[name] = gauge.value
            for name, hist in self._histograms.items():
                out[f"{name}.count"] = float(hist.count)
                out[f"{name}.mean"] = hist.mean
                out[f"{name}.min"] = hist.min if hist.count else 0.0
                out[f"{name}.max"] = hist.max if hist.count else 0.0
        return dict(sorted(out.items()))

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
