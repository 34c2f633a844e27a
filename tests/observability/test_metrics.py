"""MetricsRegistry unit tests: instruments, create-on-first-use, export."""

import sys
import threading
import time

import pytest

from repro.observability import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        c.inc(0.5)
        assert c.value == 5.5

    def test_rejects_negative(self):
        c = Counter("c")
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0.0


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("g")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5


class TestHistogram:
    def test_moments(self):
        h = Histogram("h")
        for v in (4, 1, 7):
            h.observe(v)
        assert h.count == 3
        assert h.total == 12.0
        assert h.min == 1.0 and h.max == 7.0
        assert h.mean == pytest.approx(4.0)

    def test_empty_mean_is_zero(self):
        assert Histogram("h").mean == 0.0


class TestRegistry:
    def test_create_on_first_use_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")
        assert len(reg) == 3

    def test_namespaces_are_separate(self):
        reg = MetricsRegistry()
        reg.counter("x").inc(2)
        reg.gauge("y").set(9)
        assert reg.counter("x").value == 2
        assert reg.gauge("y").value == 9

    def test_as_dict_expands_histograms_and_sorts(self):
        reg = MetricsRegistry()
        reg.counter("z.count").inc(3)
        reg.gauge("a.level").set(0.25)
        h = reg.histogram("m.lanes")
        h.observe(2)
        h.observe(6)
        flat = reg.as_dict()
        assert list(flat) == sorted(flat)
        assert flat["a.level"] == 0.25
        assert flat["z.count"] == 3
        assert flat["m.lanes.count"] == 2.0
        assert flat["m.lanes.mean"] == 4.0
        assert flat["m.lanes.min"] == 2.0
        assert flat["m.lanes.max"] == 6.0

    def test_empty_histogram_exports_zero_bounds(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        flat = reg.as_dict()
        assert flat["h.min"] == 0.0 and flat["h.max"] == 0.0

    def test_empty_registry_is_truthy(self):
        reg = MetricsRegistry()
        assert len(reg) == 0 and reg
        assert (reg or MetricsRegistry()) is reg

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.clear()
        assert len(reg) == 0
        assert reg.as_dict() == {}
        assert reg.counter("a").value == 0.0


class TestThreadSafety:
    """Instruments synchronise themselves: records racing from many threads
    (and racing create-on-first-use and the export) lose nothing."""

    THREADS = 8
    RECORDS = 100_000

    def test_concurrent_records_are_exact(self):
        reg = MetricsRegistry()
        start = threading.Barrier(self.THREADS + 1)
        exports, errors = [], []

        def record(worker: int) -> None:
            try:
                start.wait(timeout=30)
                for i in range(self.RECORDS):
                    # Create-on-first-use races the records: every thread
                    # resolves the instruments by name, every time.
                    reg.counter("hammer.events").inc()
                    reg.histogram("hammer.values").observe(worker * self.RECORDS + i)
                    reg.gauge("hammer.level").set(worker)
                    if i % 1000 == 0:  # the export's dicts keep growing
                        reg.counter(f"hammer.lap.{worker}.{i}").inc()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def export() -> None:
            try:
                start.wait(timeout=30)
                while any(t.is_alive() for t in workers):
                    exports.append(reg.as_dict())
                    time.sleep(0.001)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        workers = [
            threading.Thread(target=record, args=(w,)) for w in range(self.THREADS)
        ]
        exporter = threading.Thread(target=export)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in (*workers, exporter):
                thread.start()
            for thread in (*workers, exporter):
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (*workers, exporter))
        assert not errors
        assert exports  # the export really ran beside the records

        n = self.THREADS * self.RECORDS
        hist = reg.histogram("hammer.values")
        assert reg.counter("hammer.events").value == n
        assert hist.count == n
        assert hist.total == n * (n - 1) / 2  # exact: every term < 2**53
        assert hist.min == 0 and hist.max == n - 1
        assert reg.gauge("hammer.level").value in range(self.THREADS)
        laps = self.THREADS * self.RECORDS // 1000
        assert len(reg) == 3 + laps
        assert sum(
            v for k, v in reg.as_dict().items() if k.startswith("hammer.lap.")
        ) == laps
