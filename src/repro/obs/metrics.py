"""A process-wide registry of named counters, gauges, and histograms.

The pipeline already counts everything that matters — ``ScanTelemetry``,
``CacheTelemetry``, ``CheckpointTelemetry`` — but each dataclass is its own
island.  :class:`MetricsRegistry` gives them one namespace to publish into
(``cache.hits``, ``scan.sessions``, ``checkpoint.saves``) without changing
any of their APIs: a telemetry object's ``as_dict()`` view is folded in via
:func:`publish_mapping`, and hot-path code increments named counters
directly.

Three instruments:

* **counter** — monotonically increasing int (``inc``); merges by summing;
* **gauge** — last-written float (``set``); merges by last-writer-wins;
* **histogram** — streaming count/sum/min/max of observed values
  (``observe``); merges by combining the moments.

Concurrency:

* every mutation takes its instrument's lock, so threads sharing a
  registry never lose increments;
* forked worker processes must not inherit (and later re-publish) the
  parent's counts, so the default registry **resets in the child after
  every fork** (``os.register_at_fork``).  Workers therefore accumulate
  deltas from zero; their :meth:`MetricsRegistry.snapshot` merges back into
  the parent's registry via :meth:`MetricsRegistry.merge_snapshot` without
  double counting.

The default process-wide instance is :func:`get_registry`; ``run_study``
additionally builds a private registry per run so the manifest's metrics
snapshot reconciles exactly with that run's telemetry, regardless of what
else the process did.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional


class Counter:
    """Monotonic event count."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount


class Gauge:
    """Last-written measurement (timings, sizes, ratios)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)


class Histogram:
    """Streaming summary of an observed distribution."""

    __slots__ = ("_lock", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.minimum = (
                value if self.minimum is None else min(self.minimum, value)
            )
            self.maximum = (
                value if self.maximum is None else max(self.maximum, value)
            )

    def _combine(self, record: Dict[str, object]) -> None:
        """Fold another histogram's exported moments in (snapshot merge)."""
        count = int(record.get("count", 0))
        if not count:
            return
        with self._lock:
            self.count += count
            self.total += float(record.get("sum", 0.0))
            for name in ("minimum", "maximum"):
                incoming = record.get("min" if name == "minimum" else "max")
                if incoming is None:
                    continue
                incoming = float(incoming)
                current = getattr(self, name)
                if current is None:
                    setattr(self, name, incoming)
                else:
                    pick = min if name == "minimum" else max
                    setattr(self, name, pick(current, incoming))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }


class MetricsRegistry:
    """Named instruments; snapshots merge across threads and processes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access (get-or-create) -----------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram()
            return instrument

    # -- one-call conveniences ------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- snapshot / merge -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-native view: the manifest's ``metrics`` section."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {
                name: counter.value for name, counter in sorted(counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(gauges.items())
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in sorted(histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold another registry's snapshot in (worker deltas, sub-runs).

        Counters sum, gauges take the incoming value, histograms combine
        their moments — so merging N worker snapshots is equivalent to the
        workers having published here directly.
        """
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).inc(int(value))
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name).set(float(value))
        for name, record in (snapshot.get("histograms") or {}).items():
            self.histogram(name)._combine(record)

    def reset(self) -> None:
        """Drop every instrument (fork hygiene, test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-wide default registry.  Library code (the study cache, the
#: checkpoint store, the detection engine) publishes here as events happen.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


# Forked pool workers (the parallel scan) start from a copy-on-write
# snapshot of the parent, registry included.  Reset it in the child so
# anything a worker publishes is a delta from zero — merging worker
# snapshots back can then never double-count parent state.
if hasattr(os, "register_at_fork"):  # pragma: no branch - absent off-POSIX
    os.register_at_fork(after_in_child=_REGISTRY.reset)


def publish_mapping(
    registry: MetricsRegistry, prefix: str, mapping: Dict[str, object]
) -> None:
    """Publish a telemetry dataclass's ``as_dict()`` view under a prefix.

    Ints become counters (``prefix.name``), floats become gauges; None,
    bools (a flag is not a count), and structured values (tuples, nested
    dicts) are skipped — those belong in the manifest's typed sections, not
    the flat metric namespace.
    """
    for name, value in mapping.items():
        if value is None or isinstance(value, bool):
            continue
        if isinstance(value, int):
            registry.counter(f"{prefix}.{name}").inc(value)
        elif isinstance(value, float):
            registry.gauge(f"{prefix}.{name}").set(value)
