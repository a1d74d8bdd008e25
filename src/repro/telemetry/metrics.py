"""A small metrics registry: counters, gauges and histograms.

Instruments are created on first use (``registry.counter("rounds_total")``)
and may be updated from any thread, so every mutation runs under one
registry lock.  The fold/train work between observations is
milliseconds-to-seconds; a lock around a float add is noise.

Histograms keep summary statistics (count/total/min/max), not buckets:
the questions the engine asks ("how deep did the coordinator queue get",
"how many tasks did a worker hold") are answered by the extremes and the
mean, and summaries serialise to a handful of numbers per instrument.
"""

from __future__ import annotations

import threading


class Counter:
    """Monotonically increasing count."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge")
        with self._lock:
            self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value of some observable."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.value: float | None = None

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming summary (count/total/min/max) of observed samples."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Name → instrument map with create-on-first-use accessors.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name with a different kind is a programming error
    and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = kind(self._lock)
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {kind.__name__}"
                )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def to_dict(self) -> dict:
        with self._lock:
            names = list(self._instruments)
        return {name: self._instruments[name].to_dict() for name in sorted(names)}
