"""The metrics registry: counters, gauges and fixed-bucket histograms.

Instruments follow the same string-key idiom as the component registries
(:mod:`repro.api.registry`): a :class:`MetricsRegistry` maps dotted names to
instruments, :meth:`MetricsRegistry.register` refuses duplicate names, and
the ``counter``/``gauge``/``histogram`` accessors get-or-create so
instrumented seams never need import-order coordination — the first caller
of ``METRICS.counter("store.get.hits")`` creates it, everyone else shares it.

Every update is lock-guarded (one small lock per instrument), so counters
hammered from N threads total exactly; :meth:`MetricsRegistry.snapshot`
returns a deterministically-ordered plain-dict view ready for JSON export
(the serve ``/metrics`` endpoint serialises it directly).

Metrics are telemetry only: they never enter hashed store payloads or
deterministic report output.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): sub-millisecond to tens of seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonically increasing count (thread-safe)."""

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (>= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """Last-set value (thread-safe); e.g. a queue depth."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed-bound bucket histogram (thread-safe); e.g. request latency.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything beyond the last bound, so
    ``len(counts) == len(bounds) + 1`` and the total count is exact.
    """

    kind = "histogram"

    def __init__(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS, description: str = ""
    ) -> None:
        bounds = tuple(float(bound) for bound in bounds)
        if not bounds:
            raise ValueError(f"histogram {self.__class__.__name__} needs >= 1 bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"histogram {name!r}: bucket bounds must be strictly increasing, got {bounds}"
            )
        self.name = name
        self.description = description
        self.bounds = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }


class MetricsRegistry:
    """String-keyed instruments with get-or-create accessors.

    Mirrors the component-registry idiom: instruments live under unique
    dotted names, duplicate registration is an error, and lookups are
    thread-safe.  ``snapshot()`` groups instruments by kind with names
    sorted, so serialising it is deterministic for a fixed set of values.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._instruments: Dict[str, object] = {}

    # ------------------------------------------------------------------ ---
    def register(self, name: str, instrument: object) -> object:
        """Register a pre-built instrument under *name* (unique)."""
        if not isinstance(name, str) or not name:
            raise TypeError("metric names must be non-empty strings")
        with self._lock:
            if name in self._instruments:
                raise ValueError(f"metrics registry already has an instrument named {name!r}")
            self._instruments[name] = instrument
        return instrument

    def _get_or_create(self, name: str, kind: type, factory) -> object:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ValueError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        """Get-or-create the counter registered under *name*."""
        return self._get_or_create(name, Counter, lambda: Counter(name, description))

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get-or-create the gauge registered under *name*."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name, description))

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS, description: str = ""
    ) -> Histogram:
        """Get-or-create the histogram registered under *name*."""
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, bounds, description)
        )

    # ------------------------------------------------------------------ ---
    def get(self, name: str) -> object:
        """The instrument registered under *name* (KeyError when absent)."""
        with self._lock:
            try:
                return self._instruments[name]
            except KeyError:
                raise KeyError(
                    f"unknown metric {name!r}; available: "
                    f"{', '.join(self.names()) or '(none)'}"
                ) from None

    def names(self) -> List[str]:
        """Sorted names of every registered instrument."""
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministically-ordered plain-dict view of every instrument."""
        with self._lock:
            instruments = dict(self._instruments)
        out: Dict[str, Dict[str, object]] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(instruments):
            instrument = instruments[name]
            out[f"{instrument.kind}s"][name] = instrument.snapshot()
        return out

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def __repr__(self) -> str:
        return f"MetricsRegistry(n_instruments={len(self)})"


#: The process-wide default registry: library seams (the result store)
#: record here; servers default to their own private registry instead.
METRICS = MetricsRegistry()


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
]
