"""Metrics registry: counters, gauges and histograms.

The quantitative half of the observability layer (the qualitative half is
:mod:`repro.obs.trace`).  Three instrument kinds cover everything the
library wants to report:

* :class:`Counter` — monotonically increasing totals (DP cells filled,
  cache hits, jobs submitted);
* :class:`Gauge` — instantaneous values with a high-water mark (queue
  depth, grid-cache bytes in flight);
* :class:`Histogram` — summary statistics of an observed distribution
  (tile wait times, per-job wall times).

All instruments are thread-safe: kernels touch them from wavefront worker
threads while the service touches them from the event loop.  A
:class:`MetricsRegistry` owns instruments by name and renders one flat
JSON-able :meth:`~MetricsRegistry.snapshot` for the ``stats`` protocol op
and the ``--profile`` report.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..errors import ConfigError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing total."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0) to the total."""
        if n < 0:
            raise ConfigError(f"counter {self.name!r} cannot decrease (inc {n})")
        with self._lock:
            self._value += int(n)

    @property
    def value(self) -> int:
        """The current total."""
        with self._lock:
            return self._value

    def snapshot(self):
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name}={self.value})"


class Gauge:
    """An instantaneous value with a high-water mark."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0
        self._max = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self._value = value
            self._max = max(self._max, value)

    def add(self, delta: float) -> None:
        """Adjust the current value by ``delta``."""
        with self._lock:
            self._value += delta
            self._max = max(self._max, self._value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def max(self) -> float:
        """Highest value ever set."""
        with self._lock:
            return self._max

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {"value": self._value, "max": self._max}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Streaming summary (count / sum / min / max / mean) of observations.

    Keeps O(1) state rather than raw samples so it can sit on hot paths
    (per-tile wait times) without growing with the run.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        with self._lock:
            self.count += 1
            self.total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            mean = self.total / self.count if self.count else 0.0
            return {
                "count": self.count,
                "sum": round(self.total, 9),
                "min": self._min if self._min is not None else 0.0,
                "max": self._max if self._max is not None else 0.0,
                "mean": round(mean, 9),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """Named instruments, created on first use.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create; asking for
    an existing name with a different kind raises
    :class:`~repro.errors.ConfigError` (one name, one meaning).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ConfigError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """Every instrument rendered as JSON-able scalars/dicts by name."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name].snapshot() for name in sorted(metrics)}

    def reset(self) -> None:
        """Drop every instrument (names are re-created on next use)."""
        with self._lock:
            self._metrics.clear()
