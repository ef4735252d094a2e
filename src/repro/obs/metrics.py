"""Typed metrics registry: counters, gauges, fixed-bucket histograms.

The single source of truth for every number the system counts.  Metric
names are hierarchical dotted strings (``ckpt.async.queue_depth``,
``comm.allreduce.bytes``) so a snapshot groups naturally by subsystem.
All updates are thread-safe (the async engine's writer pool and the
threaded recovery merge tree hammer the same counters concurrently);
reads (``snapshot``/``delta``) see a consistent point-in-time view.

Legacy telemetry (``CommStats`` in ``distributed/collectives.py``,
``KWAY_MERGE_STATS`` in ``compression/sparse.py``) is backed by instances
of this registry — their old read APIs survive as thin views.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS_S",
    "DEFAULT_QUANTILES",
    "quantile_from_snapshot",
]

#: Default histogram bucket upper bounds for durations in seconds —
#: log-spaced from 10 us to 100 s, the range between a no-op hook call
#: and a full-checkpoint persist.
DEFAULT_TIME_BUCKETS_S = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
    1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0, 100.0,
)

#: The tail percentiles the report CLI and SLO watchdog care about.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


def _interpolated_quantile(q: float, bounds, counts, overflow: int,
                           total: int, lo, hi):
    """Linear-interpolation quantile over fixed-bucket counts.

    The estimate walks the cumulative distribution to the bucket holding
    rank ``q * total`` and interpolates linearly inside it (Prometheus-
    style), clamped to the observed ``[min, max]`` so small samples do
    not report values outside what was ever seen.  Overflow-bucket hits
    report the observed max — the bucket has no finite upper bound.
    """
    if total <= 0:
        return None
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    rank = q * total
    cumulative = 0
    for index, bound in enumerate(bounds):
        count = counts[index]
        if count and cumulative + count >= rank:
            lower = bounds[index - 1] if index else (lo if lo is not None
                                                     else 0.0)
            lower = min(lower, bound)
            fraction = (rank - cumulative) / count
            value = lower + fraction * (bound - lower)
            if lo is not None:
                value = max(value, lo)
            if hi is not None:
                value = min(value, hi)
            return value
        cumulative += count
    # Rank landed in the overflow bucket (or float slack at q == 1.0).
    if overflow or hi is not None:
        return hi
    return bounds[-1]


class Counter:
    """Monotonic integer counter (``inc`` only)."""

    __slots__ = ("name", "_value", "_lock")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def _set(self, value: int) -> None:
        """Raw assignment — reserved for legacy dict-shim compatibility."""
        with self._lock:
            self._value = int(value)

    def _reset(self) -> None:
        self._set(0)

    def _snapshot(self):
        return self._value


class Gauge:
    """Point-in-time numeric value (``set``/``inc``/``dec``)."""

    __slots__ = ("name", "_value", "_lock")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self.set(0.0)

    def _snapshot(self):
        return self._value


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``buckets`` is the sorted tuple of inclusive upper bounds; a value
    lands in the first bucket with ``value <= bound``, or in the overflow
    bucket (reported under the key ``"inf"``).  Buckets are fixed at
    creation so two snapshots are always delta-comparable.
    """

    __slots__ = ("name", "buckets", "_counts", "_overflow", "_sum",
                 "_count", "_min", "_max", "_lock")
    kind = "histogram"

    def __init__(self, name: str, buckets=DEFAULT_TIME_BUCKETS_S):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be sorted, got {bounds}")
        self.name = name
        self.buckets = bounds
        self._counts = [0] * len(bounds)
        self._overflow = 0
        self._sum = 0.0
        self._count = 0
        self._min = None
        self._max = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            placed = False
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    placed = True
                    break
            if not placed:
                self._overflow += 1
            self._sum += value
            self._count += 1
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self):
        return self._min

    @property
    def max(self):
        return self._max

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float):
        """Interpolated quantile estimate (``None`` on an empty histogram).

        Exact to within one bucket span: the true percentile lies in the
        same bucket, and linear interpolation inside it is exact for
        uniformly spread samples (unit-tested against exact percentiles
        of known sample sets in ``tests/test_obs.py``).
        """
        with self._lock:
            return _interpolated_quantile(
                q, self.buckets, self._counts, self._overflow,
                self._count, self._min, self._max)

    def quantiles(self, qs=DEFAULT_QUANTILES) -> dict:
        """``{q: estimate}`` for several quantiles under one lock hold."""
        with self._lock:
            return {
                q: _interpolated_quantile(
                    q, self.buckets, self._counts, self._overflow,
                    self._count, self._min, self._max)
                for q in qs
            }

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * len(self.buckets)
            self._overflow = 0
            self._sum = 0.0
            self._count = 0
            self._min = None
            self._max = None

    def _snapshot(self):
        with self._lock:
            buckets = {repr(bound): count
                       for bound, count in zip(self.buckets, self._counts)}
            buckets["inf"] = self._overflow
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": buckets,
            }


def quantile_from_snapshot(snap: dict, q: float):
    """Interpolated quantile from a histogram *snapshot* dict.

    The report CLI and the SLO watchdog work off JSON snapshots (possibly
    from another process or a file on disk), not live ``Histogram``
    objects; this reconstructs the bucket layout from the snapshot's
    ``buckets`` keys and runs the same estimator.
    """
    buckets = snap.get("buckets", {})
    bounds = sorted(float(key) for key in buckets if key != "inf")
    counts = [int(buckets.get(repr(bound), 0)) for bound in bounds]
    return _interpolated_quantile(
        q, bounds, counts, int(buckets.get("inf", 0)),
        int(snap.get("count", 0)), snap.get("min"), snap.get("max"))


class MetricsRegistry:
    """Thread-safe name → metric map with get-or-create typed accessors.

    A name is permanently bound to its first-registered kind; asking for
    the same name as a different kind raises ``TypeError`` (silent type
    punning is how metric stores rot).
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    # Typed accessors -------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  buckets=DEFAULT_TIME_BUCKETS_S) -> Histogram:
        return self._get_or_create(name, Histogram,
                                   lambda: Histogram(name, buckets))

    def _get_or_create(self, name, kind, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {kind.kind}")
            return metric

    # Convenience update forms ---------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                buckets=DEFAULT_TIME_BUCKETS_S) -> None:
        self.histogram(name, buckets).observe(value)

    # Introspection ---------------------------------------------------------
    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    def names(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(n for n in self._metrics if n.startswith(prefix))

    def snapshot(self, prefix: str = "") -> dict:
        """Point-in-time ``{name: value}`` view (JSON-serializable).

        Counters snapshot to ints, gauges to floats, histograms to a
        ``{count, sum, min, max, buckets}`` dict.
        """
        with self._lock:
            metrics = [(name, metric) for name, metric in self._metrics.items()
                       if name.startswith(prefix)]
        return {name: metric._snapshot() for name, metric in sorted(metrics)}

    def delta(self, earlier: dict, prefix: str = "") -> dict:
        """Difference of the current snapshot against an ``earlier`` one.

        Counters and gauges subtract numerically; histograms subtract
        count/sum and per-bucket counts (min/max are taken from the
        current snapshot — they have no meaningful difference).  Names
        absent from ``earlier`` diff against zero.
        """
        current = self.snapshot(prefix)
        out = {}
        for name, value in current.items():
            before = earlier.get(name)
            if isinstance(value, dict):
                prev = before if isinstance(before, dict) else {}
                prev_buckets = prev.get("buckets", {})
                out[name] = {
                    "count": value["count"] - prev.get("count", 0),
                    "sum": value["sum"] - prev.get("sum", 0.0),
                    "min": value["min"],
                    "max": value["max"],
                    "buckets": {
                        key: count - prev_buckets.get(key, 0)
                        for key, count in value["buckets"].items()
                    },
                }
            else:
                out[name] = value - (before if isinstance(before, (int, float))
                                     else 0)
        return out

    def reset(self, prefix: str = "") -> None:
        """Zero every matching metric in place (registrations survive)."""
        with self._lock:
            metrics = [metric for name, metric in self._metrics.items()
                       if name.startswith(prefix)]
        for metric in metrics:
            metric._reset()
