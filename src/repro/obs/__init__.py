"""Unified observability: metrics, tracing, and profiling for every layer.

One process-global switchboard (:data:`OBS`) holds the active
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.trace.Tracer`.  Observability is **off by default**;
instrumented hot paths guard every touch with::

    from repro.obs import OBS
    ...
    if OBS.enabled:
        OBS.tracer.begin("allreduce", "train")

so a disabled run pays one attribute load + branch per site — no calls,
no allocation (pinned by the zero-allocation guard in the obs tests and
the <3% overhead guard in ``benchmarks/bench_obs_overhead.py``).

Always-on telemetry that predates this layer (``CommStats``,
``KWAY_MERGE_STATS``) is backed by registries from this package whether
or not tracing is enabled — counting a few integers per collective is
free at the scales that matter; emitting trace events is not.

Typical capture::

    from repro import obs

    with obs.capture() as active:
        run_training()
        active.tracer.save("trace.json")       # chrome://tracing / Perfetto
        snapshot = active.registry.snapshot()  # {metric: value}

Render either artifact with ``python -m repro.obs.report``.
"""

from __future__ import annotations

import time

from repro.obs.metrics import (
    DEFAULT_QUANTILES,
    DEFAULT_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_snapshot,
)
from repro.obs.trace import Tracer

__all__ = [
    "OBS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "DEFAULT_TIME_BUCKETS_S",
    "DEFAULT_QUANTILES",
    "quantile_from_snapshot",
    "enabled",
    "enable",
    "disable",
    "registry",
    "tracer",
    "span",
    "capture",
    "timed",
    # Flight recorder and SLO targets (re-exported below, after OBS exists).
    "FLIGHT",
    "FlightRecorder",
    "SloTarget",
    "SloResult",
    "SloWatchdog",
    "DEFAULT_TARGETS",
    "evaluate_snapshot",
    "load_slo_config",
]


class _ObsState:
    """The process-global observability switchboard."""

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self):
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()


OBS = _ObsState()


def enabled() -> bool:
    return OBS.enabled


def registry() -> MetricsRegistry:
    return OBS.registry


def tracer() -> Tracer:
    return OBS.tracer


def enable(tracer: Tracer | None = None,
           registry: MetricsRegistry | None = None) -> _ObsState:
    """Turn instrumentation on, optionally swapping in fresh sinks."""
    if registry is not None:
        OBS.registry = registry
    if tracer is not None:
        OBS.tracer = tracer
    OBS.enabled = True
    return OBS


def disable() -> None:
    OBS.enabled = False


class _NoopSpan:
    """Shared do-nothing context manager — the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NOOP_SPAN = _NoopSpan()


def span(name: str, category: str | None = None, args: dict | None = None):
    """A tracer span when enabled, the shared no-op singleton when not."""
    if OBS.enabled:
        return OBS.tracer.span(name, category, args)
    return NOOP_SPAN


class capture:
    """Enable observability with fresh sinks for a ``with`` block.

    Restores the previous switchboard state on exit, so nested tooling
    (tests, benchmarks) cannot leak a tracer into later code.  Yields the
    active :data:`OBS` state; read ``.tracer`` / ``.registry`` off it.
    """

    def __init__(self, clock=None, limit: int | None = None):
        self._clock = clock
        self._limit = limit
        self._saved = None

    def __enter__(self) -> _ObsState:
        self._saved = (OBS.enabled, OBS.registry, OBS.tracer)
        OBS.registry = MetricsRegistry()
        OBS.tracer = Tracer(clock=self._clock, limit=self._limit)
        OBS.enabled = True
        return OBS

    def __exit__(self, *exc) -> None:
        OBS.enabled, OBS.registry, OBS.tracer = self._saved
        self._saved = None


class timed:
    """Time a block into a registry histogram (and a span when tracing).

    ``with obs.timed("bench.kway_merge"): ...`` records the elapsed
    seconds into histogram ``<name>.s`` on the given registry (default:
    the active one) and exposes it as ``.elapsed`` — so benchmarks can
    read their numbers back out of a registry snapshot instead of
    hand-rolled timing dicts.
    """

    __slots__ = ("name", "elapsed", "_registry", "_category", "_t0")

    def __init__(self, name: str, registry: MetricsRegistry | None = None,
                 category: str | None = "bench"):
        self.name = name
        self.elapsed = 0.0
        self._registry = registry
        self._category = category

    def __enter__(self) -> "timed":
        if OBS.enabled:
            OBS.tracer.begin(self.name, self._category)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0
        if OBS.enabled:
            OBS.tracer.end()
        target = self._registry if self._registry is not None else OBS.registry
        target.observe(f"{self.name}.s", self.elapsed)


# Flight recorder and SLO targets.  Imported last: these modules read
# ``repro.obs.OBS`` lazily inside functions, but keeping the imports
# below the switchboard definition makes the no-cycle property obvious.
from repro.obs.flight import FLIGHT, FlightRecorder          # noqa: E402
from repro.obs.slo import (                                   # noqa: E402
    DEFAULT_TARGETS,
    SloResult,
    SloTarget,
    SloWatchdog,
    evaluate_snapshot,
    load_slo_config,
)
