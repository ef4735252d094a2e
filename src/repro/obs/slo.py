"""Declarative SLO targets evaluated against metric snapshots.

Tail latency, not mean, decides whether a checkpoint frequency is
feasible (Checkmate, arXiv 2507.13522; the storage-tier stress profiles
in benchmarks-ai-io) — so the budget language here is quantile-first: a
target names a metric (exact dotted name or ``fnmatch`` pattern), an
aggregate over it (``value``/``count``/``sum``/``mean``/``min``/``max``
or ``p50``/``p95``/``p99`` for histograms), an objective direction, and
a threshold.

Two consumers:

* :class:`SloWatchdog` — evaluates the live registry during a run,
  records breach events (``slo.*`` counters, tracer instants, flight-
  recorder entries) so a budget violation is visible in every artifact;
* ``python -m repro.obs.report --slo targets.json --metrics snap.json``
  — the offline gate: renders the scorecard and exits non-zero on any
  breach (the CI step that fails the build on a blown stall budget).

Config files are plain JSON::

    {"targets": [
        {"name": "persist-stall-budget",
         "metric": "ckpt.*.backpressure_wait.s",
         "aggregate": "sum", "objective": "max", "threshold": 1.0}
    ]}
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass

from repro.obs.metrics import quantile_from_snapshot

__all__ = [
    "SloTarget",
    "SloResult",
    "SloWatchdog",
    "DEFAULT_TARGETS",
    "evaluate_snapshot",
    "load_slo_config",
]

_QUANTILE_AGGREGATES = {"p50": 0.50, "p95": 0.95, "p99": 0.99}
_AGGREGATES = ("value", "count", "sum", "mean", "min", "max",
               *_QUANTILE_AGGREGATES)


@dataclass(frozen=True)
class SloTarget:
    """One declarative objective over one metric (or metric pattern)."""

    name: str
    metric: str
    threshold: float
    #: ``"max"``: observed must stay <= threshold; ``"min"``: >= threshold.
    objective: str = "max"
    aggregate: str = "value"
    description: str = ""

    def __post_init__(self):
        if self.objective not in ("max", "min"):
            raise ValueError(
                f"objective must be 'max' or 'min', got {self.objective!r}")
        if self.aggregate not in _AGGREGATES:
            raise ValueError(
                f"aggregate must be one of {_AGGREGATES}, "
                f"got {self.aggregate!r}")


@dataclass(frozen=True)
class SloResult:
    """Outcome of evaluating one target against one snapshot."""

    target: SloTarget
    observed: float | None      # None: metric absent from the snapshot
    breached: bool
    matched: tuple[str, ...]

    @property
    def status(self) -> str:
        if self.observed is None:
            return "no-data"
        return "BREACH" if self.breached else "ok"


def _aggregate_one(value, aggregate: str):
    """Aggregate one snapshot value (scalar or histogram dict)."""
    if isinstance(value, dict):
        if aggregate in _QUANTILE_AGGREGATES:
            return quantile_from_snapshot(value,
                                          _QUANTILE_AGGREGATES[aggregate])
        if aggregate == "mean":
            count = value.get("count", 0)
            return value.get("sum", 0.0) / count if count else None
        if aggregate == "value":
            return value.get("sum")
        return value.get(aggregate)
    # Scalar metrics (counters, gauges): every aggregate reads the value —
    # a pattern target may legitimately mix (e.g. sum over counters).
    return value


def _evaluate_target(target: SloTarget, snapshot: dict) -> SloResult:
    if any(ch in target.metric for ch in "*?["):
        matched = tuple(sorted(
            name for name in snapshot
            if fnmatch.fnmatchcase(name, target.metric)))
    else:
        matched = (target.metric,) if target.metric in snapshot else ()
    values = [_aggregate_one(snapshot[name], target.aggregate)
              for name in matched]
    values = [v for v in values if v is not None]
    if not values:
        return SloResult(target, None, False, matched)
    # Scalars over a pattern add up (e.g. breaker trips across tiers);
    # distribution aggregates take the worst matching series.
    if target.aggregate in ("value", "sum", "count"):
        observed = float(sum(values))
    elif target.aggregate == "min":
        observed = float(min(values))
    else:
        observed = float(max(values))
    breached = (observed > target.threshold if target.objective == "max"
                else observed < target.threshold)
    return SloResult(target, observed, breached, matched)


def evaluate_snapshot(targets, snapshot: dict) -> list[SloResult]:
    """Pure evaluation: no registry access, no side effects."""
    return [_evaluate_target(target, snapshot) for target in targets]


#: Built-in watchdog targets: the budgets every LowDiff run should hold.
#: Thresholds are deliberately loose defaults — pin tight ones per
#: deployment (CI pins its own in ``benchmarks/slo_ci.json``).
DEFAULT_TARGETS = (
    SloTarget("persist-stall-budget", "ckpt.*.backpressure_wait.s", 1.0,
              aggregate="sum",
              description="total training-thread seconds lost to persist "
                          "backpressure"),
    SloTarget("p99-commit-latency", "ckpt.async.commit.s", 0.5,
              aggregate="p99",
              description="tail latency of manifest commits"),
    SloTarget("breaker-open", "storage.breaker.transitions.*_to_open", 0,
              description="circuit breaker never opens in a healthy run"),
)


def load_slo_config(path: str) -> tuple[SloTarget, ...]:
    """Parse a JSON target file (see module docstring for the shape)."""
    with open(path) as handle:
        body = json.load(handle)
    entries = body["targets"] if isinstance(body, dict) else body
    targets = []
    for entry in entries:
        targets.append(SloTarget(
            name=entry["name"],
            metric=entry["metric"],
            threshold=float(entry["threshold"]),
            objective=entry.get("objective", "max"),
            aggregate=entry.get("aggregate", "value"),
            description=entry.get("description", ""),
        ))
    return tuple(targets)


class SloWatchdog:
    """Evaluates targets against the live registry and records breaches."""

    def __init__(self, targets=None):
        self.targets = tuple(targets) if targets is not None \
            else DEFAULT_TARGETS
        self.evaluations = 0
        self.breaches: list[SloResult] = []

    def evaluate(self, snapshot: dict | None = None) -> list[SloResult]:
        """Evaluate without side effects (defaults to the live registry)."""
        if snapshot is None:
            from repro.obs import OBS
            snapshot = OBS.registry.snapshot()
        return evaluate_snapshot(self.targets, snapshot)

    def check(self, snapshot: dict | None = None) -> list[SloResult]:
        """Evaluate and record: breach counters, instants, flight entries.

        Returns only the breached results; every breach is also appended
        to :attr:`breaches` for the caller's report.
        """
        from repro.obs import OBS
        from repro.obs.flight import FLIGHT
        self.evaluations += 1
        results = self.evaluate(snapshot)
        breached = [result for result in results if result.breached]
        for result in breached:
            self.breaches.append(result)
            FLIGHT.record("slo", f"breach:{result.target.name}",
                          observed=result.observed,
                          threshold=result.target.threshold)
            if OBS.enabled:
                OBS.registry.inc("slo.breaches")
                OBS.registry.inc(f"slo.breach.{result.target.name}")
                OBS.tracer.instant(
                    "slo-breach", "slo",
                    {"target": result.target.name,
                     "observed": result.observed,
                     "threshold": result.target.threshold})
        if OBS.enabled:
            OBS.registry.inc("slo.evaluations")
        return breached
