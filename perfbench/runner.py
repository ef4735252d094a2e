"""Run one workload for a fixed time and collect its metrics.

Each invocation runs one workload in a fresh process, driven by a
single-threaded closed training loop (the trainer's two data-parallel
workers are simulated in-process).  A short warm-up episode with a
checked restore runs first so lazy set-up is done before anything is
timed.  Timed episodes, each with its closing restores, repeat until the
requested seconds have passed; the last one always completes.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time

from repro import obs
from repro.obs import MetricsRegistry, Tracer

import layers
from workloads import (
    Workload,
    release,
    replay_probe,
    restore,
    train_episode,
    trees_equal,
)

_now = time.perf_counter


class PeakRss:
    """Peak resident set size of one timed unit (an episode with its
    restores).

    Linux resets the process high-water mark (``VmHWM``) when ``5`` is
    written to ``/proc/self/clear_refs``; the median over units is then
    steadier than the lifetime maximum, which keeps whatever the
    allocator's fragmentation left behind by earlier units.  Where the
    reset is unavailable this falls back to the lifetime maximum.
    """

    def __init__(self):
        self.samples: list[float] = []

    def start(self) -> None:
        try:
            with open("/proc/self/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:
            pass

    def stop(self) -> None:
        try:
            with open("/proc/self/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        self.samples.append(int(line.split()[1]) / 1024.0)
                        return
        except OSError:
            pass
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.samples.append(kib / 1024.0)

    def median(self) -> float:
        return statistics.median(self.samples)


class Run:
    """Ops attempted/failed and the error log of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def episode(self, ep) -> None:
        self.attempted += ep.planned
        self.failed += ep.failed
        self.errors += [f"{ep.arm} episode: {e}" for e in ep.errors]

    def op(self, ok: bool, what: str, error: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{what}: {error}")


def _restores(w, seed, ep, run: Run, count: int, tracer=None,
              keep_first: bool = False) -> list:
    out = []
    for index in range(count):
        if ep.expected is None:  # the episode itself failed its checks
            run.op(False, "restore", "no verified trained state to restore")
            continue
        outcome = restore(w, seed, ep.directory, ep.expected, tracer,
                          keep_state=keep_first and index == 0)
        run.op(outcome.ok, "restore", outcome.error)
        out.append(outcome)
    return out


def _probe(w, seed, directory, reference, run: Run, tracer):
    """Replay probe plus its cross-check against the default path."""
    try:
        probe = replay_probe(w, seed, directory, tracer)
    except Exception as err:
        run.op(False, "replay probe", f"raised {err!r}")
        return None
    same = (trees_equal(probe.model, reference.model)
            and trees_equal(probe.optimizer, reference.optimizer))
    run.op(same, "replay probe", "state differs from the default restore")
    return probe


def _parallel(w, seed, ep, run: Run, tracer):
    outcome = restore(w, seed, ep.directory, ep.expected, tracer,
                      parallel=True)
    run.op(outcome.ok, "parallel restore", outcome.error)
    return outcome if outcome.ok else None


def _deterministic_error(restores, run: Run) -> float:
    """Every checked restore of one seed must report the same error."""
    errors = {r.max_abs_err for r in restores if r.ok}
    run.op(len(errors) <= 1, "restore error determinism",
           f"differing errors across identical episodes: {sorted(errors)}")
    return max(errors) if errors else float("nan")


def warm_up(w, seed, root, run: Run) -> None:
    """The untimed start of every process: a short episode and a checked
    restore, so lazy set-up is done before anything is timed."""
    ep = train_episode(w, seed, root, "untraced",
                       iterations=w.warmup_iterations)
    run.episode(ep)
    _restores(w, seed, ep, run, 1)
    release(ep)


def run(w: Workload, seed: int, seconds: float, trace: bool, root: str,
        started: float, out_dir: str, more_setups=list) -> dict:
    """Warm up, then measure for ``seconds``.  ``root`` holds the
    temporary checkpoint directories, ``started`` is the process start
    time (for ``setup_s``) and ``out_dir`` receives the traced run's
    artifacts.  ``more_setups()`` returns ``(seconds, error)`` for each
    set-up repeated in a fresh process (``seconds`` is ``None`` when it
    failed); ``setup_s`` takes the median over them and this process."""
    bench = Run()
    warm_up(w, seed, root, bench)
    one_off_s = [_now() - started]
    if trace:
        metrics, extra = _traced(w, seed, seconds, root, bench, out_dir)
        metrics["ops_failed_ratio"] = bench.failed / max(bench.attempted, 1)
        units = dict(layers.PER_LAYER)
    else:
        for seconds_taken, error in more_setups():
            bench.op(seconds_taken is not None, "set-up in a fresh process",
                     error)
            if seconds_taken is not None:
                one_off_s.append(seconds_taken)
        metrics, extra = _untraced(w, seed, seconds, root, bench, one_off_s)
        units = {name: unit for name, (unit, _) in layers.END_TO_END.items()}
    return {"metrics": metrics, "units": units, "extra": extra,
            "attempted": bench.attempted, "failed": bench.failed,
            "errors": bench.errors}


# End-to-end (untraced) ------------------------------------------------------
def _untraced(w, seed, seconds, root, bench: Run, one_off_s):
    episodes, restores = [], []
    rss = PeakRss()
    phase = _now()
    while True:
        rss.start()
        ep = train_episode(w, seed, root, "untraced")
        bench.episode(ep)
        restores += _restores(w, seed, ep, bench, w.restores_per_episode)
        rss.stop()
        release(ep)
        episodes.append(ep)
        if _now() - phase >= seconds:
            break
    metrics = layers.training_metrics(episodes)
    metrics["restore_s"] = layers.median([r.seconds for r in restores if r.ok])
    metrics["setup_s"] = statistics.median(one_off_s) + statistics.median(
        ep.setup_s for ep in episodes)
    metrics["peak_rss_mb"] = rss.median()
    extra = {"episodes": len(episodes), "restores": len(restores),
             "iterations": sum(ep.completed for ep in episodes),
             "one_off_setup_s": [round(s, 4) for s in one_off_s],
             "restore_max_abs_err": _deterministic_error(restores, bench)}
    return metrics, extra


# Traced run -----------------------------------------------------------------
def _traced(w, seed, seconds, root, bench: Run, out_dir):
    tracer, registry = Tracer(), MetricsRegistry()
    arms = {"untraced": [], "traced": [], "plain": []}
    restores = {"untraced": [], "traced": []}
    probes, parallel = [], []

    def episode(arm):
        if arm == "untraced":
            ep = train_episode(w, seed, root, arm)
        else:
            obs.enable(tracer=tracer, registry=registry)
            try:
                ep = train_episode(w, seed, root, arm, tracer)
            finally:
                obs.disable()
        bench.episode(ep)
        arms[arm].append(ep)
        return ep

    def traced_restores(ep, count, shadow):
        obs.enable(tracer=tracer, registry=registry)
        try:
            done = _restores(w, seed, ep, bench, count, tracer,
                             keep_first=shadow)
            restores["traced"] += done
            if shadow and done:
                probe = _probe(w, seed, ep.directory, done[0], bench, tracer)
                if probe is not None:
                    probes.append((done[0].seconds, probe))
                outcome = _parallel(w, seed, ep, bench, tracer)
                if outcome is not None:
                    parallel.append(outcome)
        finally:
            obs.disable()

    phase = _now()
    while True:
        for arm in ("untraced", "traced", "plain"):
            ep = episode(arm)
            if arm == "untraced":
                restores["untraced"] += _restores(
                    w, seed, ep, bench, w.restores_per_episode)
            elif arm == "traced":
                traced_restores(ep, w.restores_per_episode, shadow=True)
            release(ep)
        if _now() - phase >= seconds:
            break
    untraced_rate = layers.training_metrics(arms["untraced"])
    traced_rate = layers.training_metrics(arms["traced"])
    overhead = (untraced_rate["train_iter_per_s"]
                / traced_rate["train_iter_per_s"])

    traced = arms["traced"]
    snapshot = registry.snapshot()
    metrics = {}
    metrics.update(layers.step_metrics(traced, arms["plain"]))
    metrics.update(layers.storage_metrics(traced, restores["traced"]))
    metrics.update(layers.registry_metrics(
        snapshot, sum(ep.completed for ep in traced)))
    metrics.update(layers.recovery_metrics(restores["traced"], probes,
                                           parallel))
    metrics["trace.overhead_ratio"] = overhead
    metrics.update(layers.reconcile(tracer.events()))
    metrics["restore_max_abs_err"] = _deterministic_error(
        restores["traced"] + restores["untraced"], bench)
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(out_dir, "trace.json"))
    with open(os.path.join(out_dir, "registry.json"), "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
    extra = {"episodes": {arm: len(eps) for arm, eps in arms.items()},
             "restores": {arm: len(r) for arm, r in restores.items()},
             "probes": len(probes), "parallel_restores": len(parallel),
             "trace_events": len(tracer.events()),
             "trace_dropped": tracer.dropped}
    return metrics, extra
