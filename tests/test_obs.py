"""Tests for the unified observability layer (metrics, tracing, wiring).

Covers the registry (typing, concurrency, bucket edges, snapshot/delta/
reset), the tracer (nesting, ordering, deterministic serialization), the
disabled fast path (zero allocation), the sim's virtual-clock traces
(byte-identical across identical runs), and the instrumented functional
stack (LowDiff with the async engine emits a valid Chrome trace plus a
metrics snapshot; engine failures surface their originating record),
interpolated histogram quantiles, the flight recorder, and the SLO
targets and watchdog.
"""

import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.compression.sparse import (
    KWAY_COUNTER_FALLBACK,
    KWAY_COUNTER_KWAY,
    KWAY_MERGE_STATS,
)
from repro.core import CheckpointConfig, LowDiffCheckpointer
from repro.obs import NOOP_SPAN, OBS, MetricsRegistry, Tracer
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Histogram, quantile_from_snapshot
from repro.obs.report import main as report_main, tail_latency_rows
from repro.obs.slo import (
    DEFAULT_TARGETS,
    SloTarget,
    SloWatchdog,
    evaluate_snapshot,
    load_slo_config,
)
from repro.sim.cluster import A100_CLUSTER
from repro.sim.engine import TrainingSim
from repro.sim.strategies.lowdiff import LowDiffStrategy
from repro.sim.workload import Workload
from repro.storage import AsyncCheckpointEngine, CheckpointStore, InMemoryBackend
from tests.helpers import make_mlp_trainer


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.inc("a.count")
        registry.inc("a.count", 4)
        registry.set("a.depth", 3.5)
        registry.observe("a.wait.s", 0.2)
        assert registry.counter("a.count").value == 5
        assert registry.gauge("a.depth").value == 3.5
        assert registry.histogram("a.wait.s").count == 1

    def test_kind_is_sticky(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()
        rounds, threads = 2_000, 8

        def work():
            for _ in range(rounds):
                registry.counter("hot").inc()
                registry.observe("hot.s", 0.001)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert registry.counter("hot").value == rounds * threads
        assert registry.histogram("hot.s").count == rounds * threads

    def test_histogram_bucket_edges_inclusive(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.0000001, 2.0, 4.0, 4.1):
            hist.observe(value)
        snap = hist._snapshot()
        # value <= bound places in that bucket: 0.5 and 1.0 share bucket 1.
        assert snap["buckets"]["1.0"] == 2
        assert snap["buckets"]["2.0"] == 2   # 1.0000001 and 2.0
        assert snap["buckets"]["4.0"] == 1   # 4.0 exactly
        assert snap["buckets"]["inf"] == 1   # 4.1 overflows
        assert snap["min"] == 0.5 and snap["max"] == 4.1

    def test_snapshot_delta_reset(self):
        registry = MetricsRegistry()
        registry.inc("c", 10)
        registry.set("g", 2.0)
        registry.observe("h", 0.5, buckets=(1.0,))
        before = registry.snapshot()
        registry.inc("c", 5)
        registry.set("g", 7.0)
        registry.observe("h", 0.25, buckets=(1.0,))
        delta = registry.delta(before)
        assert delta["c"] == 5
        assert delta["g"] == 5.0
        assert delta["h"]["count"] == 1
        assert delta["h"]["sum"] == pytest.approx(0.25)
        registry.reset()
        assert registry.counter("c").value == 0
        assert registry.histogram("h", buckets=(1.0,)).count == 0
        # Snapshot is JSON-serializable as-is.
        json.dumps(registry.snapshot())

    def test_snapshot_prefix_filters(self):
        registry = MetricsRegistry()
        registry.inc("ckpt.async.submitted")
        registry.inc("comm.allreduce.calls")
        assert list(registry.snapshot("ckpt.")) == ["ckpt.async.submitted"]
        assert registry.names("comm.") == ["comm.allreduce.calls"]


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTracer:
    def test_span_nesting_and_ordering(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.begin("outer", "train")
        clock.now = 1.0
        tracer.begin("inner", "train")
        clock.now = 3.0
        tracer.end()      # inner: [1.0, 3.0]
        clock.now = 4.0
        tracer.end()      # outer: [0.0, 4.0]
        spans = [e for e in tracer.events() if e["ph"] == "X"]
        # Inner closes first, so it is appended first.
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner["ts"] == pytest.approx(1.0e6)
        assert inner["dur"] == pytest.approx(2.0e6)
        assert outer["ts"] == pytest.approx(0.0)
        assert outer["dur"] == pytest.approx(4.0e6)
        # Nesting: inner entirely inside outer, on the same track.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert inner["tid"] == outer["tid"]

    def test_span_context_manager(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("phase", "train", {"k": 1}):
            pass
        (span,) = [e for e in tracer.events() if e["ph"] == "X"]
        assert span["name"] == "phase"
        assert span["cat"] == "train"
        assert span["args"] == {"k": 1}

    def test_explicit_api_named_tracks(self):
        tracer = Tracer(clock=FakeClock())
        tracer.complete_at("persist", 2.0, 0.5, track="ssd", category="ckpt")
        tracer.instant_at("fault", 2.25, track="ssd")
        tracer.counter_at("depth", 2.5, 3)
        events = tracer.events()
        names = {e.get("name") for e in events}
        assert {"persist", "fault", "depth"} <= names
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["args"]["name"] == "ssd" for e in meta)
        persist = next(e for e in events if e["name"] == "persist")
        assert persist["ts"] == pytest.approx(2.0e6)
        assert persist["dur"] == pytest.approx(0.5e6)

    def test_event_limit_counts_drops(self):
        tracer = Tracer(clock=FakeClock(), limit=2)
        for index in range(5):
            tracer.instant(f"i{index}")
        # The first instant also registers the thread's metadata event.
        assert len(tracer.events()) == 2
        assert tracer.dropped == 4

    def test_export_is_valid_chrome_trace(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        container = json.loads(tracer.to_json())
        assert "traceEvents" in container
        for event in container["traceEvents"]:
            assert "ph" in event and "pid" in event

    def test_identical_event_streams_serialize_identically(self):
        def build():
            tracer = Tracer(clock=FakeClock())
            tracer.complete_at("x", 1.0, 2.0, track="t", args={"n": 3})
            tracer.instant_at("y", 1.5, track="t")
            return tracer.to_json()

        assert build() == build()


# ---------------------------------------------------------------------------
# Disabled fast path
# ---------------------------------------------------------------------------

class TestDisabledMode:
    def test_disabled_by_default(self):
        assert not OBS.enabled
        assert not obs.enabled()

    def test_span_returns_shared_noop(self):
        assert obs.span("anything") is NOOP_SPAN
        with obs.span("still-noop", "cat", {"a": 1}):
            pass

    def test_guarded_sites_allocate_nothing_when_disabled(self):
        def hot_site():
            if OBS.enabled:  # pragma: no cover - disabled here
                OBS.tracer.begin("x")

        hot_site()  # warm any lazy state
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(200):
                hot_site()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before == 0

    def test_capture_restores_previous_state(self):
        outer_registry, outer_tracer = OBS.registry, OBS.tracer
        with obs.capture() as active:
            assert OBS.enabled
            assert active.registry is OBS.registry
            assert active.registry is not outer_registry
        assert not OBS.enabled
        assert OBS.registry is outer_registry
        assert OBS.tracer is outer_tracer


# ---------------------------------------------------------------------------
# Legacy shims on the registry
# ---------------------------------------------------------------------------

class TestLegacyShims:
    def test_kway_stats_view_reads_active_registry(self):
        with obs.capture():
            OBS.registry.counter(KWAY_COUNTER_KWAY).inc(3)
            OBS.registry.counter(KWAY_COUNTER_FALLBACK).inc()
            assert KWAY_MERGE_STATS["kway"] == 3
            assert KWAY_MERGE_STATS["fallback"] == 1
            assert dict(KWAY_MERGE_STATS) == {"kway": 3, "fallback": 1}


# ---------------------------------------------------------------------------
# Sim virtual-clock traces
# ---------------------------------------------------------------------------

def run_sim_trace(iterations=200):
    workload = Workload.create("gpt2_large", A100_CLUSTER, rho=0.01)
    tracer = Tracer(clock=lambda: 0.0)
    strategy = LowDiffStrategy(full_every=20, batch_size=4, diff_every=2)
    sim = TrainingSim(workload, strategy, tracer=tracer)
    result = sim.run(iterations)
    return tracer, result


class TestSimTraces:
    def test_two_identical_runs_byte_identical_trace(self):
        first, _ = run_sim_trace()
        second, _ = run_sim_trace()
        assert first.to_json() == second.to_json()
        assert len(first.events()) > 0

    def test_trace_carries_persist_and_stall_events(self):
        tracer, result = run_sim_trace()
        events = tracer.events()
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "persist" in names
        assert any(name.startswith("stall:") for name in names)
        # Virtual timestamps are non-negative and finite; async channels
        # may drain past the training wall, so no upper bound on ts.
        assert result.total_time > 0
        for event in events:
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0

    def test_sim_mirrors_result_into_registry(self):
        with obs.capture() as active:
            _, result = run_sim_trace()
            snap = active.registry.snapshot("sim.")
        assert snap["sim.total_time_s"] == pytest.approx(result.total_time)
        assert snap["sim.stall_time_s"] == pytest.approx(result.stall_time)

    def test_tracer_does_not_change_sim_numbers(self):
        workload = Workload.create("gpt2_large", A100_CLUSTER, rho=0.01)
        plain = TrainingSim(workload,
                            LowDiffStrategy(full_every=20, batch_size=4)
                            ).run(300)
        traced = TrainingSim(workload,
                             LowDiffStrategy(full_every=20, batch_size=4),
                             tracer=Tracer(clock=lambda: 0.0)).run(300)
        assert plain.total_time == traced.total_time
        assert plain.stalls_by_cause == traced.stalls_by_cause


# ---------------------------------------------------------------------------
# Functional stack integration
# ---------------------------------------------------------------------------

class TestFunctionalIntegration:
    def test_lowdiff_async_run_emits_trace_and_metrics(self):
        with obs.capture() as active:
            trainer = make_mlp_trainer(num_workers=2, rho=0.1, seed=13)
            store = CheckpointStore(InMemoryBackend())
            checkpointer = LowDiffCheckpointer(
                store,
                CheckpointConfig(full_every_iters=5, batch_size=2,
                                 async_persist=True),
            )
            checkpointer.attach(trainer)
            trainer.run(12)
            checkpointer.finalize()
            trace_json = active.tracer.to_json()
            snapshot = active.registry.snapshot()

        container = json.loads(trace_json)  # valid Chrome-trace JSON
        phases = {e["name"] for e in container["traceEvents"]
                  if e.get("ph") == "X"}
        assert {"iteration", "forward_backward", "serialize",
                "commit"} <= phases
        assert snapshot["train.iterations"] == 12
        assert snapshot["ckpt.diff.enqueued"] == 12
        assert snapshot["ckpt.async.submitted"] > 0
        assert (snapshot["ckpt.async.committed"]
                == snapshot["ckpt.async.submitted"])
        assert snapshot["ckpt.async.serialize.s"]["count"] > 0
        # CommStats mirror: the trainer's collectives land globally too.
        assert snapshot["comm.sparse_allgather.calls"] == 12

    def test_engine_failure_surfaces_origin(self):
        class FailingStore(CheckpointStore):
            def save_diff_bytes(self, start, end, count, data, crc, **kw):
                raise IOError("disk on fire")

        engine = AsyncCheckpointEngine(
            FailingStore(InMemoryBackend()), num_writers=1, queue_depth=2)
        from repro.compression import TopKCompressor
        from repro.utils.rng import Rng
        payload = TopKCompressor(0.5).compress(
            {"w": Rng(3).normal(size=(16,))})
        pending = engine.save_diff(1, 1, payload)
        with pytest.raises(IOError):
            pending.wait(timeout=10.0)
        with pytest.raises(RuntimeError) as excinfo:
            engine.drain()
        message = str(excinfo.value)
        assert "diff" in message and "seq 0" in message
        assert "disk on fire" in message
        failure = engine.stats()["failure"]
        assert failure["kind"] == "diff"
        assert failure["seq"] == 0
        assert "disk on fire" in failure["error"]
        engine.abort()

    def test_engine_counts_failures_in_registry(self):
        class FailingStore(CheckpointStore):
            def save_diff_bytes(self, start, end, count, data, crc, **kw):
                raise IOError("nope")

        with obs.capture() as active:
            engine = AsyncCheckpointEngine(
                FailingStore(InMemoryBackend()), num_writers=1, queue_depth=2)
            from repro.compression import TopKCompressor
            from repro.utils.rng import Rng
            payload = TopKCompressor(0.5).compress(
                {"w": Rng(3).normal(size=(16,))})
            with pytest.raises(IOError):
                engine.save_diff(1, 1, payload).wait(timeout=10.0)
            engine.abort()
            assert active.registry.counter("ckpt.async.failures").value == 1


# ---------------------------------------------------------------------------
# Interpolated quantiles
# ---------------------------------------------------------------------------

class TestQuantiles:
    def test_against_exact_percentiles_uniform(self):
        # Uniformly spread samples inside bucket spans: linear
        # interpolation is exact to within one bucket span.
        rng = np.random.default_rng(3)
        samples = rng.uniform(0.0005, 4.0, size=5000)
        hist = Histogram("t")
        for value in samples:
            hist.observe(value)
        for q in (0.5, 0.95, 0.99):
            exact = float(np.quantile(samples, q))
            estimate = hist.quantile(q)
            # Error bound: the span of the bucket the true quantile is in.
            bucket = next(b for b in hist.buckets if exact <= b)
            below = max((b for b in hist.buckets if b < bucket), default=0.0)
            assert abs(estimate - exact) <= (bucket - below) + 1e-12, \
                f"q={q}: estimate {estimate} vs exact {exact}"

    def test_clamped_to_observed_range(self):
        hist = Histogram("t")
        for value in (0.007, 0.009, 0.008):
            hist.observe(value)
        assert hist.quantile(0.99) <= 0.009
        assert hist.quantile(0.0) >= 0.007

    def test_empty_histogram_returns_none(self):
        assert Histogram("t").quantile(0.5) is None

    def test_overflow_bucket_uses_max(self):
        hist = Histogram("t", buckets=(1.0,))
        hist.observe(5.0)
        hist.observe(7.0)
        assert hist.quantile(0.99) <= 7.0
        assert hist.quantile(0.99) > 1.0

    def test_snapshot_round_trip_matches_live(self):
        hist = Histogram("t")
        rng = np.random.default_rng(4)
        for value in rng.uniform(0.001, 2.0, size=500):
            hist.observe(value)
        snap = json.loads(json.dumps(hist._snapshot()))
        for q in (0.5, 0.95, 0.99):
            assert quantile_from_snapshot(snap, q) \
                == pytest.approx(hist.quantile(q))

    def test_report_tail_rows_cover_worker_histograms(self):
        registry = MetricsRegistry()
        for value in (0.01, 0.02, 0.03):
            registry.observe("ckpt.mp.worker.encode.s", value)
        registry.inc("ckpt.mp.worker.tasks", 3)  # non-histogram: skipped
        rows = tail_latency_rows(registry.snapshot())
        assert [r["metric"] for r in rows] == ["ckpt.mp.worker.encode.s"]
        assert rows[0]["count"] == 3
        assert rows[0]["p99"] <= 0.03 + 1e-9


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_ring_keeps_only_newest(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(10):
            recorder.record("task", "start", seq=index)
        entries = recorder.entries()
        assert len(entries) == 3
        assert [e["data"]["seq"] for e in entries] == [7, 8, 9]
        assert recorder.recorded == 10

    def test_dump_is_valid_json_with_reason(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        recorder.record("ckpt", "submit", seq=0)
        path = recorder.dump(path=str(tmp_path / "flight.json"),
                             reason="unit test", extra={"outstanding": 1})
        with open(path) as handle:
            body = json.load(handle)
        assert body["reason"] == "unit test"
        assert body["extra"] == {"outstanding": 1}
        assert body["entries"][0]["name"] == "submit"

    def test_report_cli_renders_flight_dump(self, tmp_path, capsys):
        recorder = FlightRecorder(capacity=8)
        recorder.record("task", "error", seq=3, error="boom")
        path = recorder.dump(path=str(tmp_path / "flight.json"),
                             reason="drill")
        assert report_main(["--flight", path]) == 0
        out = capsys.readouterr().out
        assert "drill" in out and "error" in out


# ---------------------------------------------------------------------------
# SLO targets and watchdog
# ---------------------------------------------------------------------------

class TestSlo:
    def test_scalar_sum_over_pattern(self):
        target = SloTarget(name="stall", metric="ckpt.*.stall.s",
                           threshold=1.0, aggregate="sum")
        snapshot = {"ckpt.a.stall.s": 0.6, "ckpt.b.stall.s": 0.7}
        result = evaluate_snapshot([target], snapshot)[0]
        assert result.observed == pytest.approx(1.3)
        assert result.breached

    def test_quantile_aggregate_takes_worst_match(self):
        hist_fast, hist_slow = Histogram("a"), Histogram("b")
        hist_fast.observe(0.01)
        hist_slow.observe(0.9)
        target = SloTarget(name="p99", metric="lat.*", threshold=0.5,
                           aggregate="p99")
        snapshot = {"lat.a": hist_fast._snapshot(),
                    "lat.b": hist_slow._snapshot()}
        result = evaluate_snapshot([target], snapshot)[0]
        assert result.breached
        assert result.observed > 0.5

    def test_no_data_is_not_a_breach(self):
        results = evaluate_snapshot(DEFAULT_TARGETS, {})
        assert all(not r.breached for r in results)
        assert all(r.status == "no-data" for r in results)

    def test_min_objective(self):
        target = SloTarget(name="throughput", metric="tps", threshold=10,
                           objective="min")
        assert evaluate_snapshot([target], {"tps": 5})[0].breached
        assert not evaluate_snapshot([target], {"tps": 15})[0].breached

    def test_invalid_objective_rejected(self):
        with pytest.raises(ValueError):
            SloTarget(name="x", metric="m", threshold=1, objective="exact")
        with pytest.raises(ValueError):
            SloTarget(name="x", metric="m", threshold=1, aggregate="p42")

    def test_load_config_and_cli_gate_exit_codes(self, tmp_path, capsys):
        config = tmp_path / "slo.json"
        config.write_text(json.dumps({"targets": [
            {"name": "tasks-bound", "metric": "w.tasks", "threshold": 2},
        ]}))
        targets = load_slo_config(str(config))
        assert targets[0].name == "tasks-bound"

        healthy = tmp_path / "ok.json"
        healthy.write_text(json.dumps({"w.tasks": 1}))
        breached = tmp_path / "bad.json"
        breached.write_text(json.dumps({"w.tasks": 9}))
        assert report_main(["--metrics", str(healthy),
                            "--slo", str(config)]) == 0
        capsys.readouterr()
        assert report_main(["--metrics", str(breached),
                            "--slo", str(config)]) == 1
        assert "BREACH" in capsys.readouterr().out

    def test_ci_config_parses_against_defaults_shape(self):
        targets = load_slo_config(
            os.path.join(os.path.dirname(__file__), os.pardir,
                         "benchmarks", "slo_ci.json"))
        assert {t.name for t in targets} >= {
            "persist-stall-budget", "breaker-open"}

    def test_watchdog_records_breaches(self):
        target = SloTarget(name="tasks-bound", metric="w.tasks", threshold=1)
        with obs.capture() as active:
            active.registry.inc("w.tasks", 5)
            watchdog = SloWatchdog([target])
            breaches = watchdog.check()
            snap = active.registry.snapshot()
        assert len(breaches) == 1
        assert snap["slo.breaches"] == 1
        assert snap["slo.breach.tasks-bound"] == 1
