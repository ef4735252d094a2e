"""Observability overhead guards for disabled mode, plus a CI capture.

The obs layer's contract is that a disabled run pays one attribute load
plus one branch per instrumented site — no calls, no allocation.  This
benchmark pins that contract two ways and writes ``BENCH_OBS.json``:

1. **<3% overhead** — the per-step-equivalent cost of the guarded no-op
   instrumentation sequence (measured in-process, same interpreter
   state) must be under 3% of a real disabled training step.  Measuring
   the guard cost directly rather than differencing two noisy
   end-to-end runs makes the assertion machine-independent: the ratio
   compares two numbers from the same process on the same core.
2. **Zero allocation** — ``tracemalloc`` sees no Python allocations
   across the guarded no-op sequence, and ``obs.span()`` in disabled
   mode returns the shared singleton (no fresh object per call).

``--capture DIR`` additionally runs one async-engine persist workload
(codec on, ~2 MiB full records over local disk) under an open capture
and saves its Chrome trace, metrics snapshot and a flight-recorder dump
to ``DIR`` — the CI artifacts the SLO gate
(``python -m repro.obs.report --slo benchmarks/slo_ci.json``) reads.

Run directly (``python benchmarks/bench_obs_overhead.py [--capture DIR]``)
or via pytest; both regenerate ``BENCH_OBS.json``.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import tracemalloc

import numpy as np
import pytest

from repro import obs
from repro.compression import TopKCompressor
from repro.distributed import DataParallelTrainer, SyntheticClassification
from repro.obs import NOOP_SPAN, OBS
from repro.obs.flight import FLIGHT
from repro.optim import Adam
from repro.storage.async_engine import AsyncCheckpointEngine
from repro.storage.backends import LocalDiskBackend
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.payload_codec import make_codec
from repro.tensor.loss import CrossEntropyLoss
from repro.tensor.models import MLP
from repro.utils.rng import Rng

QUICK = bool(os.environ.get("BENCH_QUICK"))
RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_OBS.json")

STEPS = 6 if QUICK else 20
#: Guarded sites one training iteration executes (trainer.step has ~18
#: ``if OBS.enabled`` touches: 8 spans' begin/end, the initial load and
#: the end-of-step counters); round up for slack.
GUARDS_PER_STEP = 24
GUARD_ROUNDS = 50_000 if QUICK else 200_000


def make_trainer():
    return DataParallelTrainer(
        model_builder=lambda rank: MLP(64, [128, 128], 16, rng=Rng(7)),
        optimizer_builder=lambda m: Adam(m, lr=1e-3),
        loss_fn=CrossEntropyLoss(),
        dataset=SyntheticClassification(64, 16, batch_size=4, seed=8),
        num_workers=2,
        compressor_builder=lambda: TopKCompressor(0.05),
    )


def measure_step_s() -> float:
    """Mean disabled-mode training-step time (the denominator)."""
    assert not OBS.enabled
    trainer = make_trainer()
    for _ in range(2):  # warm-up: scratch buffers, allocator
        trainer.step()
    started = time.perf_counter()
    for _ in range(STEPS):
        trainer.step()
    return (time.perf_counter() - started) / STEPS


def guarded_noop_sequence() -> None:
    """One step's worth of disabled instrumentation touches."""
    for _ in range(GUARDS_PER_STEP):
        if OBS.enabled:  # pragma: no cover - disabled in this benchmark
            OBS.tracer.begin("x", "train")


def measure_guard_s() -> float:
    """Per-step-equivalent cost of the no-op guards (the numerator).

    The Python ``for`` loop inside :func:`guarded_noop_sequence` is
    counted too, which real call sites don't pay — the measurement is an
    overestimate, keeping the 3% bound conservative.
    """
    assert not OBS.enabled
    guarded_noop_sequence()  # warm
    started = time.perf_counter()
    for _ in range(GUARD_ROUNDS):
        guarded_noop_sequence()
    return (time.perf_counter() - started) / GUARD_ROUNDS


def run_all() -> dict:
    step_s = measure_step_s()
    guard_s = measure_guard_s()
    results = {
        "benchmark": "obs-disabled-overhead",
        "quick_mode": QUICK,
        "guards_per_step": GUARDS_PER_STEP,
        "train_step_s": step_s,
        "noop_guards_s_per_step": guard_s,
        "overhead_fraction": guard_s / step_s,
    }
    with open(RESULT_PATH, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    return results


# ---------------------------------------------------------------------------
# CI artifact capture: one instrumented async-engine persist run
# ---------------------------------------------------------------------------

CAPTURE_RECORDS = 8 if QUICK else 16
#: ~1 MiB of float32 per state half (~2 MiB per full record): the record
#: size the SLO targets in ``benchmarks/slo_ci.json`` were pinned at.
CAPTURE_PAYLOAD_ELEMS = 256 * 1024


def capture_persist_run(capture_dir: str) -> dict:
    """Persist ``CAPTURE_RECORDS`` fulls through the async engine under an
    open capture; save trace, metrics snapshot and flight dump to
    ``capture_dir`` and return the snapshot."""
    rng = np.random.default_rng(9)
    model = {"w": rng.standard_normal(CAPTURE_PAYLOAD_ELEMS,
                                      dtype=np.float32)}
    optim = {"m": rng.standard_normal(CAPTURE_PAYLOAD_ELEMS,
                                      dtype=np.float32)}
    with tempfile.TemporaryDirectory(prefix="bench-obs-capture-") as tmp:
        store = CheckpointStore(LocalDiskBackend(tmp),
                                codec=make_codec("lossless"))
        with obs.capture() as active:
            engine = AsyncCheckpointEngine(store, num_writers=2,
                                           queue_depth=8)
            try:
                for step in range(CAPTURE_RECORDS):
                    engine.save_full(step, model, optim)
                engine.drain()
            finally:
                engine.finalize()
            snapshot = active.registry.snapshot()
            os.makedirs(capture_dir, exist_ok=True)
            active.tracer.save(os.path.join(capture_dir, "trace.json"))
    with open(os.path.join(capture_dir, "metrics.json"), "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    FLIGHT.dump(path=os.path.join(capture_dir, "flight.json"),
                reason="bench artifact capture")
    return snapshot


@pytest.fixture(scope="module")
def results():
    return run_all()


def test_disabled_overhead_under_3_percent(results):
    # Acceptance criterion: instrumented-but-disabled hot paths stay
    # within 3% of the uninstrumented baseline.
    assert results["overhead_fraction"] < 0.03


def test_disabled_guards_allocate_nothing():
    assert not OBS.enabled
    guarded_noop_sequence()  # warm (no lazily-built state left)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(100):
            guarded_noop_sequence()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before == 0


def test_disabled_span_is_shared_singleton():
    assert not OBS.enabled
    assert obs.span("anything", "train") is NOOP_SPAN
    assert obs.span("something-else") is NOOP_SPAN


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser()
    parser.add_argument("--capture", default=None, metavar="DIR",
                        help="save trace / metrics snapshot / flight dump "
                             "from an instrumented async-engine persist run")
    parser.add_argument("--skip-disabled", action="store_true",
                        help="skip the disabled-mode guards")
    cli = parser.parse_args()
    out = {} if cli.skip_disabled else run_all()
    if cli.capture is not None:
        snapshot = capture_persist_run(cli.capture)
        out["captured_metrics"] = len(snapshot)
    print(json.dumps(out, indent=2))
