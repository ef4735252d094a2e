"""End-to-end benchmark of the async persistence pipeline (PR 2 artifact).

Measures the three claims the pipeline makes and writes them to
``BENCH_PR2.json`` at the repo root:

1. **Checkpoint stall per iteration** — time the training thread spends
   blocked in checkpoint calls at diff frequency 1, synchronous saves vs
   the background writer-pool engine (which only pays staging/enqueue).
2. **Recovery wall-clock vs chain length** — threaded recovery (parallel
   reads + decodes + merge tree) vs the single-threaded path, against a
   backend emulating per-read storage latency (the paper's remote/SSD
   fetch).  Bit-exactness of both modes is asserted, not assumed.
3. **Serializer throughput** — allocating ``pack_tree`` vs zero-copy
   ``pack_tree_into`` a pooled buffer, plus the per-record pack time of a
   small-diffs-shaped record (12 blobs, ~16 KB), guarded under 1 ms.

``BENCH_QUICK=1`` shrinks every dimension for CI smoke runs (and relaxes
the ratio assertions, which need realistic sizes to be meaningful).
Run directly (``python benchmarks/bench_async_pipeline.py``) or via
pytest; both regenerate the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time

import numpy as np
import pytest

from repro import obs
from repro.compression import TopKCompressor
from repro.core.recovery import parallel_recover
from repro.obs import OBS, MetricsRegistry
from repro.optim import SGD
from repro.storage import (
    AsyncCheckpointEngine,
    CheckpointStore,
    InMemoryBackend,
    LocalDiskBackend,
)
from repro.storage.payload_codec import payload_to_tree
from repro.storage.serializer import pack_tree, pack_tree_into
from repro.tensor.models import MLP
from repro.utils.rng import Rng

QUICK = bool(os.environ.get("BENCH_QUICK"))
RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_PR2.json")

# Scale: quick mode keeps CI under a few seconds.
ITERATIONS = 16 if QUICK else 48
FULL_EVERY = 8
CHAIN_LENGTHS = (8,) if QUICK else (8, 32, 64)
#: Emulated per-record fetch latency — the remote/object-store regime the
#: paper recovers from (tens of ms per GET); quick mode keeps CI fast.
READ_LATENCY_S = 0.002 if QUICK else 0.010
MODEL_SPEC = (64, [128, 128], 16) if QUICK else (256, [512, 512], 64)
RHO = 0.05

#: All timings land in histograms on this registry via ``obs.timed``;
#: reported numbers are read back from snapshots (best-of-N = histogram
#: ``min``), and the async-engine section comes from a registry delta
#: over the measured run — the JSON artifact is registry-sourced.
BENCH_REGISTRY = MetricsRegistry()


def timed_round(name: str, fn):
    with obs.timed(name, registry=BENCH_REGISTRY):
        result = fn()
    return result


def hist_min(name: str) -> float:
    return BENCH_REGISTRY.snapshot()[f"{name}.s"]["min"]


class SlowReadBackend(InMemoryBackend):
    """Memory store with emulated per-read fetch latency.

    Models the paper's recovery fetch from SSD/remote storage, where each
    record read pays real I/O latency that independent reads can overlap.
    """

    def __init__(self, read_latency_s: float):
        super().__init__()
        self.read_latency_s = read_latency_s

    def _read(self, key: str) -> bytes:
        time.sleep(self.read_latency_s)
        return super()._read(key)


def build_model():
    return MLP(*MODEL_SPEC, rng=Rng(0))


def make_states():
    model = build_model()
    optimizer = SGD(model, lr=0.05)
    return model, optimizer


def make_payloads(model, count, seed=1):
    compressor = TopKCompressor(RHO)
    rng = Rng(seed)
    return [
        compressor.compress({
            name: rng.child(step, name).normal(size=p.shape)
            for name, p in model.named_parameters()
        })
        for step in range(count)
    ]


def compute_kernel(size=320, loops=12):
    """Stand-in for an iteration's compute (~25 ms of GIL-releasing
    matmuls that the background writers overlap).  Sized so compute
    dominates per-iteration checkpoint work — the operating point the
    paper targets; were checkpointing the bottleneck, no pipeline could
    hide it."""
    a = np.ones((size, size))
    out = 0.0
    for _ in range(loops):
        out += float((a @ a)[0, 0]) * 1e-9
    return out


# ---------------------------------------------------------------------------
# 1. Per-iteration checkpoint stall, sync vs async (diff frequency 1)
# ---------------------------------------------------------------------------

def measure_stall(tmpdir: str) -> dict:
    model, optimizer = make_states()
    payloads = make_payloads(model, ITERATIONS)

    def run_sync():
        store = CheckpointStore(LocalDiskBackend(os.path.join(tmpdir, "sync")))
        stall = 0.0
        for step in range(ITERATIONS):
            compute_kernel()
            started = time.perf_counter()
            if step % FULL_EVERY == 0:
                store.save_full(step, model.state_dict(),
                                optimizer.state_dict())
            else:
                store.save_diff(start=step, end=step,
                                payload=payloads[step])
            stall += time.perf_counter() - started
        return stall / ITERATIONS, None

    def run_async():
        store = CheckpointStore(LocalDiskBackend(os.path.join(tmpdir, "async")))
        engine = AsyncCheckpointEngine(store, num_writers=2, queue_depth=8)
        # The engine section is read back as a registry delta over this
        # run — the instrumented engine counts into the active registry.
        before = OBS.registry.snapshot("ckpt.async.")
        stall = 0.0
        for step in range(ITERATIONS):
            compute_kernel()
            started = time.perf_counter()
            if step % FULL_EVERY == 0:
                engine.save_full(step, model.state_dict(),
                                 optimizer.state_dict())
            else:
                engine.save_diff(step, step, payloads[step])
            stall += time.perf_counter() - started
        engine.finalize()
        delta = OBS.registry.delta(before, "ckpt.async.")
        return stall / ITERATIONS, delta, engine.stats()

    # Warm-up (page cache, buffer pools), then measure.
    run_sync()
    sync_stall = run_sync()[0]
    BENCH_REGISTRY.observe("bench.stall.sync_per_iter.s", sync_stall)
    run_async()
    async_stall, engine_delta, engine_stats = run_async()
    BENCH_REGISTRY.observe("bench.stall.async_per_iter.s", async_stall)
    return {
        "iterations": ITERATIONS,
        "full_every_iters": FULL_EVERY,
        "diff_every_iters": 1,
        "sync_stall_s_per_iter": sync_stall,
        "async_stall_s_per_iter": async_stall,
        "stall_reduction_x": sync_stall / async_stall,
        "engine": {
            "submitted": engine_delta.get("ckpt.async.submitted", 0),
            "committed": engine_delta.get("ckpt.async.committed", 0),
            "backpressure_stalls": engine_delta.get(
                "ckpt.async.backpressure_stalls", 0),
            "buffers_created": engine_delta.get(
                "ckpt.async.buffer_pool.created", 0),
            "buffers_reused": engine_delta.get(
                "ckpt.async.buffer_pool.reused", 0),
            "snapshot_stalls": engine_delta.get(
                "ckpt.async.snapshot_stalls", 0),
            "high_watermark": engine_stats["high_watermark"],
        },
    }


# ---------------------------------------------------------------------------
# 2. Recovery wall-clock vs chain length, threaded vs single-threaded
# ---------------------------------------------------------------------------

def populate_chain(chain_length: int) -> CheckpointStore:
    model, optimizer = make_states()
    store = CheckpointStore(SlowReadBackend(READ_LATENCY_S))
    store.save_full(0, model.state_dict(), optimizer.state_dict())
    for step, payload in enumerate(make_payloads(model, chain_length), start=1):
        optimizer.step_with(payload.decompress())
        store.save_diff(step, step, payload)
    return store


def recover_once(store: CheckpointStore, max_workers: int, label: str):
    model, optimizer = make_states()
    with obs.timed(label, registry=BENCH_REGISTRY):
        result = parallel_recover(store, model, optimizer,
                                  max_workers=max_workers)
    return model.state_dict(), result


def measure_recovery() -> dict:
    chains = []
    bit_exact = True
    for chain_length in CHAIN_LENGTHS:
        store = populate_chain(chain_length)
        serial_label = f"bench.recover.c{chain_length}.serial"
        threaded_label = f"bench.recover.c{chain_length}.threaded"
        for _ in range(3):
            recover_once(store, max_workers=1, label=serial_label)
            recover_once(store, max_workers=8, label=threaded_label)
        serial_state, serial_result = recover_once(
            store, max_workers=1, label=serial_label)
        threaded_state, threaded_result = recover_once(
            store, max_workers=8, label=threaded_label)
        serial_s = hist_min(serial_label)
        threaded_s = hist_min(threaded_label)
        for name in serial_state:
            if not np.array_equal(serial_state[name], threaded_state[name]):
                bit_exact = False
        chains.append({
            "chain_length": chain_length,
            "serial_s": serial_s,
            "threaded_s": threaded_s,
            "speedup_x": serial_s / threaded_s,
            "merge_ops": threaded_result.merge_ops,
            "merge_depth": threaded_result.merge_depth,
            "recovered_step": threaded_result.step,
        })
        assert serial_result.step == threaded_result.step == chain_length
    return {
        "read_latency_ms": READ_LATENCY_S * 1e3,
        "threaded_workers": 8,
        "bit_exact": bit_exact,
        "chains": chains,
    }


# ---------------------------------------------------------------------------
# 3. Serializer throughput: copying vs zero-copy pooled pack
# ---------------------------------------------------------------------------

#: The small-diffs record shape: the diff of the ~87k-param
#: MLP(64, [256, 256], 16) after two workers' top-k 0.01 selections are
#: all-reduced (~2% density), 12 blobs and ~16 KB packed.  Per-record
#: fixed costs, not bytes, decide its pack time.
SMALL_RECORD_MODEL = (64, [256, 256], 16)
SMALL_RECORD_RHO = 0.02
#: Guard on the small record's per-record ``pack_tree_into`` time, quick
#: mode included.  A per-byte Python-level checksum costs ~9 ms per record
#: on a 2-vCPU box; one ``zlib.crc32`` pass costs ~0.3 ms.
SMALL_RECORD_PACK_MS_MAX = 1.0


def small_record_tree() -> dict:
    model = MLP(*SMALL_RECORD_MODEL, rng=Rng(0))
    payload = TopKCompressor(SMALL_RECORD_RHO).compress({
        name: Rng(5).child(name).normal(size=p.shape)
        for name, p in model.named_parameters()
    })
    return CheckpointStore.diff_tree(1, 1, 1, payload_to_tree(payload))


def measure_serializer() -> dict:
    size = 500_000 if QUICK else 2_000_000
    tree = {"model": {"w": Rng(3).normal(size=(size,))}, "step": 7}
    nbytes = len(pack_tree(tree))
    rounds = 5 if QUICK else 10

    def throughput(label, fn):
        for _ in range(rounds):
            with obs.timed(label, registry=BENCH_REGISTRY):
                fn()
        return nbytes / hist_min(label) / 1e6

    buffer = bytearray()

    def zero_copy(record=tree):
        view, _ = pack_tree_into(record, buffer)
        view.release()

    zero_copy()  # warm the buffer so steady state is measured
    copy_mb_s = throughput("bench.pack.copy", lambda: pack_tree(tree))
    zero_copy_mb_s = throughput("bench.pack.zero_copy", zero_copy)

    # The small record through the pooled buffer the large one grew, as a
    # writer thread's pool buffer is reused in steady state.
    small = small_record_tree()
    small_rounds = 50 if QUICK else 200
    for _ in range(small_rounds):
        with obs.timed("bench.pack.small_record", registry=BENCH_REGISTRY):
            zero_copy(small)
    timings = BENCH_REGISTRY.snapshot()["bench.pack.small_record.s"]
    return {
        "container_mb": nbytes / 1e6,
        "copy_pack_mb_s": copy_mb_s,
        "zero_copy_pack_mb_s": zero_copy_mb_s,
        "speedup_x": zero_copy_mb_s / copy_mb_s,
        "small_record": {
            "blobs": len(small["payload"]["entries"]) * 2,
            "packed_bytes": len(pack_tree(small)),
            "rounds": small_rounds,
            "pack_ms_per_record": timings["sum"] / timings["count"] * 1e3,
            "pack_ms_min": timings["min"] * 1e3,
            "pack_ms_max_allowed": SMALL_RECORD_PACK_MS_MAX,
        },
    }


def run_all(trace_path: str | None = None,
            metrics_path: str | None = None) -> dict:
    # An obs capture around the whole run: the engine/recovery
    # instrumentation feeds the registry the engine section reads, and
    # the bench timings appear as spans on the same trace.
    with obs.capture() as active:
        with tempfile.TemporaryDirectory() as tmpdir:
            stall = measure_stall(tmpdir)
        results = {
            "benchmark": "async-persistence-pipeline",
            "quick_mode": QUICK,
            "cpu_count": os.cpu_count(),
            "checkpoint_stall": stall,
            "recovery": measure_recovery(),
            "serializer": measure_serializer(),
        }
        results["registry_metrics"] = BENCH_REGISTRY.snapshot()
        if trace_path:
            active.tracer.save(trace_path)
        if metrics_path:
            merged = active.registry.snapshot()
            merged.update(BENCH_REGISTRY.snapshot())
            with open(metrics_path, "w") as handle:
                json.dump(merged, handle, indent=2, sort_keys=True)
                handle.write("\n")
    with open(RESULT_PATH, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    return results


@pytest.fixture(scope="module")
def results():
    return run_all()


def test_async_cuts_checkpoint_stall(results):
    stall = results["checkpoint_stall"]
    assert stall["engine"]["committed"] == ITERATIONS
    if not QUICK:
        # Acceptance: >= 2x per-iteration stall reduction at diff freq 1.
        assert stall["stall_reduction_x"] >= 2.0


def test_threaded_recovery_speedup(results):
    recovery = results["recovery"]
    assert recovery["bit_exact"]
    if not QUICK:
        long_chains = [c for c in recovery["chains"]
                       if c["chain_length"] >= 32]
        assert long_chains
        # Acceptance: >= 1.5x on chains of >= 32 diffs.
        assert all(c["speedup_x"] >= 1.5 for c in long_chains)


def test_zero_copy_serializer_not_slower(results):
    serializer = results["serializer"]
    if not QUICK:
        assert serializer["speedup_x"] >= 1.0


def test_small_record_pack_under_budget(results):
    small = results["serializer"]["small_record"]
    assert small["blobs"] == 12
    assert small["pack_ms_per_record"] < SMALL_RECORD_PACK_MS_MAX


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome-trace JSON of the run")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write the merged metrics snapshot JSON")
    cli = parser.parse_args()
    print(json.dumps(run_all(trace_path=cli.trace, metrics_path=cli.metrics),
                     indent=2))
