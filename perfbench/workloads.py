"""Workload definitions and the episode/restore machinery.

An *episode* is one fresh checkpointed training job on its own
``LocalDiskBackend`` directory: build the trainer, store and checkpointer
(the set-up), run a fixed number of ``trainer.step()`` calls, and call
``finalize()``.  Fixed-length episodes keep every per-episode quantity
(bytes written, disk footprint, manifest size) identical from run to run,
so a run's length only changes how many samples the medians pool.

Every episode and every restore is checked; a failure is counted, never
dropped from the timings silently.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro import (
    MLP,
    Adam,
    CheckpointConfig,
    CheckpointStore,
    CrossEntropyLoss,
    DataParallelTrainer,
    LocalDiskBackend,
    LowDiffCheckpointer,
    Rng,
    SparseGradient,
    SyntheticClassification,
    TopKCompressor,
)
from repro.compression.sparse import DenseScratch
from repro.storage.compaction import RetentionPolicy

from durability import durable_latencies_ms
from instrument import HookProbe, InstrumentedBackend, TimedCompressor

_now = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    in_features: int
    hidden: tuple
    out_features: int
    rho: float                # top-k density
    data_batch: int           # samples per worker per step
    iterations: int           # steps per training episode
    warmup_iterations: int    # steps of the untimed warm-up episode
    config: CheckpointConfig
    keep_fulls: int | None    # RetentionPolicy(keep_fulls); None = no policy
    restores_per_episode: int

    def describe(self) -> dict:
        out = dataclasses.asdict(self)
        out["config"] = dataclasses.asdict(self.config)
        out["hidden"] = list(self.hidden)
        return out


WORKLOADS = {
    "small-diffs": Workload(
        name="small-diffs",
        why=("paper headline setting: ~15 KB diff per step, so per-record "
             "fixed costs (CRC fold, manifest rewrite, fsyncs) dominate"),
        in_features=64, hidden=(256, 256), out_features=16,
        rho=0.01, data_batch=8,
        iterations=150, warmup_iterations=20,
        config=CheckpointConfig(full_every_iters=100, batch_size=1,
                                async_persist=True, writer_threads=2),
        keep_fulls=2, restores_per_episode=5),
    "large-sharded": Workload(
        name="large-sharded",
        why=("8 MB fulls over 4 shards with the lossless codec and BS 4, so "
             "per-byte costs (snapshot copy, CRC, encode, fan-out) dominate"),
        in_features=128, hidden=(512, 512), out_features=32,
        rho=0.05, data_batch=8,
        iterations=37, warmup_iterations=12,
        config=CheckpointConfig(full_every_iters=10, batch_size=4,
                                async_persist=True, writer_threads=1,
                                codec="lossless", shards=4,
                                shard_concurrency=2),
        keep_fulls=None, restores_per_episode=5),
}


# Builders -------------------------------------------------------------------
def build_model(w: Workload, seed: int):
    return MLP(w.in_features, list(w.hidden), w.out_features, rng=Rng(seed))


def build_optimizer(model):
    return Adam(model, lr=1e-3)


def build_trainer(w: Workload, seed: int, compressor_builder):
    return DataParallelTrainer(
        model_builder=lambda rank: build_model(w, seed),
        optimizer_builder=build_optimizer,
        loss_fn=CrossEntropyLoss(),
        dataset=SyntheticClassification(w.in_features, w.out_features,
                                        batch_size=w.data_batch,
                                        seed=seed + 1),
        num_workers=2,
        compressor_builder=compressor_builder,
    )


def restore_config(w: Workload) -> CheckpointConfig:
    """The workload's config without the persistence engine: restoring
    reads the store and never starts writer threads."""
    return dataclasses.replace(w.config, async_persist=False)


def fresh_target(w: Workload, seed: int):
    """A restore target initialised differently from the trained model."""
    model = build_model(w, seed + 7919)
    return model, build_optimizer(model)


def open_store(w: Workload, backend):
    """The store exactly as the default restore path opens it."""
    return LowDiffCheckpointer(CheckpointStore(backend), restore_config(w)).store


# State comparison -----------------------------------------------------------
def trees_equal(a, b) -> bool:
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(trees_equal(a[k], b[k]) for k in a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def max_abs_diff(a: dict, b: dict) -> float:
    return max(float(np.max(np.abs(a[k] - b[k]))) for k in a)


def dir_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(directory) for name in names)


# Outcomes -------------------------------------------------------------------
@dataclass
class Expected:
    """What a restore of one directory must produce."""

    step: int
    model: dict        # reference state the restore must equal bit-exactly
    optimizer: dict
    live_model: dict   # the trained state, for the reported error


@dataclass
class RestoreOutcome:
    ok: bool
    seconds: float
    max_abs_err: float = float("nan")
    diffs_replayed: int = 0
    ops: list = field(default_factory=list)
    error: str = ""
    model: dict | None = None
    optimizer: dict | None = None


@dataclass
class Episode:
    arm: str                     # "untraced" | "traced" | "plain"
    planned: int
    directory: str = ""
    setup_s: float = 0.0
    wall_s: float = 0.0          # first step() until finalize() returns
    finalize_s: float = 0.0
    iter_s: list = field(default_factory=list)
    comm_bytes: int = 0
    payload_bytes: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    durable_ms: list = field(default_factory=list)
    bytes_written: int = 0
    disk_bytes_end: int = 0
    stats: dict = field(default_factory=dict)
    synced_hook_s: list = field(default_factory=list)
    update_hook_s: list = field(default_factory=list)
    compress_s: list = field(default_factory=list)
    expected: Expected | None = None

    @property
    def completed(self) -> int:
        return len(self.iter_s)


# Restore --------------------------------------------------------------------
def restore(w: Workload, seed: int, directory: str, expected: Expected,
            tracer=None, parallel: bool = False,
            keep_state: bool = False) -> RestoreOutcome:
    """One default-path restore into a fresh model, timed and checked.

    Timed: reopening the store on the directory, constructing a fresh
    ``LowDiffCheckpointer`` and ``recover()``.  ``parallel=True`` runs the
    non-default merge-tree path; it is timed the same way and its error
    reported, but bit-exactness is not required of it.  ``keep_state``
    keeps the restored state on the outcome for a later cross-check.
    """
    gc.collect()  # no collector debt from earlier work lands in the timing
    model, optimizer = fresh_target(w, seed)
    backend = InstrumentedBackend(LocalDiskBackend(directory), tracer)
    if tracer is not None:
        tracer.begin("restore.parallel" if parallel else "restore",
                     "bench.recovery")
    start = _now()
    try:
        checkpointer = LowDiffCheckpointer(CheckpointStore(backend),
                                           restore_config(w))
        result = checkpointer.recover(model, optimizer, parallel=parallel)
    except Exception as err:  # a failed restore is a counted outcome
        return RestoreOutcome(False, _now() - start, ops=backend.ops,
                              error=f"recover raised {err!r}")
    finally:
        if tracer is not None:
            tracer.end()
    seconds = _now() - start
    model_state = model.state_dict()
    optimizer_state = optimizer.state_dict()
    outcome = RestoreOutcome(True, seconds,
                             max_abs_diff(model_state, expected.live_model),
                             result.diffs_loaded, backend.ops)
    if keep_state:
        outcome.model, outcome.optimizer = model_state, optimizer_state
    if parallel:
        return outcome
    problems = []
    if result.step != expected.step:
        problems.append(f"restored step {result.step} != {expected.step}")
    if result.corrupt_fulls_skipped or result.corrupt_diffs_skipped:
        problems.append(
            f"corrupt records skipped (fulls {result.corrupt_fulls_skipped}, "
            f"diffs {result.corrupt_diffs_skipped})")
    if not trees_equal(model_state, expected.model):
        problems.append("model state differs from the reference")
    if not trees_equal(optimizer_state, expected.optimizer):
        problems.append("optimizer state differs from the reference")
    if problems:
        outcome.ok = False
        outcome.error = "; ".join(problems)
    return outcome


def replay_reference(w: Workload, seed: int, directory: str, chain,
                     live_model: dict) -> Expected:
    """Reference state for a batched (BS > 1) series.

    Loads the newest full through the store's public read functions and
    replays the live run's own synced payloads on it, grouped as the
    committed diff records group them (``SparseGradient.merge_ordered``,
    one ``step_with`` per record): the gradient-accumulation semantics of
    batched records, computed without the recovery code under test.
    """
    store = open_store(w, LocalDiskBackend(directory))
    full = store.latest_full()
    model_state, optimizer_state, step = store.load_full(full)
    model, optimizer = fresh_target(w, seed)
    model.load_state_dict(model_state)
    optimizer.load_state_dict(optimizer_state)
    payloads = dict(chain)
    for view in store.diffs_after(step):
        group = [payloads[s] for s in range(view.start, view.end + 1)]
        merged = group[0] if len(group) == 1 else \
            SparseGradient.merge_ordered(group)
        optimizer.step_with(merged.decompress())
        optimizer.step_count += view.count - 1
    return Expected(step=optimizer.step_count, model=model.state_dict(),
                    optimizer=optimizer.state_dict(), live_model=live_model)


# Training episode -----------------------------------------------------------
def train_episode(w: Workload, seed: int, root: str, arm: str,
                  tracer=None, iterations: int | None = None) -> Episode:
    """One episode.  ``arm="plain"`` trains the same job with no
    checkpointer; ``arm="traced"`` adds every probe and span."""
    planned = w.iterations if iterations is None else iterations
    ep = Episode(arm=arm, planned=planned)
    traced = arm in ("traced", "plain")
    span_tracer = tracer if traced else None
    gc.collect()  # every episode starts with the same collector state
    started = _now()
    ep.directory = tempfile.mkdtemp(prefix="ckpt-", dir=root)
    if traced:
        def compressor():
            return TimedCompressor(TopKCompressor(w.rho), ep.compress_s,
                                   span_tracer)
    else:
        def compressor():
            return TopKCompressor(w.rho)
    trainer = build_trainer(w, seed, compressor)
    checkpointer = backend = probe = None
    if arm != "plain":
        backend = InstrumentedBackend(LocalDiskBackend(ep.directory),
                                      span_tracer)
        probe = HookProbe(w.config.full_every_iters, span_tracer)
        probe.register_before(trainer, timed=traced)
        retention = (RetentionPolicy(keep_fulls=w.keep_fulls)
                     if w.keep_fulls else None)
        checkpointer = LowDiffCheckpointer(CheckpointStore(backend), w.config,
                                           retention=retention)
        checkpointer.attach(trainer)
        if traced:
            probe.register_after(trainer)
    ep.setup_s = _now() - started

    if span_tracer is not None:
        span_tracer.begin("episode", "bench", {"arm": arm, "workload": w.name})
    started = _now()
    try:
        for _ in range(planned):
            if span_tracer is not None:
                span_tracer.begin("train.step", "bench.distributed")
            t0 = _now()
            record = trainer.step()
            ep.iter_s.append(_now() - t0)
            if span_tracer is not None:
                span_tracer.end()
            ep.comm_bytes += record.comm_bytes
            ep.payload_bytes += record.payload.nbytes
        if checkpointer is not None:
            if span_tracer is not None:
                span_tracer.begin("ckpt.finalize", "bench.core")
            t0 = _now()
            try:
                checkpointer.finalize()
            finally:
                ep.finalize_s = _now() - t0
                if span_tracer is not None:
                    span_tracer.end()
    except Exception as err:  # counted below as failed iterations
        ep.errors.append(f"training raised {err!r}")
        if checkpointer is not None:
            try:
                checkpointer.abort()
            except Exception as abort_err:
                ep.errors.append(f"abort raised {abort_err!r}")
    ep.wall_s = _now() - started
    if span_tracer is not None:
        span_tracer.end()

    if checkpointer is None:
        ep.failed = planned - ep.completed
        return ep
    ep.ops = backend.ops
    ep.bytes_written = backend.bytes_written
    ep.disk_bytes_end = dir_bytes(ep.directory)
    ep.stats = checkpointer.stats()
    ep.synced_hook_s = probe.synced_hook_s
    ep.update_hook_s = probe.update_hook_s
    ep.durable_ms, missing = durable_latencies_ms(ep.ops, probe.synced_at,
                                                  w.config.shards)
    # Manifest bytes were only needed for the mapping; the untraced arm
    # keeps no op log at all, so retained memory does not grow per episode.
    ep.ops = ([op[:6] + (None,) for op in ep.ops] if arm == "traced"
              else [])
    # A step counts as done only if it completed *and* became durable.
    ep.failed = planned - ep.completed + len(missing)
    if missing:
        ep.errors.append(f"{len(missing)} steps never became durable, "
                         f"first {min(missing)}")
    if ep.completed == planned and not ep.errors:
        live_model = trainer.model_state()
        if w.config.batch_size == 1:
            ep.expected = Expected(planned, live_model,
                                   trainer.optimizer_state(), live_model)
        else:
            try:
                ep.expected = replay_reference(w, seed, ep.directory,
                                               probe.chain, live_model)
            except Exception as err:
                ep.errors.append(f"reference replay raised {err!r}")
                ep.failed += 1
            else:
                if ep.expected.step != planned:
                    ep.errors.append(f"reference replay reached step "
                                     f"{ep.expected.step}, not {planned}")
                    ep.expected = None
                    ep.failed += 1
    return ep


def release(ep: Episode) -> None:
    """Delete the episode's checkpoint directory and drop its reference
    state, so memory held per finished episode stays small."""
    shutil.rmtree(ep.directory, ignore_errors=True)
    ep.expected = None


# Recovery probe (traced runs) -----------------------------------------------
@dataclass
class ProbeOutcome:
    open_s: float = 0.0
    load_full_s: float = 0.0
    load_diff_s: list = field(default_factory=list)
    apply_s: list = field(default_factory=list)
    model: dict | None = None
    optimizer: dict | None = None

    @property
    def total_s(self) -> float:
        """Sum of the stages, for comparison with the wall time of the
        default-path restore the probe shadows."""
        return (self.open_s + self.load_full_s + sum(self.load_diff_s)
                + sum(self.apply_s))


def replay_probe(w: Workload, seed: int, directory: str,
                 tracer=None) -> ProbeOutcome:
    """Replay the series through the store's public read functions in the
    default path's order, timing each stage: open (store + manifest, chain
    plan), load_full (read, verify, decode, load state), then per record
    load_diff (read, verify, decode) and apply (``optimizer.step_with``)."""
    out = ProbeOutcome()
    model, optimizer = fresh_target(w, seed)

    def stage(name):
        if tracer is not None:
            tracer.begin(name, "bench.probe")
        return _now()

    def done():
        if tracer is not None:
            tracer.end()
        return _now()

    t0 = stage("probe.open")
    # Backend ops get no spans of their own here: with one span per stage
    # the probe carries as much tracing as the restore it is compared to.
    store = open_store(w, LocalDiskBackend(directory))
    full = store.latest_full()
    out.open_s = done() - t0
    t0 = stage("probe.load_full")
    model_state, optimizer_state, step = store.load_full(full)
    model.load_state_dict(model_state)
    optimizer.load_state_dict(optimizer_state)
    out.load_full_s = done() - t0
    t0 = stage("probe.plan")
    chain = store.diffs_after(step)
    out.open_s += done() - t0
    scratch = None
    for view in chain:
        t0 = stage("probe.load_diff")
        payload = store.load_diff(view)
        out.load_diff_s.append(done() - t0)
        t0 = stage("probe.apply")
        if scratch is None:
            scratch = DenseScratch(payload.shapes)
        optimizer.step_with(payload.decompress_into(scratch))
        optimizer.step_count += view.count - 1
        out.apply_s.append(done() - t0)
    out.model = model.state_dict()
    out.optimizer = optimizer.state_dict()
    return out
