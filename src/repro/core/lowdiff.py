"""The LowDiff checkpointer (paper Algorithm 1 + §IV).

Wires together the reusing queue, the batched gradient writer, and the
checkpoint store:

* the **training side** (trainer hooks) enqueues each iteration's
  synchronized compressed gradient — zero-copy, no data dependency on the
  model update (§III-D) — and, every ``full_every_iters`` iterations,
  enqueues a full-state snapshot;
* the **checkpointing side** (inline drain or a background thread, the
  stand-in for the paper's spawned checkpointing process) dequeues in FIFO
  order, batches gradients in CPU memory, and persists batched
  differentials and full checkpoints;
* **recovery** restores the latest full checkpoint and replays the
  differential chain, serially or with the parallel merge tree.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.core.batched_writer import BatchedGradientWriter
from repro.core.config import CheckpointConfig
from repro.core.recovery import (
    RecoveryResult,
    parallel_recover,
    serial_recover,
)
from repro.core.reusing_queue import QueueClosed, ReusingQueue
from repro.obs import OBS, span as obs_span
from repro.storage.async_engine import AsyncCheckpointEngine
from repro.storage.checkpoint_store import CheckpointStore


@dataclass
class FullSnapshot:
    """A full-state snapshot travelling through the reusing queue.

    The snapshot is taken on the training side (states are copied, like
    CheckFreq's GPU→CPU snapshot) so the checkpointing side can persist it
    without racing further updates.
    """

    step: int
    model_state: dict
    optimizer_state: dict

    def copy(self) -> "FullSnapshot":
        return FullSnapshot(
            step=self.step,
            model_state={k: np.copy(v) for k, v in self.model_state.items()},
            optimizer_state=_copy_tree(self.optimizer_state),
        )

    @property
    def nbytes(self) -> int:
        total = sum(np.asarray(v).nbytes for v in self.model_state.values())
        for slots in self.optimizer_state.get("slots", {}).values():
            total += sum(np.asarray(v).nbytes for v in slots.values())
        return total


def _copy_tree(tree):
    if isinstance(tree, dict):
        return {k: _copy_tree(v) for k, v in tree.items()}
    if isinstance(tree, np.ndarray):
        return tree.copy()
    return tree


class LowDiffCheckpointer:
    """Frequent differential checkpointing by compressed-gradient reuse.

    Parameters
    ----------
    store:
        Destination :class:`CheckpointStore`.
    config:
        ``(full_every_iters, batch_size)`` — typically from
        :func:`repro.core.config.optimal_configuration`.
    zero_copy:
        ``False`` switches the reusing queue to copy mode (ablation).
    offload_to_cpu:
        Passed to the batched writer (Exp. 6(b) ablation).
    async_mode:
        ``True`` drains the queue from a background thread — the paper's
        separate checkpointing process.  ``False`` drains inline after
        each iteration (deterministic; used by most tests).
    retention:
        Optional :class:`~repro.storage.compaction.RetentionPolicy`; when
        set, a :class:`~repro.storage.compaction.ChainCompactor` enforces
        it (compaction + gc) after every persisted full checkpoint and at
        finalize.  ``None`` (default) leaves the series untouched —
        bit-stable with earlier revisions.
    """

    def __init__(self, store: CheckpointStore, config: CheckpointConfig,
                 zero_copy: bool = True, offload_to_cpu: bool = True,
                 async_mode: bool = False, queue_maxsize: int = 0,
                 retention=None, model_factory=None, optimizer_factory=None):
        # shards > 1 swaps the store for the sharded facade over the same
        # backend: per-shard diff chains under one intersection-committed
        # manifest set, elastic restore across world sizes.  An
        # already-sharded store passes through (its shard count wins).
        if config.shards > 1 and isinstance(store, CheckpointStore):
            from repro.storage.sharded import ShardedCheckpointStore
            store = ShardedCheckpointStore(
                store.backend, shards=config.shards,
                codec=store.codec,
                shard_concurrency=config.shard_concurrency,
            )
        self.store = store
        self.config = config
        # Config-selected payload codec: applied store-wide before the
        # engine is built, so sync and async persist paths both encode.
        if config.codec:
            store.set_codec(config.codec,
                            error_bound=config.lossy_error_bound)
        self.queue = ReusingQueue(maxsize=queue_maxsize, copy_mode=not zero_copy)
        # With async_persist the engine becomes the persistence target for
        # both full snapshots and the batched writer's diff records; every
        # record still flows through one FIFO commit order, so the
        # diff-never-before-its-full invariant holds unchanged.
        self.engine = None
        persist_target = store
        from repro.storage.sharded import (
            ShardedChainCompactor,
            ShardedCheckpointStore,
            ShardedPersistGroup,
        )
        sharded = isinstance(store, ShardedCheckpointStore)
        if config.async_persist:
            if sharded:
                self.engine = ShardedPersistGroup(
                    store,
                    writer_threads=config.writer_threads,
                    queue_depth=config.queue_depth,
                )
            else:
                self.engine = AsyncCheckpointEngine(
                    store,
                    num_writers=config.writer_threads,
                    queue_depth=config.queue_depth,
                )
            persist_target = self.engine
        self._persist = persist_target
        self.retention = retention
        self.compactor = None
        if retention is not None:
            if sharded:
                self.compactor = ShardedChainCompactor(
                    store, retention, engine=self.engine)
            else:
                from repro.storage.compaction import ChainCompactor
                self.compactor = ChainCompactor(
                    store, retention, engine=self.engine,
                    model_factory=model_factory,
                    optimizer_factory=optimizer_factory,
                )
        self.writer = BatchedGradientWriter(
            persist_target, batch_size=config.batch_size,
            offload_to_cpu=offload_to_cpu
        )
        self.async_mode = bool(async_mode)
        self.full_checkpoints = 0
        self.diff_checkpoints_enqueued = 0
        self._worker: threading.Thread | None = None
        self._worker_error: BaseException | None = None
        self._trainer = None
        if self.async_mode:
            self._worker = threading.Thread(
                target=self._drain_loop, name="lowdiff-ckpt", daemon=True
            )
            self._worker.start()

    # Training-side wiring ---------------------------------------------------
    def attach(self, trainer, resume_from: int | None = None) -> None:
        """Register this checkpointer's hooks on a trainer.

        Fresh jobs (``resume_from=None``) write an initial full checkpoint
        at step 0 so recovery has a base even before the first periodic
        full.  A job restarting after recovery passes the recovered
        optimizer step as ``resume_from``: a fresh full is written *there*
        (restarting the differential chain cleanly past any diffs lost to
        the failure) and queue ordering resumes from that step.
        """
        self._trainer = trainer
        base_step = 0 if resume_from is None else int(resume_from)
        snapshot = FullSnapshot(
            step=base_step,
            model_state=trainer.model_state(),
            optimizer_state=trainer.optimizer_state(),
        )
        self._persist.save_full(snapshot.step, snapshot.model_state,
                                snapshot.optimizer_state)
        self.full_checkpoints += 1
        if resume_from is not None:
            self.queue._last_put_iteration = base_step
        trainer.register_synced_gradient_hook(self._on_synced_gradient)
        trainer.register_post_update_hook(self._on_post_update)

    def _on_synced_gradient(self, iteration: int, payload) -> None:
        # Optimizer step s = iteration + 1: replaying this payload on the
        # state after s-1 steps yields the state after s steps.
        self.queue.put(iteration + 1, payload)
        self.diff_checkpoints_enqueued += 1
        if OBS.enabled:
            OBS.registry.counter("ckpt.diff.enqueued").inc()

    def _on_post_update(self, iteration: int) -> None:
        step = iteration + 1
        if step % self.config.full_every_iters == 0:
            with obs_span("full_snapshot", "ckpt", {"step": step}):
                snapshot = FullSnapshot(
                    step=step,
                    model_state=self._trainer.model_state(),
                    optimizer_state=self._trainer.optimizer_state(),
                )
                # Travels through the same FIFO queue, so every differential
                # of an earlier step persists before (or with) this full.
                self.queue.put(step + 0.5, snapshot)  # between step and step+1
            if OBS.enabled:
                OBS.registry.counter("ckpt.full.snapshots").inc()
        if not self.async_mode:
            self._drain_available()
        self._check_worker()

    # Checkpointing side -------------------------------------------------------
    def _process_item(self, step, item) -> None:
        if isinstance(item, FullSnapshot):
            with obs_span("persist_full", "ckpt", {"step": item.step}):
                self.writer.flush()
                self._persist.save_full(item.step, item.model_state,
                                        item.optimizer_state)
            self.full_checkpoints += 1
            if OBS.enabled:
                OBS.registry.counter("ckpt.full.persisted").inc()
            if self.compactor is not None:
                # Policy-driven auto-trigger: a fresh full is the natural
                # compaction point (the chain behind it just became aged).
                self.compactor.enforce()
        else:
            self.writer.submit(int(step), item)
            if self.compactor is not None:
                # Chains grow *between* fulls; when a full is delayed the
                # policy budget must still hold, so the diff path checks
                # too (cheap peek — only drains once visibly exceeded).
                self.compactor.maybe_enforce()

    def _drain_available(self) -> None:
        for step, item in self.queue.drain():
            self._process_item(step, item)

    def _drain_loop(self) -> None:
        try:
            while True:
                try:
                    step, item = self.queue.get(timeout=None)
                except QueueClosed:
                    return
                self._process_item(step, item)
        except BaseException as error:  # surfaced on the training thread
            self._worker_error = error

    def _check_worker(self) -> None:
        if self.engine is not None:
            self.engine.raise_if_failed()
        if self._worker_error is not None:
            error, self._worker_error = self._worker_error, None
            raise RuntimeError("checkpointing process failed") from error

    # Lifecycle -------------------------------------------------------------------
    def finalize(self) -> None:
        """Flush everything; call when training ends (or before recovery)."""
        self.queue.close()
        if self._worker is not None:
            self._worker.join(timeout=30.0)
            if self._worker.is_alive():  # pragma: no cover - defensive
                raise RuntimeError("checkpointing thread failed to stop")
            self._check_worker()
        self._drain_available()
        self.writer.flush()
        if self.compactor is not None:
            self.compactor.enforce()  # drains the engine first if present
        if self.engine is not None:
            self.engine.finalize()

    def crash(self) -> None:
        """Emulate a training-process death for failure drills.

        The paper runs checkpointing in a *separate* process, so records
        already handed off (submitted to the engine) still persist, while
        the reusing queue's contents and the batched writer's partial
        batch die with the training process.  Draining the engine (rather
        than aborting it) keeps the persisted series identical to a
        synchronous run up to the crash point, which is what makes chaos
        drills bit-exactly replayable in async mode.
        """
        self.queue.close()
        if self._worker is not None:
            self._worker.join(timeout=30.0)
        self.writer.discard_pending()
        if self.engine is not None:
            self.engine.finalize()

    def abort(self) -> None:
        """Hard-stop the persistence engine without draining (queued writes
        are dropped); used when even the checkpointing side is dying."""
        self.queue.close()
        if self.engine is not None:
            self.engine.abort()

    def quiesce(self, timeout: float | None = None) -> None:
        """Deadline-bounded stop for supervisor-orchestrated recovery.

        Closes the queue, discards the writer's partial batch (in-flight
        diffs newer than the last committed record die here — recovery
        must only see the committed full+chain prefix), and drains the
        async engine within ``timeout`` seconds.  A stuck backend raises
        :class:`~repro.storage.async_engine.DrainTimeout` after dropping
        queued writes instead of hanging recovery forever.  The
        checkpointer is dead afterwards; recovery attaches a fresh one.
        """
        self.queue.close()
        if self._worker is not None:
            self._worker.join(timeout=30.0)
        self.writer.discard_pending()
        if self.engine is not None:
            self.engine.drain(timeout=timeout)

    # Recovery ----------------------------------------------------------------------
    def recover(self, model, optimizer, parallel: bool = False) -> RecoveryResult:
        """Restore ``model``/``optimizer`` from the persisted series."""
        from repro.storage.sharded import (
            ShardedCheckpointStore,
            sharded_parallel_recover,
            sharded_serial_recover,
        )
        if isinstance(self.store, ShardedCheckpointStore):
            if parallel:
                return sharded_parallel_recover(self.store, model, optimizer)
            return sharded_serial_recover(self.store, model, optimizer)
        if parallel:
            return parallel_recover(self.store, model, optimizer)
        return serial_recover(self.store, model, optimizer)

    # Telemetry -----------------------------------------------------------------------
    def stats(self) -> dict:
        out = {
            "full_checkpoints": self.full_checkpoints,
            "diff_writes": self.writer.writes,
            "gradients_submitted": self.writer.gradients_submitted,
            "queue_max_depth": self.queue.max_depth,
            "queue_copied_bytes": self.queue.copied_bytes,
            "peak_gpu_held_bytes": self.writer.peak_gpu_held_bytes,
            "peak_cpu_buffer_bytes": self.writer.peak_cpu_buffer_bytes,
            "storage_bytes": self.store.storage_bytes(),
        }
        if self.engine is not None:
            out["engine"] = self.engine.stats()
        if self.store.codec is not None:
            out["codec"] = self.store.codec.stats()
        return out
