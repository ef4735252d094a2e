"""Asynchronous checkpoint persistence engine.

The functional layer's realization of the paper's "spawned checkpointing
process" (§IV) in the shape FastPersist/CheckFreq demonstrated: persistence
runs on a pool of background writer threads so the training loop only pays
for a bounded snapshot handoff, not for serialization or storage I/O.

Pipeline, per submitted record::

    submit ──stage──▶ [bounded task queue] ──▶ writer pool
                                                 ├─ serialize (parallel,
                                                 │  zero-copy into a pooled
                                                 │  buffer)
                                                 └─ commit (strictly in
                                                    submission order)

Design points
-------------
* **Double-buffered snapshot handoff** — full-state snapshots are copied
  into one of a fixed number of preallocated staging slots
  (:class:`SnapshotStager`); with both slots in flight the producer
  stalls (counted), bounding snapshot memory at ``slots × state_size``.
* **Reusable buffer pool** — serialized containers are packed with
  :func:`~repro.storage.serializer.pack_tree_into` straight into pooled
  ``bytearray``\\ s; steady state allocates nothing per checkpoint.
* **Backpressure** — at most ``queue_depth`` records may be outstanding
  (submitted, not yet committed); further submissions block and are
  counted (``backpressure_stalls`` + stall time), the high-watermark of
  outstanding records is tracked.
* **Crash-consistent ordering** — workers serialize concurrently but
  *commit* (backend write + manifest update) through a sequence-number
  turnstile in exact submission order.  Since the checkpointer always
  submits a full checkpoint before the diffs that chain past it, a diff
  record is never visible before the full it chains from, and the
  committed set is always a prefix of the submitted sequence — a crash
  truncates the series cleanly instead of leaving holes.
* **Fail-stop** — a worker error is recorded, queued-but-unstarted work
  is dropped (resolved with :class:`WriteAborted`), and the error is
  re-raised on the training thread at the next submit/drain/finalize.
  The first failure dumps the flight recorder once; the raised error
  names the dump file.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs import OBS, span as obs_span
from repro.obs.flight import FLIGHT
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.payload_codec import payload_to_tree
from repro.storage.serializer import pack_tree_into


class WriteAborted(RuntimeError):
    """A submitted write was dropped before committing (abort/fail-stop)."""


class DrainTimeout(RuntimeError):
    """``drain``/``finalize`` deadline expired with records still in flight.

    Queued-but-unstarted writes have been dropped (their
    :class:`PendingWrite` resolves with :class:`WriteAborted`); writes a
    worker already picked up may still commit later.  Raised so a
    supervisor-orchestrated recovery is never hostage to a stuck backend.
    """

    def __init__(self, message: str, outstanding: int = 0, dropped: int = 0):
        super().__init__(message)
        self.outstanding = outstanding
        self.dropped = dropped


class BufferPool:
    """Reusable ``bytearray`` pool for serialized checkpoint containers.

    Buffers only ever grow (``pack_tree_into`` extends in place), so after
    warm-up each buffer fits the largest record it has carried and the
    serialize stage performs no per-checkpoint allocation.
    """

    def __init__(self) -> None:
        self._free: list[bytearray] = []
        self._lock = threading.Lock()
        self.created = 0
        self.reused = 0
        self.outstanding = 0
        self.peak_outstanding = 0

    def acquire(self) -> bytearray:
        with self._lock:
            if self._free:
                self.reused += 1
                hit = True
                buffer = self._free.pop()
            else:
                self.created += 1
                hit = False
                buffer = bytearray()
            self.outstanding += 1
            self.peak_outstanding = max(self.peak_outstanding, self.outstanding)
        if OBS.enabled:
            OBS.registry.counter(
                "ckpt.async.buffer_pool.reused" if hit
                else "ckpt.async.buffer_pool.created").inc()
        return buffer

    def release(self, buffer: bytearray) -> None:
        with self._lock:
            self.outstanding -= 1
            self._free.append(buffer)

    def stats(self) -> dict:
        with self._lock:
            return {
                "buffers_created": self.created,
                "buffers_reused": self.reused,
                "buffers_peak_outstanding": self.peak_outstanding,
                "pooled_bytes": sum(len(b) for b in self._free),
            }


class SnapshotStager:
    """Double-buffered staging area for full-state snapshots.

    ``stage`` copies every array leaf of a checkpoint tree into one of
    ``slots`` preallocated per-path array sets (``np.copyto`` — a memcpy,
    no allocation once warm) and returns a tree referencing the staged
    arrays, which a writer thread can serialize while training mutates
    the originals.  With every slot leased to an in-flight checkpoint the
    caller blocks until one frees up; those stalls are counted — they are
    exactly the residual checkpoint stall the async engine cannot hide.
    """

    def __init__(self, slots: int = 2) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.slots = int(slots)
        self._caches: list[dict[tuple, np.ndarray]] = [{} for _ in range(slots)]
        self._free = list(range(slots))
        self._cond = threading.Condition()
        self.stalls = 0
        self.stall_time_s = 0.0
        self.staged_bytes = 0
        self.stages = 0

    def stage(self, tree) -> tuple[int, Any]:
        """Copy ``tree``'s arrays into a free slot; returns ``(slot, staged)``."""
        with self._cond:
            if not self._free:
                self.stalls += 1
                started = time.perf_counter()
                while not self._free:
                    self._cond.wait()
                waited = time.perf_counter() - started
                self.stall_time_s += waited
                if OBS.enabled:
                    OBS.registry.counter("ckpt.async.snapshot_stalls").inc()
                    OBS.registry.observe("ckpt.async.snapshot_stall_wait.s",
                                         waited)
            slot = self._free.pop()
        staged = self._copy_into(tree, self._caches[slot], ())
        self.stages += 1
        return slot, staged

    def release(self, slot: int) -> None:
        with self._cond:
            self._free.append(slot)
            self._cond.notify()

    def _copy_into(self, node, cache: dict, path: tuple):
        if isinstance(node, np.ndarray):
            staged = cache.get(path)
            if staged is None or staged.shape != node.shape \
                    or staged.dtype != node.dtype:
                staged = np.empty(node.shape, dtype=node.dtype)
                cache[path] = staged
            np.copyto(staged, node)
            self.staged_bytes += staged.nbytes
            return staged
        if isinstance(node, dict):
            return {key: self._copy_into(value, cache, path + (key,))
                    for key, value in node.items()}
        if isinstance(node, (list, tuple)):
            items = [self._copy_into(value, cache, path + (index,))
                     for index, value in enumerate(node)]
            return items if isinstance(node, list) else tuple(items)
        return node  # scalars/None/str are immutable — safe by reference

    def stats(self) -> dict:
        return {
            "snapshot_slots": self.slots,
            "snapshot_stalls": self.stalls,
            "snapshot_stall_time_s": self.stall_time_s,
            "snapshot_staged_bytes": self.staged_bytes,
            "snapshots_staged": self.stages,
        }


class PendingWrite:
    """Handle to a submitted-but-not-yet-committed checkpoint record."""

    __slots__ = ("kind", "seq", "record", "error", "_event")

    def __init__(self, kind: str, seq: int):
        self.kind = kind
        self.seq = seq
        self.record = None
        self.error: BaseException | None = None
        self._event = threading.Event()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None):
        """Block until committed; returns the store record (raises on failure)."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"checkpoint write (seq {self.seq}) still in flight")
        if self.error is not None:
            raise self.error
        return self.record

    def _resolve(self, record=None, error: BaseException | None = None) -> None:
        self.record = record
        self.error = error
        self._event.set()


@dataclass
class _Task:
    seq: int
    kind: str               # "full" | "diff"
    item: Any               # staged full tree, or the diff payload object
    meta: dict = field(default_factory=dict)
    slot: int | None = None  # stager slot leased by a full snapshot
    pending: PendingWrite | None = None


class AsyncCheckpointEngine:
    """Background writer pool in front of a :class:`CheckpointStore`.

    Exposes the store's ``save_full``/``save_diff`` signatures (returning
    :class:`PendingWrite` instead of records) so the checkpointer and the
    batched gradient writer use it as a drop-in persistence target.

    Parameters
    ----------
    store:
        The destination store.  Only this engine touches its save path
    num_writers:
        Writer threads.  Serialization parallelizes across them; commits
        are serialized by the ordering turnstile regardless.
    queue_depth:
        Maximum outstanding (uncommitted) records before submission
        blocks — the backpressure bound.
    snapshot_slots:
        Staging slots for full snapshots (2 = classic double buffering).
    """

    def __init__(self, store: CheckpointStore, num_writers: int = 2,
                 queue_depth: int = 8, snapshot_slots: int = 2):
        if num_writers < 1:
            raise ValueError(f"num_writers must be >= 1, got {num_writers}")
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.store = store
        self.num_writers = int(num_writers)
        self.queue_depth = int(queue_depth)
        self.pool = BufferPool()
        self.stager = SnapshotStager(snapshot_slots)
        self._tasks: deque[_Task] = deque()
        self._lock = threading.Lock()
        self._task_ready = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._turn = threading.Condition(self._lock)
        self._drained = threading.Condition(self._lock)
        self._next_seq = 0
        self._next_commit = 0
        self._outstanding = 0
        self._closed = False
        self._failure: BaseException | None = None
        self._failure_seq: int | None = None   # seq of the record that failed
        self._failure_kind: str | None = None  # "full" | "diff"
        self._failure_dump: str | None = None  # flight post-mortem path
        # Telemetry ----------------------------------------------------------
        self.submitted = 0
        self.committed = 0
        self.aborted_writes = 0
        self.backpressure_stalls = 0
        self.backpressure_time_s = 0.0
        self.high_watermark = 0
        self.commit_wait_s = 0.0     # writer time spent awaiting its turn
        self.serialize_time_s = 0.0
        self.commit_time_s = 0.0
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"ckpt-writer-{index}", daemon=True)
            for index in range(self.num_writers)
        ]
        for worker in self._workers:
            worker.start()

    # Submission (training thread) ------------------------------------------
    def save_full(self, step: int, model_state: dict, optimizer_state: dict,
                  extra: dict | None = None) -> PendingWrite:
        """Stage a full snapshot and queue it for persistence.

        Returns immediately after the bounded staging copy unless both
        snapshot slots are in flight or the queue is at depth.
        """
        tree = CheckpointStore.full_tree(step, model_state, optimizer_state,
                                         extra)
        slot, staged = self.stager.stage(tree)
        try:
            return self._submit(_Task(seq=-1, kind="full", item=staged,
                                      meta={"step": int(step)}, slot=slot))
        except BaseException:
            self.stager.release(slot)
            raise

    def save_diff(self, start: int, end: int, payload,
                  count: int | None = None) -> PendingWrite:
        """Queue a differential record.  Ownership of ``payload`` passes to
        the engine (the batched writer hands over its merged batch and
        drops its reference), so no staging copy is needed.

        A lossy store codec's quantization stage is applied *here*, on the
        submitting thread: error feedback is order-dependent, and writer
        threads dequeue in nondeterministic order.  The heavyweight
        stateless byte/entropy stage still runs on the writer pool.
        """
        meta = {
            "start": int(start), "end": int(end),
            "count": int(count if count is not None else end - start + 1),
        }
        item = payload
        codec = self.store.codec
        if codec is not None and codec.lossy:
            item = codec.pre_encode_diff_tree(payload_to_tree(payload))
            meta["pre_encoded"] = True
        return self._submit(_Task(seq=-1, kind="diff", item=item, meta=meta))

    def _submit(self, task: _Task) -> PendingWrite:
        with self._lock:
            self._raise_if_failed_locked()
            if self._closed:
                raise RuntimeError("submit on finalized persistence engine")
            if self._outstanding >= self.queue_depth:
                self.backpressure_stalls += 1
                started = time.perf_counter()
                while self._outstanding >= self.queue_depth \
                        and self._failure is None and not self._closed:
                    self._space.wait()
                waited = time.perf_counter() - started
                self.backpressure_time_s += waited
                if OBS.enabled:
                    OBS.registry.counter("ckpt.async.backpressure_stalls").inc()
                    OBS.registry.observe("ckpt.async.backpressure_wait.s",
                                         waited)
                self._raise_if_failed_locked()
                if self._closed:
                    raise RuntimeError("submit on finalized persistence engine")
            task.seq = self._next_seq
            task.pending = PendingWrite(task.kind, task.seq)
            self._next_seq += 1
            self._outstanding += 1
            self.high_watermark = max(self.high_watermark, self._outstanding)
            self.submitted += 1
            self._tasks.append(task)
            self._task_ready.notify()
            if OBS.enabled:
                OBS.registry.counter("ckpt.async.submitted").inc()
                OBS.registry.set("ckpt.async.queue_depth", self._outstanding)
                OBS.tracer.counter("ckpt.async.queue_depth", self._outstanding)
            return task.pending

    # Writer pool -------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._tasks:
                    if self._closed:
                        return
                    self._task_ready.wait()
                task = self._tasks.popleft()
                skip = self._failure is not None
            self._execute(task, skip=skip)

    def _execute(self, task: _Task, skip: bool) -> None:
        error: BaseException | None = None
        record = None
        buffer = None
        view = None
        if skip:
            error = WriteAborted(
                f"{task.kind} write seq {task.seq} dropped after engine failure")
        else:
            try:
                with obs_span("serialize", "ckpt",
                              {"kind": task.kind, "seq": task.seq}):
                    started = time.perf_counter()
                    pre_encoded = task.meta.get("pre_encoded", False)
                    if task.kind == "full":
                        tree = task.item  # staged by save_full
                    else:
                        payload_tree = task.item if pre_encoded \
                            else payload_to_tree(task.item)
                        tree = CheckpointStore.diff_tree(
                            task.meta["start"], task.meta["end"],
                            task.meta["count"], payload_tree)
                    # Codec CPU (byte shuffles, zlib) runs here on the
                    # writer thread, off the training hot path.
                    tree, codec_id, raw_nbytes = \
                        self.store.encode_record_tree(
                            tree, task.kind, pre_encoded=pre_encoded)
                    task.meta["codec"] = codec_id
                    task.meta["raw_nbytes"] = raw_nbytes
                    buffer = self.pool.acquire()
                    view, crc = pack_tree_into(tree, buffer)
                    elapsed = time.perf_counter() - started
                    self.serialize_time_s += elapsed
                if OBS.enabled:
                    OBS.registry.observe("ckpt.async.serialize.s", elapsed)
            except BaseException as exc:
                error = exc
        # Take the commit turn even on failure, so the turnstile advances
        # and later sequence numbers are never blocked behind this one.
        with obs_span("commit_wait", "ckpt", {"seq": task.seq}):
            with self._turn:
                started = time.perf_counter()
                while task.seq != self._next_commit:
                    self._turn.wait()
                waited = time.perf_counter() - started
                self.commit_wait_s += waited
        if OBS.enabled:
            OBS.registry.observe("ckpt.async.commit_wait.s", waited)
        # Commit outside the lock: only the turn-holder may reach this
        # point, so the (non-thread-safe) store sees one writer at a time.
        if error is None:
            try:
                with obs_span("commit", "ckpt",
                              {"kind": task.kind, "seq": task.seq}):
                    started = time.perf_counter()
                    if task.kind == "full":
                        record = self.store.save_full_bytes(
                            task.meta["step"], view, crc,
                            codec=task.meta.get("codec", ""),
                            raw_nbytes=task.meta.get("raw_nbytes", 0))
                    else:
                        record = self.store.save_diff_bytes(
                            task.meta["start"], task.meta["end"],
                            task.meta["count"], view, crc,
                            codec=task.meta.get("codec", ""),
                            raw_nbytes=task.meta.get("raw_nbytes", 0))
                    elapsed = time.perf_counter() - started
                    self.commit_time_s += elapsed
                if OBS.enabled:
                    OBS.registry.observe("ckpt.async.commit.s", elapsed)
            except BaseException as exc:
                error = exc
        if view is not None:
            view.release()
        if buffer is not None:
            self.pool.release(buffer)
        if task.slot is not None:
            self.stager.release(task.slot)
        task.pending._resolve(record=record, error=error)
        with self._lock:
            self._next_commit += 1
            self._turn.notify_all()
            if error is None:
                self.committed += 1
                if OBS.enabled:
                    OBS.registry.counter("ckpt.async.committed").inc()
            else:
                if isinstance(error, WriteAborted):
                    self.aborted_writes += 1
                elif self._failure is None:
                    self._failure = error
                    self._failure_seq = task.seq
                    self._failure_kind = task.kind
                    self._dump_flight_locked()
                    if OBS.enabled:
                        OBS.registry.counter("ckpt.async.failures").inc()
                        OBS.tracer.instant(
                            "engine-failure", "ckpt",
                            {"kind": task.kind, "seq": task.seq,
                             "error": repr(error)})
            self._outstanding -= 1
            if OBS.enabled:
                OBS.registry.set("ckpt.async.queue_depth", self._outstanding)
            self._space.notify()
            if self._outstanding == 0:
                self._drained.notify_all()

    # Lifecycle ---------------------------------------------------------------
    def _drop_queued_locked(self) -> int:
        """Drop queued-but-unstarted tasks (caller holds the lock).

        In-flight tasks (already picked up by a writer) are untouched —
        they cannot be interrupted and will resolve whenever the backend
        returns.  Dropped seqs are a contiguous tail of the sequence
        space, so in-flight (lower-seq) commits never wait on them.
        """
        dropped = list(self._tasks)
        self._tasks.clear()
        for task in dropped:
            self.aborted_writes += 1
            self._outstanding -= 1
            if task.slot is not None:
                self.stager.release(task.slot)
            task.pending._resolve(error=WriteAborted(
                f"{task.kind} write seq {task.seq} dropped by deadline/abort"))
        if dropped:
            self._space.notify_all()
            if self._outstanding == 0:
                self._drained.notify_all()
        return len(dropped)

    def _await_drained_locked(self, timeout: float | None,
                              what: str) -> None:
        """Wait (bounded) for outstanding == 0; on expiry drop queued work
        and raise :class:`DrainTimeout`.  Caller holds the lock."""
        if timeout is None:
            while self._outstanding:
                self._drained.wait()
            return
        deadline = time.monotonic() + max(0.0, float(timeout))
        while self._outstanding:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._drained.wait(remaining):
                if not self._outstanding:
                    return
                dropped = self._drop_queued_locked()
                stuck = self._outstanding
                if OBS.enabled:
                    OBS.registry.counter("ckpt.async.drain_timeouts").inc()
                    OBS.tracer.instant(
                        "drain-timeout", "ckpt",
                        {"what": what, "outstanding": stuck,
                         "dropped": dropped})
                raise DrainTimeout(
                    f"{what} deadline ({timeout}s) expired: {stuck} record(s) "
                    f"still in flight, {dropped} queued write(s) dropped",
                    outstanding=stuck, dropped=dropped,
                )

    def drain(self, timeout: float | None = None) -> None:
        """Block until every submitted record has committed.

        With a ``timeout`` (seconds) the wait is bounded: on expiry,
        queued-but-unstarted writes are aborted and :class:`DrainTimeout`
        is raised, so a stuck backend cannot hang recovery forever.
        """
        with self._lock:
            self._await_drained_locked(timeout, "drain")
        self.raise_if_failed()

    def finalize(self, timeout: float | None = None) -> None:
        """Drain, stop the writer pool, and surface any worker error.

        ``timeout`` bounds the drain exactly like :meth:`drain`; on expiry
        the engine stays closed, queued writes are dropped, and
        :class:`DrainTimeout` is raised without joining the (possibly
        stuck) writer threads — they are daemons and die with the process.
        """
        with self._lock:
            self._closed = True
            self._task_ready.notify_all()
            self._space.notify_all()
            self._await_drained_locked(timeout, "finalize")
        for worker in self._workers:
            worker.join(timeout=30.0)
            if worker.is_alive():  # pragma: no cover - defensive
                raise RuntimeError("checkpoint writer thread failed to stop")
        self.raise_if_failed()

    def abort(self) -> None:
        """Stop without draining: queued-but-unstarted writes are dropped
        (their :class:`PendingWrite` resolves with :class:`WriteAborted`);
        records already picked up by a writer still commit, preserving the
        prefix property.  Errors are not re-raised — this is the path a
        dying process takes."""
        with self._lock:
            self._closed = True
            self._drop_queued_locked()
            self._task_ready.notify_all()
            self._space.notify_all()
            while self._outstanding:
                self._drained.wait()
        for worker in self._workers:
            worker.join(timeout=30.0)

    def raise_if_failed(self) -> None:
        """Re-raise a worker failure on the calling (training) thread."""
        with self._lock:
            self._raise_if_failed_locked()

    def _dump_flight_locked(self) -> None:
        """Write the flight-recorder post-mortem for the latched failure.

        Called once, when the sticky failure is first latched; the path
        is appended to every re-raised error so the operator can find it.
        """
        FLIGHT.record("ckpt", "fail-stop", record_kind=self._failure_kind,
                      seq=self._failure_seq, error=repr(self._failure))
        try:
            self._failure_dump = FLIGHT.dump(
                reason=f"async engine fail-stop: {self._failure!r}",
                extra={"outstanding": self._outstanding,
                       "submitted": self.submitted,
                       "committed": self.committed})
        except OSError:  # pragma: no cover - dump dir unwritable
            self._failure_dump = None

    def _raise_if_failed_locked(self) -> None:
        if self._failure is not None:
            post_mortem = "" if self._failure_dump is None \
                else f" [flight recorder post-mortem: {self._failure_dump}]"
            raise RuntimeError(
                f"async persistence engine failed: {self._failure_kind} "
                f"record seq {self._failure_seq} raised "
                f"{type(self._failure).__name__}: {self._failure}"
                f"{post_mortem}"
            ) from self._failure

    @property
    def outstanding(self) -> int:
        with self._lock:
            return self._outstanding

    def would_block(self) -> bool:
        """True if a submission right now would hit backpressure."""
        with self._lock:
            return self._outstanding >= self.queue_depth

    # Telemetry -----------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            out = {
                "num_writers": self.num_writers,
                "queue_depth": self.queue_depth,
                "submitted": self.submitted,
                "committed": self.committed,
                "aborted_writes": self.aborted_writes,
                "outstanding": self._outstanding,
                "high_watermark": self.high_watermark,
                "backpressure_stalls": self.backpressure_stalls,
                "backpressure_time_s": self.backpressure_time_s,
                "commit_wait_s": self.commit_wait_s,
                "serialize_time_s": self.serialize_time_s,
                "commit_time_s": self.commit_time_s,
                "failure": None if self._failure is None else {
                    "seq": self._failure_seq,
                    "kind": self._failure_kind,
                    "error": repr(self._failure),
                },
            }
        out.update(self.pool.stats())
        out.update(self.stager.stats())
        return out
