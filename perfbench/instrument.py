"""Benchmark-owned probes that time the program's layers from outside.

* :class:`InstrumentedBackend` wraps ``LocalDiskBackend`` and logs every
  storage operation (op, key, bytes, start, end, thread) with O(1) work
  per op; manifest writes also keep a reference to their bytes so the
  durability mapping can run after the timed run.
* :class:`HookProbe` supplies trainer hooks registered *before* and
  *after* ``LowDiffCheckpointer.attach``: the pair brackets the
  checkpointer's own hooks, so their difference is the time spent inside
  them.
* :class:`TimedCompressor` wraps the compressor the trainer builds.

With a ``tracer`` each probe also opens and closes spans on it; the span
categories start with ``bench.`` followed by the layer name.
"""

from __future__ import annotations

import threading
import time

from repro.storage.backends import StorageBackend

_now = time.perf_counter
_thread = threading.get_ident


class InstrumentedBackend(StorageBackend):
    """A storage backend that times and logs every call into ``inner``."""

    def __init__(self, inner: StorageBackend, tracer=None):
        super().__init__()
        self.inner = inner
        self.tracer = tracer
        #: ``(op, key, nbytes, t_start, t_end, thread, manifest_bytes)``
        self.ops: list[tuple] = []

    @property
    def thread_safe_reads(self) -> bool:
        return getattr(self.inner, "thread_safe_reads", False)

    def _timed(self, op: str, key: str, call, *args):
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(f"storage.{op}", "bench.storage", {"key": key})
        start = _now()
        try:
            result = call(*args)
        finally:
            end = _now()
            if tracer is not None:
                tracer.end()
        return result, start, end

    def _write(self, key: str, data) -> None:
        _, start, end = self._timed("write", key, self.inner.write, key, data)
        blob = data if key.endswith("manifest.json") else None
        self.ops.append(("write", key, len(data), start, end, _thread(), blob))

    def _read(self, key: str) -> bytes:
        data, start, end = self._timed("read", key, self.inner.read, key)
        self.ops.append(("read", key, len(data), start, end, _thread(), None))
        return data

    def exists(self, key: str) -> bool:
        found, start, end = self._timed("exists", key, self.inner.exists, key)
        self.ops.append(("exists", key, 0, start, end, _thread(), None))
        return found

    def delete(self, key: str) -> None:
        _, start, end = self._timed("delete", key, self.inner.delete, key)
        self.ops.append(("delete", key, 0, start, end, _thread(), None))

    def list_keys(self, prefix: str = "") -> list[str]:
        keys, start, end = self._timed("list", prefix, self.inner.list_keys,
                                       prefix)
        self.ops.append(("list", prefix, 0, start, end, _thread(), None))
        return keys

    def purge_debris(self) -> int:
        purged, start, end = self._timed("purge", "", self.inner.purge_debris)
        self.ops.append(("purge", "", 0, start, end, _thread(), None))
        return purged


class HookProbe:
    """Trainer hooks around the checkpointer's hooks.

    ``before_synced`` is always registered: it stamps each step's
    durability origin (step ``s = iteration + 1``) and keeps the synced
    payloads since the last full checkpoint, which the correctness check
    replays.  The other three hooks are registered only in traced runs.
    """

    def __init__(self, full_every: int, tracer=None):
        self.full_every = int(full_every)
        self.tracer = tracer
        self.synced_at: dict[int, float] = {}
        self.chain: list[tuple[int, object]] = []
        self.synced_hook_s: list[float] = []
        self.update_hook_s: list[float] = []
        self._started = 0.0

    def register_before(self, trainer, timed: bool) -> None:
        trainer.register_synced_gradient_hook(self.before_synced)
        if timed:
            trainer.register_post_update_hook(self.before_update)

    def register_after(self, trainer) -> None:
        trainer.register_synced_gradient_hook(self.after_synced)
        trainer.register_post_update_hook(self.after_update)

    def before_synced(self, iteration: int, payload) -> None:
        if iteration % self.full_every == 0:
            self.chain.clear()
        self.chain.append((iteration + 1, payload))
        if self.tracer is not None:
            self.tracer.begin("ckpt.hook.synced", "bench.core")
        now = _now()
        self.synced_at[iteration + 1] = now
        self._started = now

    def after_synced(self, iteration: int, payload) -> None:
        self.synced_hook_s.append(_now() - self._started)
        if self.tracer is not None:
            self.tracer.end()

    def before_update(self, iteration: int) -> None:
        if self.tracer is not None:
            self.tracer.begin("ckpt.hook.update", "bench.core")
        self._started = _now()

    def after_update(self, iteration: int) -> None:
        self.update_hook_s.append(_now() - self._started)
        if self.tracer is not None:
            self.tracer.end()


class TimedCompressor:
    """Delegating compressor that times every ``compress`` call."""

    def __init__(self, inner, sink: list, tracer=None):
        self.inner = inner
        self.sink = sink
        self.tracer = tracer

    def compress(self, named_grads):
        if self.tracer is not None:
            self.tracer.begin("compress", "bench.compression")
        start = _now()
        try:
            return self.inner.compress(named_grads)
        finally:
            self.sink.append(_now() - start)
            if self.tracer is not None:
                self.tracer.end()

    def __getattr__(self, name):
        return getattr(self.inner, name)
