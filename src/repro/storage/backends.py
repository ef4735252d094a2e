"""Storage backends: where checkpoint bytes land.

``LocalDiskBackend`` is the paper's local-SSD target; ``InMemoryBackend``
backs fast tests and the Gemini-style CPU-memory tier; ``ThrottledBackend``
adds a bandwidth/latency cost model (virtual time, no sleeping) so the
functional layer can report realistic write times; ``FlakyBackend``
injects deterministic one-shot failures and ``ChaosBackend`` seeded
probabilistic faults (transient errors, torn writes, bit flips, latency
spikes) for the resilience tests.
"""

from __future__ import annotations

import os
import tempfile
import threading

from repro.utils.rng import Rng
from repro.utils.validation import check_positive


class StorageBackend:
    """Abstract key→bytes store with write accounting."""

    #: True when concurrent ``read`` calls are safe *and* acceptable —
    #: parallel recovery will only overlap reads on backends that opt in.
    #: Fault-injecting wrappers keep this False so their seeded RNG draws
    #: stay replayable under a deterministic access order.
    thread_safe_reads = False

    def __init__(self) -> None:
        self.bytes_written = 0
        self.bytes_read = 0
        self.write_count = 0

    # Subclass interface -------------------------------------------------------
    def _write(self, key: str, data: bytes) -> None:
        raise NotImplementedError

    def _read(self, key: str) -> bytes:
        raise NotImplementedError

    def exists(self, key: str) -> bool:
        raise NotImplementedError

    def delete(self, key: str) -> None:
        raise NotImplementedError

    def list_keys(self, prefix: str = "") -> list[str]:
        raise NotImplementedError

    def purge_debris(self) -> int:
        """Delete crash debris (e.g. orphaned ``.tmp`` files); returns count.

        The default store has none; wrapping backends forward to the
        wrapped store, so ``CheckpointStore.gc`` can call this through any
        stack of decorators.
        """
        return 0

    # Public API with accounting --------------------------------------------------
    def write(self, key: str, data: bytes) -> None:
        """Write ``data`` (bytes, bytearray or memoryview) under ``key``.

        The buffer is passed through as-is — no defensive copy — so the
        zero-copy serialization path can hand pooled-buffer views straight
        to disk.  Backends that retain the data beyond the call (e.g. the
        in-memory store) must take their own copy; callers must keep the
        buffer stable until ``write`` returns.
        """
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"backend write expects bytes, got {type(data).__name__}")
        self._write(key, data)
        self.bytes_written += len(data)
        self.write_count += 1

    def read(self, key: str) -> bytes:
        data = self._read(key)
        self.bytes_read += len(data)
        return data


class InMemoryBackend(StorageBackend):
    """Dict-backed store; also models a CPU-memory checkpoint tier."""

    thread_safe_reads = True

    def __init__(self) -> None:
        super().__init__()
        self._data: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def _write(self, key: str, data: bytes) -> None:
        # Own a copy: the caller may reuse a pooled buffer after we return.
        owned = data if isinstance(data, bytes) else bytes(data)
        with self._lock:
            self._data[key] = owned

    def _read(self, key: str) -> bytes:
        with self._lock:
            try:
                return self._data[key]
            except KeyError:
                raise FileNotFoundError(f"no such checkpoint key: {key}") from None

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def delete(self, key: str) -> None:
        with self._lock:
            self._data.pop(key, None)

    def list_keys(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(k for k in self._data if k.startswith(prefix))


class LocalDiskBackend(StorageBackend):
    """Filesystem store with atomic writes (tmp file + rename).

    Atomicity matters: a failure mid-write must never leave a torn
    checkpoint that recovery would then trust.
    """

    thread_safe_reads = True  # independent files; plain pread per key

    def __init__(self, root: str):
        super().__init__()
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        if ".." in key.split("/") or key.startswith("/"):
            raise ValueError(f"invalid checkpoint key: {key!r}")
        return os.path.join(self.root, key)

    def _write(self, key: str, data: bytes) -> None:
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    def _read(self, key: str) -> bytes:
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise FileNotFoundError(f"no such checkpoint key: {key}") from None

    def exists(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def delete(self, key: str) -> None:
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass

    def list_keys(self, prefix: str = "") -> list[str]:
        keys = []
        for dirpath, _, filenames in os.walk(self.root):
            for filename in filenames:
                full = os.path.join(dirpath, filename)
                key = os.path.relpath(full, self.root).replace(os.sep, "/")
                if key.startswith(prefix) and not key.endswith(".tmp"):
                    keys.append(key)
        return sorted(keys)

    def purge_debris(self) -> int:
        """Delete orphaned ``.tmp`` files left by writes a crash interrupted.

        The atomic write path unlinks its temp file on a clean failure, but
        a hard kill (power loss, SIGKILL) between ``mkstemp`` and
        ``os.replace`` strands it; ``CheckpointStore.gc`` sweeps these.
        """
        purged = 0
        for dirpath, _, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.endswith(".tmp"):
                    try:
                        os.unlink(os.path.join(dirpath, filename))
                        purged += 1
                    except FileNotFoundError:  # pragma: no cover - race
                        pass
        return purged


class PrefixBackend(StorageBackend):
    """A key-prefix view over another backend.

    The sharded checkpoint store gives each shard its own
    :class:`~repro.storage.checkpoint_store.CheckpointStore` over
    ``PrefixBackend(backend, "shard-0003/")`` — every shard sees a plain
    private namespace (``full/…``, ``diff/…``, ``manifest.json``) while
    all records land in one physical store under one root.  Reads,
    writes, listing and debris sweeps translate keys both ways;
    accounting stays on the wrapping view *and* the parent (the parent's
    ``write``/``read`` are called, so its counters and any fault
    injection wrapped around it apply to sharded traffic too).
    """

    def __init__(self, inner: StorageBackend, prefix: str):
        super().__init__()
        if not prefix or not prefix.endswith("/"):
            raise ValueError(f"prefix must be non-empty and end with '/', "
                             f"got {prefix!r}")
        self.inner = inner
        self.prefix = prefix

    @property
    def thread_safe_reads(self) -> bool:  # delegate, not a class constant
        return getattr(self.inner, "thread_safe_reads", False)

    def _write(self, key: str, data: bytes) -> None:
        self.inner.write(self.prefix + key, data)

    def _read(self, key: str) -> bytes:
        return self.inner.read(self.prefix + key)

    def exists(self, key: str) -> bool:
        return self.inner.exists(self.prefix + key)

    def delete(self, key: str) -> None:
        self.inner.delete(self.prefix + key)

    def list_keys(self, prefix: str = "") -> list[str]:
        skip = len(self.prefix)
        return [key[skip:] for key in self.inner.list_keys(self.prefix + prefix)]

    def purge_debris(self) -> int:
        # The parent sweeps the whole tree; per-shard views must not each
        # re-trigger a global sweep, so debris under this prefix is handled
        # by whoever owns the parent (the sharded store's own gc).
        return 0


class ThrottledBackend(StorageBackend):
    """Wrap a backend with a virtual bandwidth/latency cost model.

    Does not sleep; it accumulates the time writes *would* take at
    ``bandwidth`` bytes/s plus ``latency`` per operation into
    ``virtual_time_s``.  The functional checkpointers report this as their
    persist cost, mirroring the paper's SSD-bound persistence.
    """

    def __init__(self, inner: StorageBackend, bandwidth: float, latency: float = 0.0):
        super().__init__()
        check_positive("bandwidth", bandwidth)
        check_positive("latency", latency, strict=False)
        self.inner = inner
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        self.virtual_time_s = 0.0

    def cost_of(self, nbytes: int) -> float:
        return self.latency + nbytes / self.bandwidth

    def _write(self, key: str, data: bytes) -> None:
        self.inner.write(key, data)
        self.virtual_time_s += self.cost_of(len(data))

    def _read(self, key: str) -> bytes:
        data = self.inner.read(key)
        self.virtual_time_s += self.cost_of(len(data))
        return data

    def exists(self, key: str) -> bool:
        return self.inner.exists(key)

    def delete(self, key: str) -> None:
        self.inner.delete(key)

    def list_keys(self, prefix: str = "") -> list[str]:
        return self.inner.list_keys(prefix)

    def purge_debris(self) -> int:
        return self.inner.purge_debris()


class FlakyBackend(StorageBackend):
    """Fault injection: fail the N-th write (and optionally reads).

    Used to verify that a failure mid-persist never corrupts the
    checkpoint series the recovery path reads.
    """

    def __init__(self, inner: StorageBackend, fail_on_write: int | None = None,
                 fail_on_read: int | None = None):
        super().__init__()
        self.inner = inner
        self.fail_on_write = fail_on_write
        self.fail_on_read = fail_on_read
        self._writes_seen = 0
        self._reads_seen = 0

    def _write(self, key: str, data: bytes) -> None:
        self._writes_seen += 1
        if self.fail_on_write is not None and self._writes_seen == self.fail_on_write:
            raise IOError(f"injected write failure on write #{self._writes_seen}")
        self.inner.write(key, data)

    def _read(self, key: str) -> bytes:
        self._reads_seen += 1
        if self.fail_on_read is not None and self._reads_seen == self.fail_on_read:
            raise IOError(f"injected read failure on read #{self._reads_seen}")
        return self.inner.read(key)

    def exists(self, key: str) -> bool:
        return self.inner.exists(key)

    def delete(self, key: str) -> None:
        self.inner.delete(key)

    def list_keys(self, prefix: str = "") -> list[str]:
        return self.inner.list_keys(prefix)

    def purge_debris(self) -> int:
        return self.inner.purge_debris()


class ChaosBackend(StorageBackend):
    """Seeded probabilistic fault injection for resilience drills.

    Generalizes :class:`FlakyBackend` from one-shot deterministic failures
    to the fault mix real storage exhibits:

    * **transient failures** — a write/read raises ``IOError`` but leaves
      the store intact (retry succeeds);
    * **torn writes** — a random prefix of the data lands and the write
      raises, modelling a non-atomic store dying mid-write (the integrity
      framing must catch the stub on read);
    * **bit flips** — the write succeeds but one random bit is corrupted
      *silently* (only checksums can catch this);
    * **latency spikes** — the operation succeeds but accrues extra
      virtual time (no sleeping; feeds retry/backoff tests).

    All draws come from a seeded :class:`~repro.utils.rng.Rng`, so every
    drill is replayable bit-exactly from its seed.  ``protect_prefixes``
    exempts keys (e.g. a quarantine area) from injection.
    """

    def __init__(self, inner: StorageBackend, rng: Rng | int,
                 write_fail_prob: float = 0.0, read_fail_prob: float = 0.0,
                 torn_write_prob: float = 0.0, bit_flip_prob: float = 0.0,
                 latency_spike_prob: float = 0.0, latency_spike_s: float = 0.1,
                 protect_prefixes: tuple[str, ...] = ()):
        super().__init__()
        for name, prob in (("write_fail_prob", write_fail_prob),
                           ("read_fail_prob", read_fail_prob),
                           ("torn_write_prob", torn_write_prob),
                           ("bit_flip_prob", bit_flip_prob),
                           ("latency_spike_prob", latency_spike_prob)):
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {prob}")
        self.inner = inner
        self.rng = rng if isinstance(rng, Rng) else Rng(int(rng))
        self.write_fail_prob = write_fail_prob
        self.read_fail_prob = read_fail_prob
        self.torn_write_prob = torn_write_prob
        self.bit_flip_prob = bit_flip_prob
        self.latency_spike_prob = latency_spike_prob
        self.latency_spike_s = latency_spike_s
        self.protect_prefixes = tuple(protect_prefixes)
        self.virtual_time_s = 0.0
        self.injected = {"write_fail": 0, "read_fail": 0, "torn_write": 0,
                         "bit_flip": 0, "latency_spike": 0}

    def _protected(self, key: str) -> bool:
        return any(key.startswith(p) for p in self.protect_prefixes)

    def _maybe_spike(self) -> None:
        if self.latency_spike_prob and \
                float(self.rng.random()) < self.latency_spike_prob:
            self.virtual_time_s += self.latency_spike_s
            self.injected["latency_spike"] += 1

    def _flip_one_bit(self, data: bytes) -> bytes:
        if not data:
            return data
        corrupted = bytearray(data)
        position = int(self.rng.integers(0, len(corrupted)))
        corrupted[position] ^= 1 << int(self.rng.integers(0, 8))
        return bytes(corrupted)

    def _write(self, key: str, data: bytes) -> None:
        if self._protected(key):
            self.inner.write(key, data)
            return
        self._maybe_spike()
        if self.torn_write_prob and \
                float(self.rng.random()) < self.torn_write_prob and len(data) > 1:
            cut = int(self.rng.integers(1, len(data)))
            self.inner.write(key, data[:cut])
            self.injected["torn_write"] += 1
            raise IOError(f"chaos: torn write of {key} ({cut}/{len(data)} bytes)")
        if self.write_fail_prob and \
                float(self.rng.random()) < self.write_fail_prob:
            self.injected["write_fail"] += 1
            raise IOError(f"chaos: transient write failure for {key}")
        if self.bit_flip_prob and float(self.rng.random()) < self.bit_flip_prob:
            data = self._flip_one_bit(data)
            self.injected["bit_flip"] += 1
        self.inner.write(key, data)

    def _read(self, key: str) -> bytes:
        if self._protected(key):
            return self.inner.read(key)
        self._maybe_spike()
        if self.read_fail_prob and float(self.rng.random()) < self.read_fail_prob:
            self.injected["read_fail"] += 1
            raise IOError(f"chaos: transient read failure for {key}")
        return self.inner.read(key)

    def exists(self, key: str) -> bool:
        return self.inner.exists(key)

    def delete(self, key: str) -> None:
        self.inner.delete(key)

    def list_keys(self, prefix: str = "") -> list[str]:
        return self.inner.list_keys(prefix)

    def purge_debris(self) -> int:
        return self.inner.purge_debris()

    def resilience_stats(self) -> dict:
        """Injected-fault counters (merged into drill reports)."""
        return {f"chaos_{name}": count for name, count in self.injected.items()}
