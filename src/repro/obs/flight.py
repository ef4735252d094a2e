"""Flight recorder: a fixed-size ring of recent telemetry, always on.

Traces and metrics answer "how is the system doing"; the flight recorder
answers "what were the last things it did before it died".  Every process
keeps a bounded ring of recent entries (spans, instants, metric deltas —
anything a subsystem records via :meth:`FlightRecorder.record`), appended
at negligible cost whether or not observability is enabled: the sites
that record are per-checkpoint-record and per-state-transition, never
per-gradient-element, and an append is one ``time.time()`` plus a deque
push.

On a fail-stop — the persistence engine latching a failure, the
cluster supervisor declaring a worker lost — the ring is dumped to a
JSON post-mortem whose path the raised error names.

``python -m repro.obs.report --flight dump.json`` renders a dump.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import deque

__all__ = ["FlightRecorder", "FLIGHT", "flight_dump_dir"]

#: Default ring capacity.  512 entries of a few short strings each is a
#: handful of KiB per process — cheap enough to keep always on.
DEFAULT_CAPACITY = 512


def flight_dump_dir() -> str:
    """Directory post-mortems land in (``REPRO_FLIGHT_DIR`` or tmpdir).

    A configured directory is created on demand — a missing directory
    must not silently cost the operator the post-mortem.
    """
    configured = os.environ.get("REPRO_FLIGHT_DIR")
    if not configured:
        return tempfile.gettempdir()
    os.makedirs(configured, exist_ok=True)
    return configured


class FlightRecorder:
    """Bounded ring of recent events.

    ``record`` is the hot call: a lock-guarded deque append.  ``dump``
    serializes everything to a JSON post-mortem and returns its path.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._dump_count = 0
        self.recorded = 0

    def record(self, kind: str, name: str, **data) -> None:
        """Append one entry: ``kind`` groups (ckpt/supervisor/slo),
        ``name`` says what happened, ``data`` carries small scalars."""
        entry = {"t": time.time(), "kind": kind, "name": name}
        if data:
            entry["data"] = data
        with self._lock:
            self._ring.append(entry)
            self.recorded += 1

    def entries(self) -> list[dict]:
        with self._lock:
            return list(self._ring)

    def snapshot(self) -> dict:
        """JSON-serializable view of the ring."""
        with self._lock:
            return {
                "pid": os.getpid(),
                "capacity": self.capacity,
                "recorded": self.recorded,
                "entries": list(self._ring),
            }

    def dump(self, path: str | None = None, reason: str = "",
             extra: dict | None = None) -> str:
        """Write the post-mortem; returns the path (referenced from the
        fail-stop exception so the operator can find it)."""
        with self._lock:
            self._dump_count += 1
            count = self._dump_count
        if path is None:
            path = os.path.join(
                flight_dump_dir(),
                f"flight-{os.getpid()}-{count:03d}.json")
        body = self.snapshot()
        body["reason"] = reason
        body["dumped_at"] = time.time()
        if extra:
            body["extra"] = extra
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(body, handle, indent=2, default=repr)
            handle.write("\n")
        os.replace(tmp, path)
        return path

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()


#: The process-global flight recorder.  Like :data:`repro.obs.OBS` it is
#: one per process.
FLIGHT = FlightRecorder()
