"""Span tracer emitting Chrome Trace Event Format JSON.

The output of :meth:`Tracer.export` loads directly in ``chrome://tracing``
and Perfetto: complete events (``ph: "X"``) carry ``ts``/``dur`` in
microseconds, instant events (``ph: "i"``) mark points in time, counter
events (``ph: "C"``) draw stacked value tracks, and metadata events name
the process and per-thread tracks.

Two timestamp sources coexist:

* the **relative API** (``begin``/``end``/``span``/``instant``/
  ``counter``) reads the tracer's clock — wall time by default — and
  assigns events to the calling thread's track, so the functional layer's
  writer pool shows up as real per-thread lanes;
* the **explicit API** (``complete_at``/``instant_at``/``counter_at``)
  takes timestamps and a named track from the caller — this is how the
  simulator drives the tracer with its virtual clock, making sim traces
  deterministic and bit-reproducible across runs.

Serialization (:meth:`to_json`) sorts keys and uses fixed separators, so
two tracers fed identical events produce byte-identical JSON.
"""

from __future__ import annotations

import json
import threading
import time

__all__ = ["Tracer"]


class _Span:
    """Context-manager handle pairing one ``begin`` with its ``end``."""

    __slots__ = ("_tracer", "_name", "_category", "_args")

    def __init__(self, tracer: "Tracer", name: str, category, args):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args

    def __enter__(self) -> "_Span":
        self._tracer.begin(self._name, self._category, self._args)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.end()


class Tracer:
    """Collects trace events; exports Chrome-trace JSON.

    Parameters
    ----------
    clock:
        Zero-arg callable returning seconds; defaults to
        ``time.perf_counter``.  Only the relative API reads it.  The
        first reading taken at construction is the trace origin (ts 0).
    limit:
        Optional cap on stored events; beyond it new events are dropped
        and counted in :attr:`dropped` (a trace that silently swallows
        memory is worse than a truncated one).
    """

    def __init__(self, clock=None, limit: int | None = None):
        self._clock = clock if clock is not None else time.perf_counter
        self._t0 = float(self._clock())
        self._limit = limit
        self._events: list[dict] = []
        self._lock = threading.Lock()
        self._tracks: dict[object, int] = {}   # thread ident or track name -> tid
        self._local = threading.local()
        self.dropped = 0

    # Track bookkeeping -----------------------------------------------------
    def _tid(self, key, label: str) -> int:
        with self._lock:
            tid = self._tracks.get(key)
            if tid is None:
                tid = len(self._tracks)
                self._tracks[key] = tid
                self._events.append({
                    "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                    "args": {"name": label},
                })
            return tid

    def _thread_tid(self) -> int:
        tid = getattr(self._local, "tid", None)
        if tid is None:
            thread = threading.current_thread()
            tid = self._tid(("thread", thread.ident), thread.name)
            self._local.tid = tid
        return tid

    def _track_tid(self, track: str) -> int:
        return self._tid(("track", track), track)

    def _append(self, event: dict) -> None:
        with self._lock:
            if self._limit is not None and \
                    len(self._events) >= self._limit:
                self.dropped += 1
                return
            self._events.append(event)

    # Relative API (tracer clock, calling thread's track) -------------------
    def _now_us(self) -> float:
        return (float(self._clock()) - self._t0) * 1e6

    def begin(self, name: str, category: str | None = None,
              args: dict | None = None) -> None:
        """Open a span on the calling thread; pair with :meth:`end`."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append((name, category, args, self._now_us()))

    def end(self) -> None:
        """Close the innermost open span on the calling thread."""
        name, category, args, started = self._local.stack.pop()
        ended = self._now_us()
        event = {
            "name": name, "ph": "X", "ts": started, "dur": ended - started,
            "pid": 0, "tid": self._thread_tid(),
        }
        if category is not None:
            event["cat"] = category
        if args:
            event["args"] = args
        self._append(event)

    def span(self, name: str, category: str | None = None,
             args: dict | None = None) -> _Span:
        """``with tracer.span("serialize", "ckpt"): ...``"""
        return _Span(self, name, category, args)

    def instant(self, name: str, category: str | None = None,
                args: dict | None = None) -> None:
        event = {
            "name": name, "ph": "i", "ts": self._now_us(), "pid": 0,
            "tid": self._thread_tid(), "s": "t",
        }
        if category is not None:
            event["cat"] = category
        if args:
            event["args"] = args
        self._append(event)

    def counter(self, name: str, values) -> None:
        """Counter track sample; ``values`` is a number or ``{series: num}``."""
        if not isinstance(values, dict):
            values = {"value": values}
        self._append({
            "name": name, "ph": "C", "ts": self._now_us(), "pid": 0,
            "tid": self._thread_tid(), "args": dict(values),
        })

    # Explicit-timestamp API (virtual clocks, named tracks) -----------------
    def complete_at(self, name: str, ts_s: float, dur_s: float,
                    track: str = "train", category: str | None = None,
                    args: dict | None = None) -> None:
        """Complete event at an explicit virtual time on a named track."""
        event = {
            "name": name, "ph": "X", "ts": float(ts_s) * 1e6,
            "dur": float(dur_s) * 1e6, "pid": 0,
            "tid": self._track_tid(track),
        }
        if category is not None:
            event["cat"] = category
        if args:
            event["args"] = args
        self._append(event)

    def instant_at(self, name: str, ts_s: float, track: str = "train",
                   category: str | None = None,
                   args: dict | None = None) -> None:
        event = {
            "name": name, "ph": "i", "ts": float(ts_s) * 1e6, "pid": 0,
            "tid": self._track_tid(track), "s": "t",
        }
        if category is not None:
            event["cat"] = category
        if args:
            event["args"] = args
        self._append(event)

    def counter_at(self, name: str, ts_s: float, values,
                   track: str = "counters") -> None:
        if not isinstance(values, dict):
            values = {"value": values}
        self._append({
            "name": name, "ph": "C", "ts": float(ts_s) * 1e6, "pid": 0,
            "tid": self._track_tid(track), "args": dict(values),
        })

    # Export ----------------------------------------------------------------
    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def export(self) -> dict:
        """Chrome-trace container: load in chrome://tracing or Perfetto."""
        process_meta = {
            "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
            "args": {"name": "repro"},
        }
        return {
            "traceEvents": [process_meta] + self.events(),
            "displayTimeUnit": "ms",
        }

    def to_json(self) -> str:
        """Deterministic serialization: identical events → identical bytes."""
        return json.dumps(self.export(), sort_keys=True,
                          separators=(",", ":"))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")
