"""Map a backend op log to per-step durability times.

A training step ``s`` is *durable* once a recovery started from storage
alone would restore a state at or past ``s``.  The store commits records
by rewriting its manifest, so the moment ``s`` becomes durable is the end
of the first manifest write whose recoverable step (newest full plus the
contiguous diff chain after it, exactly the walk ``diffs_after`` makes)
reaches ``s``.  A sharded store keeps one manifest per shard and recovery
reads their intersection, so ``s`` is durable only when *every* shard's
manifest covers it: the latest of the per-shard first-cover times.

Everything here runs after the timed run, on the op log the instrumented
backend recorded; nothing in this module is on the training path.
"""

from __future__ import annotations

import bisect
import json
import re

MANIFEST_NAME = "manifest.json"
_SHARD_RE = re.compile(r"^shard-(\d+)/(.*)$")


def split_key(key: str) -> tuple[int | None, str]:
    """``"shard-0003/diff/..."`` -> ``(3, "diff/...")``; unsharded -> ``(None, key)``."""
    match = _SHARD_RE.match(key)
    if match is None:
        return None, key
    return int(match.group(1)), match.group(2)


def key_class(key: str) -> str:
    """One of ``full``, ``diff``, ``manifest`` or ``other``."""
    _, local = split_key(key)
    if local == MANIFEST_NAME:
        return "manifest"
    if local.startswith("full/"):
        return "full"
    if local.startswith("diff/"):
        return "diff"
    return "other"


def recoverable_step(manifest: bytes) -> int | None:
    """Step a serial recovery from this manifest would reach (``None``
    when the manifest holds no full or cannot be parsed)."""
    try:
        body = json.loads(bytes(manifest).decode())
        fulls = [int(rec["step"]) for rec in body["fulls"]]
        diffs = sorted((int(rec["start"]), int(rec["end"]))
                       for rec in body["diffs"])
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return None
    if not fulls:
        return None
    base = max(fulls)
    next_start = base + 1
    for start, end in diffs:
        if end <= base:
            continue
        if start == next_start:
            next_start = end + 1
        elif start > next_start:
            break
    return next_start - 1


def cover_frontiers(ops, shards: int = 1) -> dict:
    """Per shard: ``(times, steps)`` with ``steps`` the running maximum of
    the recoverable step over that shard's manifest writes, ordered by
    write end time.

    ``ops`` are op-log tuples ``(op, key, nbytes, t_start, t_end, thread,
    blob)`` where ``blob`` holds a manifest write's bytes.
    """
    writes: dict[int, list[tuple[float, int]]] = {}
    for op, key, _, _, t_end, _, blob in ops:
        if op != "write" or blob is None:
            continue
        shard, local = split_key(key)
        if local != MANIFEST_NAME:
            continue
        step = recoverable_step(blob)
        if step is None:
            continue
        writes.setdefault(0 if shard is None else shard, []).append(
            (t_end, step))
    frontiers = {}
    for shard in range(shards):
        times, steps, best = [], [], -1
        for t_end, step in sorted(writes.get(shard, ())):
            if step > best:
                best = step
                times.append(t_end)
                steps.append(step)
        frontiers[shard] = (times, steps)
    return frontiers


def durable_times(ops, steps, shards: int = 1) -> dict[int, float | None]:
    """``{step: time it became durable}``; ``None`` if it never did."""
    frontiers = cover_frontiers(ops, shards)
    out = {}
    for step in steps:
        latest = None
        for times, covered in frontiers.values():
            index = bisect.bisect_left(covered, step)
            if index == len(covered):
                latest = None
                break
            latest = times[index] if latest is None else max(latest,
                                                             times[index])
        out[step] = latest
    return out


def durable_latencies_ms(ops, origins: dict[int, float], shards: int = 1
                         ) -> tuple[list[float], list[int]]:
    """Latency from each step's origin time to durability, in ms.

    Returns ``(latencies, never_durable_steps)``.
    """
    done = durable_times(ops, origins, shards)
    latencies, missing = [], []
    for step, origin in origins.items():
        at = done[step]
        if at is None:
            missing.append(step)
        else:
            latencies.append((at - origin) * 1e3)
    return latencies, missing
