"""Turn episodes, restores and the trace into metrics.

End-to-end metrics come from the untraced episodes and restores.  The
per-layer table comes from the traced arm: benchmark-side spans on the
``repro.obs`` tracer (categories ``bench.<layer>``), the instrumented
backend's op logs, the hook/compressor probes and the program's own obs
registry.  :func:`reconcile` splits the traced wall time into each
layer's self time plus an unattributed remainder.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from durability import key_class

LAYERS = ("distributed", "compression", "core", "storage", "recovery")

# name -> (unit, better)
END_TO_END = {
    "train_iter_per_s": ("it/s", "higher"),
    "iter_ms_p50": ("ms", "lower"),
    "iter_ms_p95": ("ms", "lower"),
    "durable_ms_p50": ("ms", "lower"),
    "durable_ms_p95": ("ms", "lower"),
    "restore_s": ("s", "lower"),
    "bytes_written_per_iter": ("B/it", "lower"),
    "disk_bytes_end": ("B", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}

_REGISTRY_TIMES = ("ckpt.async.serialize.s", "ckpt.async.commit.s",
                   "ckpt.async.commit_wait.s", "ckpt.async.backpressure_wait.s",
                   "ckpt.shard.persist_full.s", "ckpt.shard.persist_diff.s",
                   "codec.encode.s")
_REGISTRY_COUNTS = ("storage.bytes.encoded", "storage.bytes.raw")

PER_LAYER = {
    "distributed.step_ms_p50": "ms",
    "distributed.step_ms_plain_p50": "ms",
    "distributed.interference_ratio": "ratio",
    "distributed.comm_bytes_per_iter": "B/it",
    "compression.compress_ms_p50": "ms",
    "compression.payload_bytes_per_iter": "B/it",
    "core.hook_synced_ms_p50": "ms",
    "core.hook_synced_ms_p95": "ms",
    "core.hook_update_ms_p50": "ms",
    "core.hook_update_ms_p95": "ms",
    "core.finalize_s": "s",
    "core.queue_max_depth": "count",
    "core.diff_writes": "count",
    "core.full_checkpoints": "count",
    **{f"storage.write.{cls}.{field}": unit
       for cls in ("full", "diff", "manifest")
       for field, unit in (("count_per_iter", "1/it"),
                           ("bytes_per_iter", "B/it"),
                           ("ms_p50", "ms"), ("ms_p95", "ms"))},
    "storage.manifest_bytes_share": "ratio",
    "storage.write_amp": "ratio",
    "storage.write_busy_share": "ratio",
    "storage.read.count": "count",
    "storage.read.bytes": "B",
    "storage.read.ms_p50": "ms",
    "storage.delete.count": "count",
    "storage.list.count": "count",
    "storage.list.ms_p50": "ms",
    **{name: "s/it" for name in _REGISTRY_TIMES},
    "ckpt.async.backpressure_stalls": "1/it",
    **{name: "B/it" for name in _REGISTRY_COUNTS},
    "recovery.open_ms": "ms",
    "recovery.load_full_ms": "ms",
    "recovery.load_diff_ms_per_record": "ms",
    "recovery.apply_ms_per_record": "ms",
    "recovery.remainder_ms": "ms",
    "recovery.parallel_s": "s",
    "recovery.parallel_max_abs_err": "abs",
    "recovery.diffs_replayed": "count",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    **{f"trace.self_share.{layer}": "ratio" for layer in LAYERS},
    "trace.unattributed_share": "ratio",
    "trace.background_storage_share": "ratio",
    "restore_max_abs_err": "abs",
    "ops_failed_ratio": "ratio",
}


def pct(values, q: float) -> float:
    """Linear-interpolated percentile; ``nan`` for no samples."""
    return float(np.percentile(values, q)) if len(values) else math.nan


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else math.nan


# End-to-end -----------------------------------------------------------------
def training_metrics(episodes) -> dict:
    """Throughput, step latency, durability and bytes over ``episodes``."""
    iterations = sum(ep.completed for ep in episodes)
    iter_ms = [s * 1e3 for ep in episodes for s in ep.iter_s]
    durable = [ms for ep in episodes for ms in ep.durable_ms]
    return {
        "train_iter_per_s": iterations / sum(ep.wall_s for ep in episodes),
        "iter_ms_p50": pct(iter_ms, 50),
        "iter_ms_p95": pct(iter_ms, 95),
        "durable_ms_p50": pct(durable, 50),
        "durable_ms_p95": pct(durable, 95),
        "bytes_written_per_iter":
            sum(ep.bytes_written for ep in episodes) / iterations,
        "disk_bytes_end": median([ep.disk_bytes_end for ep in episodes]),
    }


# Per-layer ------------------------------------------------------------------
def _span_tree(events):
    """Benchmark spans with their self time and top-level ancestor.

    Spans on one thread nest properly (begin/end pairs), so a stack walk
    in start order finds each span's parent; a span's self time is its
    duration minus its direct children's.
    """
    spans = [dict(e) for e in events
             if e.get("ph") == "X" and str(e.get("cat", "")).startswith("bench")]
    by_tid: dict[int, list] = {}
    for span in spans:
        span["end"] = span["ts"] + span["dur"]
        span["child"] = 0.0
        by_tid.setdefault(span["tid"], []).append(span)
    for tid_spans in by_tid.values():
        tid_spans.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack = []
        for span in tid_spans:
            while stack and stack[-1]["end"] <= span["ts"]:
                stack.pop()
            if stack:
                stack[-1]["child"] += span["dur"]
                span["root"] = stack[0]
            else:
                span["root"] = span
            stack.append(span)
    for span in spans:
        span["self"] = span["dur"] - span["child"]
    return spans


def _layer(span) -> str:
    parts = span["cat"].split(".", 1)
    return parts[1] if len(parts) > 1 else "unattributed"


def reconcile(events) -> dict:
    """Self time per layer over the traced checkpointed episodes and the
    traced default-path restores, as shares of their wall time.

    The episode container span covers first ``step()`` to ``finalize()``;
    its own self time (loop bookkeeping between the benchmark's spans) is
    the unattributed remainder.  Storage spans on other threads (the
    async writers) overlap training and are reported separately as the
    background storage busy share.
    """
    spans = _span_tree(events)

    def counted_root(root) -> bool:
        if root["name"] == "episode":
            return root.get("args", {}).get("arm") == "traced"
        return root["name"] == "restore"

    roots = [s for s in spans if s["root"] is s and counted_root(s)]
    main_tids = {root["tid"] for root in roots}
    wall_us = sum(root["dur"] for root in roots)
    selfs = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    for span in spans:
        if span["tid"] not in main_tids or not counted_root(span["root"]):
            continue
        layer = _layer(span)
        if layer in selfs:
            selfs[layer] += span["self"]
        else:
            unattributed += span["self"]
    windows = [(r["ts"], r["end"]) for r in roots if r["name"] == "episode"]
    episode_us = sum(end - start for start, end in windows)
    background = sum(
        s["dur"] for s in spans
        if s["tid"] not in main_tids and _layer(s) == "storage"
        and s["root"] is s
        and any(start <= s["ts"] < end for start, end in windows))
    out = {"trace.wall_s": wall_us / 1e6}
    for layer, value in selfs.items():
        out[f"trace.self_share.{layer}"] = value / wall_us if wall_us else 0.0
    out["trace.unattributed_share"] = unattributed / wall_us if wall_us else 0.0
    out["trace.background_storage_share"] = (background / episode_us
                                             if episode_us else 0.0)
    return out


def _union_seconds(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def storage_metrics(episodes, restores) -> dict:
    """Backend op-log metrics: writes per key class over the training
    episodes, reads per default-path restore."""
    iterations = sum(ep.completed for ep in episodes) or 1
    out = {}
    writes = {cls: [] for cls in ("full", "diff", "manifest", "other")}
    lists, deletes, intervals = [], 0, []
    for ep in episodes:
        for op, key, nbytes, start, end, _, _ in ep.ops:
            if op == "write":
                writes[key_class(key)].append((nbytes, end - start))
                intervals.append((start, end))
            elif op == "list":
                lists.append(end - start)
            elif op == "delete":
                deletes += 1
    total_written = sum(n for rows in writes.values() for n, _ in rows)
    for cls in ("full", "diff", "manifest"):
        rows = writes[cls]
        out[f"storage.write.{cls}.count_per_iter"] = len(rows) / iterations
        out[f"storage.write.{cls}.bytes_per_iter"] = \
            sum(n for n, _ in rows) / iterations
        out[f"storage.write.{cls}.ms_p50"] = pct([d * 1e3 for _, d in rows], 50)
        out[f"storage.write.{cls}.ms_p95"] = pct([d * 1e3 for _, d in rows], 95)
    manifest_bytes = sum(n for n, _ in writes["manifest"])
    out["storage.manifest_bytes_share"] = (manifest_bytes / total_written
                                           if total_written else 0.0)
    payload = sum(ep.payload_bytes for ep in episodes)
    out["storage.write_amp"] = total_written / payload if payload else 0.0
    wall = sum(ep.wall_s for ep in episodes)
    out["storage.write_busy_share"] = (_union_seconds(intervals) / wall
                                       if wall else 0.0)
    n_eps = len(episodes) or 1
    out["storage.delete.count"] = deletes / n_eps
    out["storage.list.count"] = len(lists) / n_eps
    out["storage.list.ms_p50"] = pct([d * 1e3 for d in lists], 50)
    reads = [[(nbytes, end - start)
              for op, _, nbytes, start, end, _, _ in r.ops if op == "read"]
             for r in restores]
    out["storage.read.count"] = median([len(rows) for rows in reads])
    out["storage.read.bytes"] = median([sum(n for n, _ in rows)
                                        for rows in reads])
    out["storage.read.ms_p50"] = pct([d * 1e3 for rows in reads
                                      for _, d in rows], 50)
    return out


def registry_metrics(snapshot: dict, iterations: int) -> dict:
    """The program's own obs registry, normalised per traced iteration."""
    iterations = iterations or 1
    out = {}
    for name in _REGISTRY_TIMES:
        value = snapshot.get(name)
        out[name] = (value["sum"] if isinstance(value, dict) else 0.0) \
            / iterations
    stalls = snapshot.get("ckpt.async.backpressure_stalls", 0)
    out["ckpt.async.backpressure_stalls"] = stalls / iterations
    for name in _REGISTRY_COUNTS:
        out[name] = snapshot.get(name, 0) / iterations
    return out


def step_metrics(traced, plain) -> dict:
    """Distributed, compression and core figures from the probes."""
    step_ms, synced_ms, update_ms, compress_ms = [], [], [], []
    for ep in traced:
        for step_s, synced_s, update_s in zip(ep.iter_s, ep.synced_hook_s,
                                              ep.update_hook_s):
            step_ms.append((step_s - synced_s - update_s) * 1e3)
            synced_ms.append(synced_s * 1e3)
            update_ms.append(update_s * 1e3)
        calls = ep.compress_s
        compress_ms += [(calls[i] + calls[i + 1]) * 1e3
                        for i in range(0, len(calls) - 1, 2)]
    plain_ms = [s * 1e3 for ep in plain for s in ep.iter_s]
    iterations = sum(ep.completed for ep in traced) or 1
    step_p50, plain_p50 = pct(step_ms, 50), pct(plain_ms, 50)
    return {
        "distributed.step_ms_p50": step_p50,
        "distributed.step_ms_plain_p50": plain_p50,
        "distributed.interference_ratio": step_p50 / plain_p50,
        "distributed.comm_bytes_per_iter":
            sum(ep.comm_bytes for ep in traced) / iterations,
        "compression.compress_ms_p50": pct(compress_ms, 50),
        "compression.payload_bytes_per_iter":
            sum(ep.payload_bytes for ep in traced) / iterations,
        "core.hook_synced_ms_p50": pct(synced_ms, 50),
        "core.hook_synced_ms_p95": pct(synced_ms, 95),
        "core.hook_update_ms_p50": pct(update_ms, 50),
        "core.hook_update_ms_p95": pct(update_ms, 95),
        "core.finalize_s": median([ep.finalize_s for ep in traced]),
        "core.queue_max_depth":
            median([ep.stats.get("queue_max_depth", 0) for ep in traced]),
        "core.diff_writes":
            median([ep.stats.get("diff_writes", 0) for ep in traced]),
        "core.full_checkpoints":
            median([ep.stats.get("full_checkpoints", 0) for ep in traced]),
    }


def recovery_metrics(restores, shadows, parallel) -> dict:
    """Probe stages, each probe paired with the default-path restore it
    shadows: the remainder is that restore's wall time minus the sum of
    the probe's stages (median over pairs)."""
    probes = [probe for _, probe in shadows]
    return {
        "recovery.open_ms": median([p.open_s for p in probes]) * 1e3,
        "recovery.load_full_ms": median([p.load_full_s for p in probes]) * 1e3,
        "recovery.load_diff_ms_per_record": median(
            [statistics.fmean(p.load_diff_s) for p in probes
             if p.load_diff_s]) * 1e3,
        "recovery.apply_ms_per_record": median(
            [statistics.fmean(p.apply_s) for p in probes if p.apply_s]) * 1e3,
        "recovery.remainder_ms": median(
            [seconds - probe.total_s for seconds, probe in shadows]) * 1e3,
        "recovery.parallel_s": median([r.seconds for r in parallel]),
        "recovery.parallel_max_abs_err":
            max((r.max_abs_err for r in parallel), default=math.nan),
        "recovery.diffs_replayed": median([r.diffs_replayed
                                           for r in restores]),
    }
