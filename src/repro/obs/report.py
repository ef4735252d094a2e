"""Render obs artifacts: per-phase tables + effective-time breakdown.

``python -m repro.obs.report trace.json [--metrics metrics.json]`` turns
a Chrome-trace dump (from :class:`repro.obs.trace.Tracer`) and/or a
metrics snapshot (from :meth:`repro.obs.metrics.MetricsRegistry.snapshot`)
into the numbers the paper reports: where the time went per phase and
per track, and the effective-training-time ratio — the fraction of
wall-clock not attributed to checkpointing stalls (comparable to the
Gemini-style metric of Exps. 9-10).

``python -m repro.obs.report --bench-history`` consolidates the per-PR
``BENCH_*.json`` artifacts the benchmark suite emits into one
side-by-side trajectory table, so a regression in any headline number is
visible across PRs without opening each file.

Three more modes ride the same CLI:

* ``--metrics snap.json`` renders the snapshot, now including a
  tail-latency table (p50/p95/p99 interpolated from histogram buckets)
  for the persist and restore paths;
* ``--slo targets.json --metrics snap.json`` evaluates declarative SLO
  targets against the snapshot and **exits 1 on any breach** — the CI
  gate (pass ``--slo default`` for the built-in targets);
* ``--flight dump.json`` renders a flight-recorder post-mortem.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from repro.obs.metrics import DEFAULT_QUANTILES, quantile_from_snapshot

#: Event categories counted as checkpointing overhead when computing the
#: effective-time ratio (time on the training track the job would not
#: have spent without checkpointing).
OVERHEAD_CATEGORIES = frozenset({"stall", "ckpt", "checkpoint"})


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def summarize_trace(trace: dict) -> dict:
    """Aggregate a Chrome-trace container into per-track phase totals."""
    events = trace.get("traceEvents", trace if isinstance(trace, list) else [])
    track_names: dict[tuple, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            track_names[(event.get("pid", 0), event.get("tid", 0))] = \
                event["args"]["name"]
    complete = [e for e in events if e.get("ph") == "X"]
    if not complete:
        return {"wall_s": 0.0, "tracks": {}, "effective_ratio": None,
                "overhead_s": 0.0, "event_count": len(events)}
    begin = min(e["ts"] for e in complete)
    finish = max(e["ts"] + e.get("dur", 0.0) for e in complete)
    wall_s = (finish - begin) / 1e6

    tracks: dict[str, dict] = {}
    for event in complete:
        key = (event.get("pid", 0), event.get("tid", 0))
        track = track_names.get(key, f"tid{key[1]}")
        phases = tracks.setdefault(track, {})
        entry = phases.setdefault(
            (event["name"], event.get("cat", "")),
            {"count": 0, "total_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += event.get("dur", 0.0) / 1e6

    # The training track anchors the effective-time ratio: prefer the
    # track carrying train-phase or stall events, else the busiest one.
    def track_score(item):
        name, phases = item
        has_train = any(cat in ("train", "stall") for _, cat in phases)
        busy = sum(entry["total_s"] for entry in phases.values())
        return (has_train, busy)

    primary = max(tracks.items(), key=track_score)[0] if tracks else None
    overhead_s = sum(
        entry["total_s"]
        for (name, cat), entry in tracks.get(primary, {}).items()
        if cat in OVERHEAD_CATEGORIES
    )
    effective = (wall_s - overhead_s) / wall_s if wall_s > 0 else None
    return {
        "wall_s": wall_s,
        "tracks": tracks,
        "primary_track": primary,
        "overhead_s": overhead_s,
        "effective_ratio": effective,
        "event_count": len(events),
    }


def render_trace(summary: dict, top: int = 0) -> str:
    lines = []
    lines.append(f"trace: {summary['event_count']} events, "
                 f"wall {summary['wall_s'] * 1e3:.3f} ms")
    for track in sorted(summary["tracks"]):
        phases = summary["tracks"][track]
        lines.append("")
        lines.append(f"track {track!r}")
        lines.append(f"  {'phase':<32} {'cat':<10} {'count':>8} "
                     f"{'total ms':>12} {'mean ms':>10} {'% wall':>8}")
        ordered = sorted(phases.items(),
                         key=lambda item: -item[1]["total_s"])
        if top:
            ordered = ordered[:top]
        for (name, cat), entry in ordered:
            total_ms = entry["total_s"] * 1e3
            mean_ms = total_ms / entry["count"]
            share = (100.0 * entry["total_s"] / summary["wall_s"]
                     if summary["wall_s"] else 0.0)
            lines.append(f"  {name:<32} {cat:<10} {entry['count']:>8} "
                         f"{total_ms:>12.3f} {mean_ms:>10.4f} {share:>7.2f}%")
    lines.append("")
    lines.append("effective-training-time breakdown")
    lines.append(f"  primary track:        {summary['primary_track']!r}")
    lines.append(f"  wall time:            {summary['wall_s'] * 1e3:.3f} ms")
    lines.append(f"  checkpoint-attributed overhead "
                 f"({'/'.join(sorted(OVERHEAD_CATEGORIES))}): "
                 f"{summary['overhead_s'] * 1e3:.3f} ms")
    if summary["effective_ratio"] is not None:
        lines.append(f"  effective time ratio: "
                     f"{summary['effective_ratio']:.6f}")
    return "\n".join(lines)


def storage_ratios(snapshot: dict) -> dict:
    """Derive compression ratios from ``storage.bytes.*`` counters.

    Returns ``{scope: (raw, encoded, ratio)}`` for every scope (overall,
    ``full``, ``diff``) where both counters are present and non-zero.
    """
    out = {}
    for scope, raw_key, enc_key in (
            ("all", "storage.bytes.raw", "storage.bytes.encoded"),
            ("full", "storage.bytes.full.raw", "storage.bytes.full.encoded"),
            ("diff", "storage.bytes.diff.raw", "storage.bytes.diff.encoded")):
        raw, enc = snapshot.get(raw_key), snapshot.get(enc_key)
        if isinstance(raw, (int, float)) and isinstance(enc, (int, float)) \
                and raw > 0 and enc > 0:
            out[scope] = (raw, enc, raw / enc)
    return out


def render_metrics(snapshot: dict) -> str:
    """Group a flat metrics snapshot by its leading name component."""
    groups: dict[str, list] = {}
    for name in sorted(snapshot):
        groups.setdefault(name.split(".", 1)[0], []).append(name)
    lines = ["metrics snapshot"]
    for group in sorted(groups):
        lines.append(f"  [{group}]")
        for name in groups[group]:
            value = snapshot[name]
            if isinstance(value, dict):   # histogram
                count, total = value.get("count", 0), value.get("sum", 0.0)
                mean = total / count if count else 0.0
                lines.append(
                    f"    {name:<44} count={count} sum={total:.6g} "
                    f"mean={mean:.6g} min={value.get('min')} "
                    f"max={value.get('max')}")
            else:
                lines.append(f"    {name:<44} {value}")
    ratios = storage_ratios(snapshot)
    if ratios:
        lines.append("  [storage compression]")
        for scope, (raw, enc, ratio) in ratios.items():
            lines.append(f"    {scope:<10} raw={raw:.0f} B  "
                         f"encoded={enc:.0f} B  ratio={ratio:.3f}x")
    tail = render_tail_latency(snapshot)
    if tail:
        lines.append(tail)
    return "\n".join(lines)


#: Histograms whose names start with these prefixes are the
#: persist/restore paths the tail-latency table covers.
TAIL_LATENCY_PREFIXES = ("ckpt.", "recover.", "restore.", "storage.")


def tail_latency_rows(snapshot: dict) -> list[dict]:
    """Interpolated p50/p95/p99 for persist/restore-path histograms."""
    rows = []
    for name in sorted(snapshot):
        value = snapshot[name]
        if not isinstance(value, dict) or not value.get("count"):
            continue
        if not name.startswith(TAIL_LATENCY_PREFIXES):
            continue
        count = value["count"]
        row = {
            "metric": name,
            "count": count,
            "mean": value.get("sum", 0.0) / count,
            "max": value.get("max"),
        }
        for q in DEFAULT_QUANTILES:
            row[f"p{int(q * 100)}"] = quantile_from_snapshot(value, q)
        rows.append(row)
    return rows


def render_tail_latency(snapshot: dict) -> str:
    """Tail-latency table; ``""`` when no path histograms are present."""
    rows = tail_latency_rows(snapshot)
    if not rows:
        return ""
    lines = ["  [tail latency (interpolated from histogram buckets)]"]
    lines.append(f"    {'metric':<44} {'count':>7} {'mean':>10} "
                 f"{'p50':>10} {'p95':>10} {'p99':>10} {'max':>10}")
    for row in rows:
        cells = []
        for key in ("mean", "p50", "p95", "p99", "max"):
            value = row.get(key)
            cells.append("-" if value is None else f"{value:.4g}")
        lines.append(f"    {row['metric']:<44} {row['count']:>7} "
                     f"{cells[0]:>10} {cells[1]:>10} {cells[2]:>10} "
                     f"{cells[3]:>10} {cells[4]:>10}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SLO scorecard and flight-recorder rendering
# ---------------------------------------------------------------------------

def render_slo(results) -> str:
    """Scorecard for :func:`repro.obs.slo.evaluate_snapshot` results."""
    lines = ["slo scorecard"]
    lines.append(f"  {'target':<26} {'aggregate':<10} {'observed':>12} "
                 f"{'threshold':>12} {'obj':<4} {'status':<8}")
    breaches = 0
    for result in results:
        target = result.target
        observed = "-" if result.observed is None \
            else f"{result.observed:.6g}"
        limit = "<=" if target.objective == "max" else ">="
        lines.append(f"  {target.name:<26} {target.aggregate:<10} "
                     f"{observed:>12} {target.threshold:>12.6g} "
                     f"{limit:<4} {result.status:<8}")
        if result.breached:
            breaches += 1
            lines.append(f"      metric: {target.metric}  "
                         f"matched: {', '.join(result.matched) or '-'}")
            if target.description:
                lines.append(f"      {target.description}")
    lines.append(f"  {breaches} breach(es) across {len(results)} target(s)")
    return "\n".join(lines)


def render_flight(dump: dict) -> str:
    """Human view of a flight-recorder post-mortem dump."""
    lines = [f"flight recorder post-mortem (pid {dump.get('pid', '?')})"]
    if dump.get("reason"):
        lines.append(f"  reason: {dump['reason']}")
    lines.append(f"  recorded {dump.get('recorded', '?')} entries, "
                 f"ring capacity {dump.get('capacity', '?')}")

    for entry in dump.get("entries", []):
        data = entry.get("data", {})
        detail = " ".join(f"{k}={v}" for k, v in data.items())
        lines.append(f"  {entry.get('t', 0.0):.6f} "
                     f"[{entry.get('kind', '?'):<10}] "
                     f"{entry.get('name', '?')}"
                     f"{('  ' + detail) if detail else ''}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Bench-history consolidation (BENCH_*.json trajectory)
# ---------------------------------------------------------------------------

def _flatten_bench(node, prefix="", out=None) -> dict:
    """Flatten one BENCH_*.json to dotted scalar leaves.

    Histogram bucket breakdowns and raw lists add noise at trajectory
    granularity, so buckets are skipped and lists collapsed to a length.
    """
    if out is None:
        out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "buckets":
                continue
            if isinstance(value, (dict, list)):
                _flatten_bench(value, f"{prefix}{key}.", out)
            else:
                out[f"{prefix}{key}"] = value
    elif isinstance(node, list):
        out[prefix.rstrip(".") + ".len"] = len(node)
        if node and all(isinstance(item, dict) for item in node):
            for index, item in enumerate(node):
                _flatten_bench(item, f"{prefix.rstrip('.')}[{index}].", out)
    return out


def collect_bench_history(directory: str, pattern: str = "BENCH_*.json") -> dict:
    """Load every ``BENCH_*.json`` under ``directory`` into flat tables.

    Returns ``{file_stem: {metric: value}}`` ordered by file name.
    """
    history: dict[str, dict] = {}
    for path in sorted(glob.glob(os.path.join(directory, pattern))):
        stem = os.path.splitext(os.path.basename(path))[0]
        stem = stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem
        try:
            history[stem] = _flatten_bench(load_json(path))
        except (json.JSONDecodeError, OSError) as error:
            history[stem] = {"__error__": str(error)}
    return history


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_bench_history(history: dict, grep: str | None = None) -> str:
    """Side-by-side trajectory table: rows = metrics, columns = PRs."""
    if not history:
        return "bench history: no BENCH_*.json files found"
    columns = list(history)
    rows: list[str] = []
    seen = set()
    for table in history.values():
        for name in table:
            if name not in seen:
                seen.add(name)
                rows.append(name)
    if grep:
        needle = grep.lower()
        rows = [r for r in rows if needle in r.lower()]
    name_width = max([len(r) for r in rows] + [len("metric")])
    col_width = max([len(c) for c in columns] + [12])
    lines = [f"bench history ({len(columns)} artifacts)"]
    header = f"  {'metric':<{name_width}}"
    for col in columns:
        header += f" {col:>{col_width}}"
    lines.append(header)
    for row in rows:
        line = f"  {row:<{name_width}}"
        for col in columns:
            value = history[col].get(row)
            cell = "-" if value is None else _format_cell(value)
            line += f" {cell:>{col_width}}"
        lines.append(line)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render an obs trace and/or metrics snapshot as "
                    "per-phase tables and an effective-time breakdown.")
    parser.add_argument("trace", nargs="?", default=None,
                        help="Chrome-trace JSON written by Tracer.save()")
    parser.add_argument("--metrics", default=None,
                        help="metrics snapshot JSON "
                             "(MetricsRegistry.snapshot())")
    parser.add_argument("--top", type=int, default=0,
                        help="show only the N most expensive phases per track")
    parser.add_argument("--json", action="store_true",
                        help="emit the aggregated summary as JSON instead "
                             "of tables")
    parser.add_argument("--bench-history", action="store_true",
                        help="consolidate BENCH_*.json artifacts into one "
                             "side-by-side per-PR trajectory table")
    parser.add_argument("--bench-dir", default=".",
                        help="directory scanned for BENCH_*.json "
                             "(default: current directory)")
    parser.add_argument("--grep", default=None,
                        help="with --bench-history: only show metric rows "
                             "containing this substring")
    parser.add_argument("--slo", default=None, metavar="CONFIG",
                        help="evaluate SLO targets (JSON config path, or "
                             "'default' for the built-ins) against "
                             "--metrics; exit 1 on any breach")
    parser.add_argument("--flight", default=None, metavar="DUMP",
                        help="render a flight-recorder post-mortem dump")
    args = parser.parse_args(argv)
    if args.trace is None and args.metrics is None \
            and not args.bench_history and args.flight is None:
        parser.error("provide a trace file, --metrics, --flight, and/or "
                     "--bench-history")
    if args.slo is not None and args.metrics is None:
        parser.error("--slo needs --metrics to evaluate against")

    out: dict = {}
    sections: list[str] = []
    if args.bench_history:
        history = collect_bench_history(args.bench_dir)
        out["bench_history"] = history
        sections.append(render_bench_history(history, grep=args.grep))
    if args.trace is not None:
        summary = summarize_trace(load_json(args.trace))
        out["trace"] = {
            "wall_s": summary["wall_s"],
            "overhead_s": summary["overhead_s"],
            "effective_ratio": summary["effective_ratio"],
            "primary_track": summary["primary_track"],
            "phases": {
                track: {name: entry for (name, _), entry in phases.items()}
                for track, phases in summary["tracks"].items()
            },
        }
        sections.append(render_trace(summary, top=args.top))
    breached = False
    if args.metrics is not None:
        snapshot = load_json(args.metrics)
        out["metrics"] = snapshot
        out["tail_latency"] = tail_latency_rows(snapshot)
        sections.append(render_metrics(snapshot))
        if args.slo is not None:
            from repro.obs.slo import (DEFAULT_TARGETS, evaluate_snapshot,
                                       load_slo_config)
            targets = DEFAULT_TARGETS if args.slo == "default" \
                else load_slo_config(args.slo)
            results = evaluate_snapshot(targets, snapshot)
            breached = any(result.breached for result in results)
            out["slo"] = [{
                "target": result.target.name,
                "metric": result.target.metric,
                "aggregate": result.target.aggregate,
                "objective": result.target.objective,
                "threshold": result.target.threshold,
                "observed": result.observed,
                "status": result.status,
                "matched": list(result.matched),
            } for result in results]
            sections.append(render_slo(results))
    if args.flight is not None:
        dump = load_json(args.flight)
        out["flight"] = dump
        sections.append(render_flight(dump))

    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print("\n\n".join(sections))
    return 1 if breached else 0


if __name__ == "__main__":
    sys.exit(main())
