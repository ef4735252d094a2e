"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import runner  # noqa: E402
import layers  # noqa: E402
from durability import (  # noqa: E402
    durable_latencies_ms,
    durable_times,
    key_class,
    recoverable_step,
)
from workloads import WORKLOADS, Workload, restore, train_episode  # noqa: E402

from repro import CheckpointConfig  # noqa: E402


# Durability mapping on hand-built op logs -----------------------------------
def manifest(fulls, diffs) -> bytes:
    return json.dumps({
        "fulls": [{"step": s, "key": f"full/{s:010d}.ckpt"} for s in fulls],
        "diffs": [{"start": a, "end": b, "key": f"diff/{a:010d}_{b:010d}.ckpt"}
                  for a, b in diffs],
        "crc": 0,
    }).encode()


def commit(t_end, blob, shard=None):
    key = "manifest.json" if shard is None else f"shard-{shard:04d}/manifest.json"
    return ("write", key, len(blob), t_end - 0.001, t_end, 1, blob)


def test_key_classes():
    assert key_class("manifest.json") == "manifest"
    assert key_class("shard-0003/manifest.json") == "manifest"
    assert key_class("full/0000000010.ckpt") == "full"
    assert key_class("shard-0001/diff/0000000001_0000000004.ckpt") == "diff"
    assert key_class("sharded.json") == "other"


def test_recoverable_step_walks_the_contiguous_chain():
    assert recoverable_step(manifest([0], [])) == 0
    assert recoverable_step(manifest([0], [(1, 1), (2, 2)])) == 2
    assert recoverable_step(manifest([0], [(1, 4), (5, 7)])) == 7
    assert recoverable_step(manifest([0], [(1, 1), (3, 3)])) == 1  # gap
    assert recoverable_step(manifest([0, 10], [(1, 9)])) == 10
    assert recoverable_step(manifest([], [(1, 1)])) is None
    assert recoverable_step(b"{not json") is None


def test_each_step_is_durable_at_its_first_covering_manifest():
    ops = [
        commit(1.0, manifest([0], [])),
        ("write", "diff/0000000001_0000000001.ckpt", 10, 1.1, 1.2, 1, None),
        commit(2.0, manifest([0], [(1, 1)])),
        commit(3.0, manifest([0], [(1, 1), (2, 2)])),
        commit(4.0, manifest([0], [(1, 1), (2, 2)])),  # rewrite, no new step
    ]
    assert durable_times(ops, [1, 2, 3]) == {1: 2.0, 2: 3.0, 3: None}
    latencies, missing = durable_latencies_ms(ops, {1: 1.5, 2: 2.5, 3: 2.9})
    assert latencies == pytest.approx([500.0, 500.0])
    assert missing == [3]


def test_batched_record_makes_all_its_steps_durable_together():
    ops = [commit(5.0, manifest([0], [(1, 4)]))]
    assert durable_times(ops, [1, 2, 3, 4, 5]) == {
        1: 5.0, 2: 5.0, 3: 5.0, 4: 5.0, 5: None}


def test_a_gap_holds_later_steps_back_until_it_is_filled():
    ops = [
        commit(1.0, manifest([0], [(1, 1), (3, 3)])),
        commit(2.0, manifest([0], [(1, 1), (2, 2), (3, 3)])),
    ]
    assert durable_times(ops, [1, 2, 3]) == {1: 1.0, 2: 2.0, 3: 2.0}


def test_durability_uses_write_end_order_not_log_order():
    # Two writer threads may append out of order; the mapping sorts by end.
    ops = [commit(3.0, manifest([0], [(1, 1), (2, 2)])),
           commit(2.0, manifest([0], [(1, 1)]))]
    assert durable_times(ops, [1, 2]) == {1: 2.0, 2: 3.0}


def test_sharded_step_waits_for_every_shard():
    covered = manifest([0], [(1, 5)])
    ops = [commit(1.0, covered, 0), commit(2.0, covered, 1),
           commit(3.0, covered, 2),
           commit(0.5, manifest([0], []), 3)]
    # Committed on 3 of 4 shards: not durable.
    assert durable_times(ops, [5], shards=4) == {5: None}
    latencies, missing = durable_latencies_ms(ops, {5: 0.0}, shards=4)
    assert (latencies, missing) == ([], [5])
    # The 4th shard's manifest covers it later: durable then, not before.
    ops.append(commit(10.0, covered, 3))
    assert durable_times(ops, [5], shards=4) == {5: 10.0}


# Reconciliation -------------------------------------------------------------
def span(name, cat, ts, dur, tid=0, **args):
    event = {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
             "tid": tid, "pid": 0}
    if args:
        event["args"] = args
    return event


def test_reconcile_splits_wall_into_self_times_and_remainder():
    events = [
        span("episode", "bench", 0, 100, arm="traced"),
        span("train.step", "bench.distributed", 1, 60),
        span("compress", "bench.compression", 2, 10),
        span("ckpt.hook.synced", "bench.core", 20, 10),
        span("storage.write", "bench.storage", 22, 4),
        span("ckpt.finalize", "bench.core", 70, 20),
        span("restore", "bench.recovery", 200, 50),
        span("storage.read", "bench.storage", 210, 10),
        # Writer thread: overlaps training, reported separately.
        span("storage.write", "bench.storage", 30, 25, tid=7),
        # Not counted: an untraced-arm episode and a probe.
        span("episode", "bench", 300, 100, arm="plain"),
        span("train.step", "bench.distributed", 301, 90),
        span("probe.open", "bench.probe", 500, 9),
    ]
    out = layers.reconcile(events)
    assert out["trace.wall_s"] == pytest.approx(150e-6)
    shares = {k: v for k, v in out.items() if k.startswith("trace.self_share")}
    assert shares["trace.self_share.distributed"] == pytest.approx(40 / 150)
    assert shares["trace.self_share.compression"] == pytest.approx(10 / 150)
    assert shares["trace.self_share.core"] == pytest.approx(26 / 150)
    assert shares["trace.self_share.storage"] == pytest.approx(14 / 150)
    assert shares["trace.self_share.recovery"] == pytest.approx(40 / 150)
    assert out["trace.unattributed_share"] == pytest.approx(20 / 150)
    assert sum(shares.values()) + out["trace.unattributed_share"] == \
        pytest.approx(1.0)
    assert out["trace.background_storage_share"] == pytest.approx(25 / 100)


# Correctness gates on tiny workloads ----------------------------------------
TINY = dataclasses.replace(
    WORKLOADS["small-diffs"], name="tiny", in_features=8, hidden=(16,),
    out_features=4, iterations=13, warmup_iterations=6,
    config=CheckpointConfig(full_every_iters=5, batch_size=1,
                            async_persist=True, writer_threads=2),
    restores_per_episode=2)
TINY_SHARDED = dataclasses.replace(
    WORKLOADS["large-sharded"], name="tiny-sharded", in_features=8,
    hidden=(16,), out_features=4, iterations=13, warmup_iterations=6,
    config=dataclasses.replace(WORKLOADS["large-sharded"].config,
                               full_every_iters=5, batch_size=2),
    restores_per_episode=2)


@pytest.mark.parametrize("workload", [TINY, TINY_SHARDED],
                         ids=lambda w: w.name)
def test_episode_restores_check_out(tmp_path, workload: Workload):
    ep = train_episode(workload, 3, str(tmp_path), "untraced")
    assert ep.failed == 0 and not ep.errors
    assert len(ep.durable_ms) == workload.iterations
    outcome = restore(workload, 3, ep.directory, ep.expected)
    assert outcome.ok, outcome.error
    if workload.config.batch_size == 1:
        assert outcome.max_abs_err == 0.0


@pytest.mark.parametrize("workload", [TINY, TINY_SHARDED],
                         ids=lambda w: w.name)
def test_flipped_byte_in_a_diff_blob_fails_the_restore(tmp_path, workload):
    ep = train_episode(workload, 3, str(tmp_path), "untraced")
    assert ep.failed == 0
    diffs = sorted(glob.glob(os.path.join(ep.directory, "**", "diff", "*"),
                             recursive=True))
    # The next-to-last diff lies in the chain a restore replays.
    target = diffs[-2]
    with open(target, "r+b") as handle:
        data = bytearray(handle.read())
        data[len(data) // 2] ^= 0xFF
        handle.seek(0)
        handle.write(data)
    bench = runner.Run()
    outcomes = runner._restores(workload, 3, ep, bench, 1)
    assert not outcomes[0].ok
    assert bench.attempted == 1 and bench.failed == 1
    assert "restored step" in bench.errors[0]


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result = runner.run(TINY, 5, 0.01, False, str(tmp_path),
                        runner._now(), str(tmp_path / "out"))
    assert result["failed"] == 0, result["errors"]
    assert set(result["metrics"]) == set(layers.END_TO_END)
    assert all(value > 0 for value in result["metrics"].values())


def test_repeated_setups_count_as_ops_and_setup_s_takes_their_median(
        tmp_path):
    result = runner.run(TINY, 5, 0.01, False, str(tmp_path), runner._now(),
                        str(tmp_path / "out"),
                        lambda: [(None, "exit 1"), (50.0, ""), (60.0, "")])
    assert result["failed"] == 1
    assert result["errors"] == ["set-up in a fresh process: exit 1"]
    # median of (this process, 50, 60) is 50 plus the episode set-up
    assert 50.0 < result["metrics"]["setup_s"] < 51.0


@pytest.mark.parametrize("workload", [TINY, TINY_SHARDED],
                         ids=lambda w: w.name)
def test_traced_run_reports_every_per_layer_metric(tmp_path, workload):
    out_dir = tmp_path / "out"
    result = runner.run(workload, 5, 0.01, True, str(tmp_path),
                        runner._now(), str(out_dir))
    assert result["failed"] == 0, result["errors"]
    assert set(result["metrics"]) == set(layers.PER_LAYER)
    trace = json.loads((out_dir / "trace.json").read_text())
    assert any(e.get("cat", "").startswith("bench.")
               for e in trace["traceEvents"])
    assert (out_dir / "registry.json").exists()
    shares = [v for k, v in result["metrics"].items()
              if k.startswith("trace.self_share")]
    assert sum(shares) + result["metrics"]["trace.unattributed_share"] == \
        pytest.approx(1.0)


# Contract ------------------------------------------------------------------
def test_benchmark_json_names_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (unit, _) in layers.END_TO_END.items()}
    assert {m["name"]: m["better"] for m in spec["end_to_end"]} == \
        {name: better for name, (_, better) in layers.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.PER_LAYER


def test_run_fails_cleanly_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-diffs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
