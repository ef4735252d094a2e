"""Tests for the checkpoint store: manifests, chains, retention."""

import json
import re
import zlib

import numpy as np
import pytest

from repro.compression import TopKCompressor
from repro.storage import CheckpointStore, InMemoryBackend, LocalDiskBackend


def payload(rng, size=10):
    return TopKCompressor(0.5).compress({"w": rng.normal(size=(size,))})


def full_states(rng):
    model = {"w": rng.normal(size=(10,))}
    opt = {"type": "Adam", "lr": 1e-3, "step_count": 0,
           "slots": {"w": {"m": np.zeros(10), "v": np.zeros(10)}}}
    return model, opt


class TestFullCheckpoints:
    def test_save_load_roundtrip(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(5, model, opt)
        record = store.latest_full()
        assert record.step == 5
        loaded_model, loaded_opt, step = store.load_full(record)
        assert step == 5
        np.testing.assert_array_equal(loaded_model["w"], model["w"])
        assert loaded_opt["step_count"] == 0

    def test_latest_full_picks_newest(self, store, rng):
        model, opt = full_states(rng)
        for step in (3, 10, 7):
            store.save_full(step, model, opt)
        assert store.latest_full().step == 10

    def test_latest_full_none_when_empty(self, store):
        assert store.latest_full() is None

    def test_resave_same_step_replaces(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(5, model, opt)
        store.save_full(5, model, opt)
        assert len(store.fulls()) == 1


class TestDiffCheckpoints:
    def test_save_load_diff(self, store, rng):
        p = payload(rng)
        store.save_diff(1, 1, p)
        record = store.diffs()[0]
        assert (record.start, record.end, record.count) == (1, 1, 1)
        loaded = store.load_diff(record)
        np.testing.assert_array_equal(loaded.decompress()["w"],
                                      p.decompress()["w"])

    def test_invalid_range_rejected(self, store, rng):
        with pytest.raises(ValueError):
            store.save_diff(5, 3, payload(rng))

    def test_diffs_after_contiguous_chain(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        for step in range(1, 6):
            store.save_diff(step, step, payload(rng))
        chain = store.diffs_after(0)
        assert [(r.start, r.end) for r in chain] == [(i, i) for i in range(1, 6)]
        assert [(r.start, r.end) for r in store.diffs_after(3)] == [(4, 4), (5, 5)]

    def test_diffs_after_gap_truncates(self, store, rng):
        store.save_diff(1, 1, payload(rng))
        store.save_diff(3, 3, payload(rng))  # 2 missing
        chain = store.diffs_after(0)
        assert [(r.start, r.end) for r in chain] == [(1, 1)]

    def test_diffs_after_batched_records(self, store, rng):
        store.save_diff(1, 2, payload(rng), count=2)
        store.save_diff(3, 4, payload(rng), count=2)
        chain = store.diffs_after(0)
        assert [(r.start, r.end) for r in chain] == [(1, 2), (3, 4)]
        assert sum(r.count for r in chain) == 4

    def test_diffs_after_misaligned_start(self, store, rng):
        store.save_diff(2, 3, payload(rng))
        assert store.diffs_after(0) == []


class TestManifestPersistence:
    def test_reopen_recovers_index(self, rng, tmp_path):
        backend = LocalDiskBackend(str(tmp_path))
        store = CheckpointStore(backend)
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        store.save_diff(1, 2, payload(rng), count=2)
        # A new process opens the same storage.
        reopened = CheckpointStore(LocalDiskBackend(str(tmp_path)))
        assert reopened.latest_full().step == 0
        assert [(r.start, r.end) for r in reopened.diffs_after(0)] == [(1, 2)]

    @staticmethod
    def populated(rng):
        store = CheckpointStore(InMemoryBackend())
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        store.save_diff(1, 2, payload(rng), count=2)
        store.save_diff(3, 3, payload(rng))
        return store

    def test_older_manifest_formats_load_without_rebuild(self, rng):
        store = self.populated(rng)
        backend, records = store.backend, (store.fulls(), store.diffs())
        manifest = {"fulls": [vars(r) for r in store.fulls()],
                    "diffs": [vars(r) for r in store.diffs()]}
        body = json.dumps(manifest, separators=(",", ":"),
                          sort_keys=True).encode()
        # Spaced encoding with "crc" last, then a legacy one without it.
        spaced = json.dumps({**json.loads(body), "crc": zlib.crc32(body)})
        for raw in (spaced, json.dumps(manifest)):
            backend.write("manifest.json", raw.encode())
            reopened = CheckpointStore(backend)
            assert reopened.manifest_rebuilt is False
            assert (reopened.fulls(), reopened.diffs()) == records

    def test_compact_manifest_round_trips(self, rng):
        store = self.populated(rng)
        raw = store.backend.read("manifest.json")
        body, crc = re.fullmatch(rb'(.*),"crc":(\d+)}', raw).groups()
        assert b" " not in raw
        assert int(crc) == zlib.crc32(body + b"}")
        reopened = CheckpointStore(store.backend)
        assert reopened.manifest_rebuilt is False
        assert (reopened.fulls(), reopened.diffs()) == \
            (store.fulls(), store.diffs())

    def test_flipped_nbytes_digit_forces_rebuild(self, rng):
        store = self.populated(rng)
        raw = store.backend.read("manifest.json").decode()
        tampered = re.sub(r'("nbytes":\d*)(\d)',
                          lambda m: m[1] + str((int(m[2]) + 1) % 10),
                          raw, count=1)
        assert tampered != raw
        store.backend.write("manifest.json", tampered.encode())
        reopened = CheckpointStore(store.backend)
        assert reopened.manifest_rebuilt is True
        assert [r.nbytes for r in reopened.diffs()] == \
            [r.nbytes for r in store.diffs()]

    def test_storage_bytes_accounting(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        store.save_diff(1, 1, payload(rng))
        sizes = store.storage_bytes()
        assert sizes["full"] > 0 and sizes["diff"] > 0
        # Full checkpoint (3 Psi of state) far exceeds the sparse diff.
        assert sizes["full"] > sizes["diff"]


class TestGarbageCollection:
    def test_gc_keeps_newest_fulls(self, store, rng):
        model, opt = full_states(rng)
        for step in (0, 10, 20):
            store.save_full(step, model, opt)
        deleted = store.gc(keep_fulls=2)
        assert deleted == 1
        assert [r.step for r in store.fulls()] == [10, 20]
        assert not store.backend.exists("full/0000000000.ckpt")

    def test_gc_drops_unreachable_diffs(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        for step in range(1, 11):
            store.save_diff(step, step, payload(rng))
        store.save_full(10, model, opt)
        store.save_full(20, model, opt)
        store.gc(keep_fulls=2)
        # Diffs at or before step 10 (the oldest retained full) are gone.
        remaining = store.diffs()
        assert all(r.end > 10 for r in remaining)

    def test_gc_noop_when_under_limit(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        assert store.gc(keep_fulls=2) == 0

    def test_gc_rejects_zero(self, store):
        with pytest.raises(ValueError):
            store.gc(keep_fulls=0)

    def test_gc_sweeps_tmp_debris(self, rng, tmp_path):
        backend = LocalDiskBackend(str(tmp_path))
        store = CheckpointStore(backend)
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        # A hard kill mid-write strands a temp file the atomic rename
        # never consumed.
        debris = tmp_path / "full" / "stranded.tmp"
        debris.write_bytes(b"torn")
        store.gc(keep_fulls=2)
        assert not debris.exists()
        # The committed checkpoint survives the sweep.
        assert store.latest_full().step == 0

    def test_gc_deletes_unreferenced_keys(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        store.save_diff(1, 1, payload(rng))
        # Blobs written but never committed to the manifest (crash between
        # data write and manifest commit) are storage leaks.
        store.backend.write("full/0000000099.ckpt", b"uncommitted")
        store.backend.write("diff/0000000050_0000000050.ckpt", b"uncommitted")
        deleted = store.gc(keep_fulls=2)
        assert deleted == 2
        assert not store.backend.exists("full/0000000099.ckpt")
        assert not store.backend.exists("diff/0000000050_0000000050.ckpt")
        assert store.latest_full().step == 0
        assert len(store.diffs()) == 1

    def test_gc_keeps_unreferenced_when_disabled(self, store, rng):
        model, opt = full_states(rng)
        store.save_full(0, model, opt)
        store.backend.write("full/0000000099.ckpt", b"uncommitted")
        store.gc(keep_fulls=2, purge_unreferenced=False)
        assert store.backend.exists("full/0000000099.ckpt")


class TestOverlapGuard:
    def test_inconsistent_overlap_rejected(self, store, rng):
        store.save_diff(1, 4, payload(rng), count=4)
        # A partial overlap would leave two records claiming step 3.
        with pytest.raises(ValueError, match="overlap"):
            store.save_diff(3, 3, payload(rng))
        with pytest.raises(ValueError, match="overlap"):
            store.save_diff(3, 6, payload(rng), count=4)
        with pytest.raises(ValueError, match="overlap"):
            store.save_diff(0, 1, payload(rng), count=2)

    def test_exact_range_replace_allowed(self, store, rng):
        store.save_diff(1, 4, payload(rng), count=4)
        replacement = payload(rng)
        store.save_diff(1, 4, replacement, count=4)  # recovery re-covers it
        assert len(store.diffs()) == 1
        loaded = store.load_diff(store.diffs()[0])
        np.testing.assert_array_equal(loaded.decompress()["w"],
                                      replacement.decompress()["w"])

    def test_disjoint_ranges_coexist(self, store, rng):
        store.save_diff(1, 4, payload(rng), count=4)
        store.save_diff(5, 8, payload(rng), count=4)
        assert [(r.start, r.end) for r in store.diffs()] == [(1, 4), (5, 8)]
