"""Sharded differential checkpointing with elastic restore.

LowDiff's native habitat (DeepSpeed/ZeRO) splinters model and optimizer
state across ranks; a checkpoint is not one blob but a set of per-rank
shards, and small-file metadata thrash dominates at scale.  This module
extends the one-blob-per-job :class:`~repro.storage.checkpoint_store.
CheckpointStore` to **per-shard full/diff chains under a single sharded
manifest**:

* :class:`ShardLayout` — a *stable global index space*: every parameter
  is flattened and laid out at a fixed offset (canonical name order, the
  same construction the sparse union-add kernel uses), and the total
  flat size is split into ``S`` balanced contiguous ranges.  The layout
  depends only on the model, never on the writing world size — which is
  what makes restore *elastic*.
* :class:`ShardedCheckpointStore` — a facade over ``S`` per-shard
  :class:`CheckpointStore` instances (each behind a
  :class:`~repro.storage.backends.PrefixBackend` namespace), exposing the
  familiar ``save_full``/``save_diff``/``gc``/``verify`` API.  Fulls are
  flat slices of model arrays + optimizer slots per shard range; diffs
  are per-shard restrictions of the sparse payload.
* **Crash consistency by manifest intersection** — the readable view is
  exactly the records present in *all* ``S`` per-shard manifests.  A
  crash between shard commits leaves a partial shard set that is simply
  invisible (swept by ``gc``); no root commit marker is needed, and each
  shard store keeps its own blob-before-manifest ordering.
* :func:`sharded_serial_recover` / :func:`sharded_parallel_recover` —
  bit-exact equivalents of the unsharded recovery paths: reassembled
  payloads are bit-identical to the originals (disjoint sorted index
  ranges concatenate back losslessly) and each shard's pairwise merge
  tree has the same shape as the unsharded tree, so per-coordinate fold
  order — and therefore every fp32 rounding — is identical.
* :func:`elastic_restore` — recover a checkpoint written at world size N
  onto a trainer of world size M: nothing in the store depends on the
  world size, so restore is just recovery plus re-partitioning ownership
  over the stable index space (the ZeRO trainer re-derives ownership
  from its own active ranks).
* :class:`ShardedPersistGroup` / :class:`ShardedChainCompactor` — the
  async persistence engine and the retention compactor,
  fanned out per shard.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.compression.sparse import INDEX_DTYPE, VALUE_DTYPE, SparseGradient
from repro.obs import OBS, span as obs_span
from repro.storage.backends import PrefixBackend, StorageBackend
from repro.storage.checkpoint_store import (
    CheckpointStore,
    DiffCheckpointRecord,
    FullCheckpointRecord,
)

#: Root manifest: static layout only (shard count + tensor shapes), written
#: once when the layout is first established.  Deliberately *not* a commit
#: marker — record visibility is governed by per-shard manifest
#: intersection, so this file is never on the crash-ordering critical path.
LAYOUT_KEY = "sharded.json"


def shard_prefix(shard: int) -> str:
    return f"shard-{shard:04d}/"


class ShardLayout:
    """Stable global index space over the model's parameters, partitioned
    into ``shards`` balanced contiguous ranges.

    Canonical order is the parameter-name order of the dict the layout was
    built from (module traversal order — identical on every rank and every
    world size).  Tensor ``name`` occupies global indices
    ``[offset(name), offset(name) + size(name))``; shard ``s`` owns
    ``[floor(s·total/S), floor((s+1)·total/S))``.
    """

    def __init__(self, shapes: dict[str, tuple], shards: int):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = int(shards)
        self.shapes = {name: tuple(int(d) for d in shape)
                       for name, shape in shapes.items()}
        self.names = list(self.shapes)
        self.offsets: dict[str, int] = {}
        total = 0
        for name in self.names:
            shape = self.shapes[name]
            self.offsets[name] = total
            total += int(np.prod(shape)) if shape else 1
        self.total = total
        self.bounds = [
            (s * total // self.shards, (s + 1) * total // self.shards)
            for s in range(self.shards)
        ]

    def sizes(self) -> dict[str, int]:
        return {
            name: int(np.prod(shape)) if shape else 1
            for name, shape in self.shapes.items()
        }

    def _intersections(self, shard: int):
        """Yield ``(name, local_lo, local_hi)`` for tensors overlapping
        ``shard``'s global range (local = flat index within the tensor)."""
        lo, hi = self.bounds[shard]
        sizes = self.sizes()
        for name in self.names:
            off = self.offsets[name]
            size = sizes[name]
            a, b = max(lo, off), min(hi, off + size)
            if a < b:
                yield name, a - off, b - off

    # Full-state slicing -----------------------------------------------------
    def slice_full(self, model_state: dict, optimizer_state: dict,
                   shard: int) -> tuple[dict, dict]:
        """The shard's portion of a full checkpoint.

        Model arrays and same-shaped optimizer slots are flat slices over
        the shard's range; optimizer scalars (``type``/``lr``/
        ``step_count``) replicate into every shard record (they are the
        cross-shard consistency witness), and slot arrays whose shape does
        not match their parameter go verbatim under ``slots_raw`` (first
        shard's copy wins on reassembly).
        """
        shard_model: dict[str, np.ndarray] = {}
        sliced_slots: dict[str, dict] = {}
        raw_slots: dict[str, dict] = {}
        slots = optimizer_state.get("slots", {})
        for name, local_lo, local_hi in self._intersections(shard):
            array = np.asarray(model_state[name])
            shard_model[name] = array.reshape(-1)[local_lo:local_hi]
            param_shape = self.shapes[name]
            for slot_name, slot in slots.get(name, {}).items():
                slot = np.asarray(slot)
                if tuple(slot.shape) == param_shape:
                    sliced_slots.setdefault(name, {})[slot_name] = \
                        slot.reshape(-1)[local_lo:local_hi]
                else:
                    raw_slots.setdefault(name, {})[slot_name] = slot
        shard_opt = {
            "type": optimizer_state.get("type", ""),
            "lr": optimizer_state.get("lr", 0.0),
            "step_count": optimizer_state.get("step_count", 0),
            "slots": sliced_slots,
            "slots_raw": raw_slots,
        }
        return shard_model, shard_opt

    def assemble_full(self, shard_states: list[tuple[dict, dict]]
                      ) -> tuple[dict, dict]:
        """Inverse of :meth:`slice_full` over all ``S`` shard records."""
        sizes = self.sizes()
        flat_model: dict[str, np.ndarray] = {}
        flat_slots: dict[str, dict[str, np.ndarray]] = {}
        raw_slots: dict[str, dict[str, np.ndarray]] = {}
        base = None
        for shard, (shard_model, shard_opt) in enumerate(shard_states):
            if base is None:
                base = shard_opt
            for name, local_lo, local_hi in self._intersections(shard):
                piece = np.asarray(shard_model[name])
                target = flat_model.get(name)
                if target is None:
                    target = np.empty(sizes[name], dtype=piece.dtype)
                    flat_model[name] = target
                target[local_lo:local_hi] = piece
                for slot_name, slot in shard_opt.get("slots", {}).get(
                        name, {}).items():
                    slot_target = flat_slots.setdefault(name, {}).get(slot_name)
                    if slot_target is None:
                        slot_target = np.empty(sizes[name],
                                               dtype=np.asarray(slot).dtype)
                        flat_slots[name][slot_name] = slot_target
                    slot_target[local_lo:local_hi] = np.asarray(slot)
            for name, slots in shard_opt.get("slots_raw", {}).items():
                for slot_name, slot in slots.items():
                    raw_slots.setdefault(name, {}).setdefault(
                        slot_name, np.asarray(slot))
        model_state = {
            name: flat_model[name].reshape(self.shapes[name])
            for name in self.names if name in flat_model
        }
        assembled_slots: dict[str, dict] = {}
        for name in self.names:
            merged: dict[str, np.ndarray] = {}
            for slot_name, flat in flat_slots.get(name, {}).items():
                merged[slot_name] = flat.reshape(self.shapes[name])
            merged.update(raw_slots.get(name, {}))
            assembled_slots[name] = merged
        optimizer_state = {
            "type": base.get("type", ""),
            "lr": base.get("lr", 0.0),
            "step_count": base.get("step_count", 0),
            "slots": assembled_slots,
        }
        return model_state, optimizer_state

    # Diff-payload slicing ---------------------------------------------------
    def slice_payload(self, payload: SparseGradient, shard: int
                      ) -> SparseGradient:
        """Restrict a sparse payload to the shard's global index range.

        Every tensor name stays present (with empty entries outside the
        range) so each shard record carries the full parameter space and
        reassembly is pure concatenation.
        """
        lo, hi = self.bounds[shard]
        entries: dict[str, tuple] = {}
        empty_idx = np.array([], dtype=INDEX_DTYPE)
        empty_val = np.array([], dtype=VALUE_DTYPE)
        for name in self.names:
            indices, values = payload.entries[name]
            off = self.offsets[name]
            local_lo, local_hi = lo - off, hi - off
            if indices.size == 0 or local_hi <= 0:
                entries[name] = (empty_idx, empty_val)
                continue
            selector = (indices >= local_lo) & (indices < local_hi)
            entries[name] = (indices[selector], values[selector])
        return SparseGradient(entries, self.shapes)

    def assemble_payload(self, shard_payloads: list[SparseGradient]
                         ) -> SparseGradient:
        """Union of disjoint per-shard payloads — exact concatenation.

        Shard ranges are contiguous and ascending, and payload indices per
        tensor are sorted (compressor/merge output), so concatenating the
        per-shard pieces in shard order reproduces the original arrays
        bit-for-bit.
        """
        entries: dict[str, tuple] = {}
        for name in self.names:
            parts = [p.entries[name] for p in shard_payloads]
            entries[name] = (
                np.concatenate([idx for idx, _ in parts]) if parts
                else np.array([], dtype=INDEX_DTYPE),
                np.concatenate([val for _, val in parts]) if parts
                else np.array([], dtype=VALUE_DTYPE),
            )
        return SparseGradient(entries, self.shapes)

    # Persistence ------------------------------------------------------------
    def to_tree(self) -> dict:
        return {
            "version": 1,
            "shards": self.shards,
            "names": self.names,
            "shapes": {name: list(shape)
                       for name, shape in self.shapes.items()},
        }

    @classmethod
    def from_tree(cls, tree: dict) -> "ShardLayout":
        shapes = {name: tuple(tree["shapes"][name]) for name in tree["names"]}
        return cls(shapes, int(tree["shards"]))


# Readable-view records (synthesized from the per-shard manifests) ----------
@dataclass(frozen=True)
class ShardedFullView:
    """A full checkpoint committed in *every* shard manifest."""

    step: int
    records: tuple[FullCheckpointRecord, ...]

    @property
    def nbytes(self) -> int:
        return sum(r.nbytes for r in self.records)


@dataclass(frozen=True)
class ShardedDiffView:
    """A diff record committed with an identical range in every shard."""

    start: int
    end: int
    count: int
    records: tuple[DiffCheckpointRecord, ...]

    @property
    def nbytes(self) -> int:
        return sum(r.nbytes for r in self.records)


class ShardedCheckpointStore:
    """``S`` per-shard checkpoint stores behind one facade.

    The readable view is the **intersection** of the per-shard manifests:
    a full checkpoint exists iff every shard committed it, and the diff
    chain is the longest prefix on which every shard agrees about each
    record's ``(start, end)`` range.  A crash that commits only a subset
    of shards therefore never yields a readable inconsistent state — the
    partial records are invisible debris until ``gc`` sweeps them or a
    retried write completes the set.

    ``shard_concurrency`` bounds the per-checkpoint IO fan-out; writes
    only overlap when the underlying backend declares
    ``thread_safe_reads`` (fault-injecting wrappers keep their seeded
    fault schedules deterministic under a sequential shard order).
    """

    def __init__(self, backend: StorageBackend, shards: int,
                 codec=None, shard_concurrency: int = 4,
                 strict_codecs: bool = True):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shard_concurrency < 1:
            raise ValueError(
                f"shard_concurrency must be >= 1, got {shard_concurrency}")
        self.backend = backend
        self.shards = int(shards)
        self.shard_concurrency = int(shard_concurrency)
        self.shard_stores = [
            CheckpointStore(PrefixBackend(backend, shard_prefix(s)),
                            codec=codec, strict_codecs=strict_codecs)
            for s in range(self.shards)
        ]
        self._layout: ShardLayout | None = None
        self._layout_lock = threading.Lock()
        if backend.exists(LAYOUT_KEY):
            self._layout = self._load_layout()

    # Layout -----------------------------------------------------------------
    def _load_layout(self) -> ShardLayout:
        tree = json.loads(self.backend.read(LAYOUT_KEY).decode())
        crc = tree.pop("crc", None)
        if crc is not None:
            body = json.dumps(tree, separators=(",", ":"),
                              sort_keys=True).encode()
            if zlib.crc32(body) != crc:
                raise ValueError("sharded layout manifest failed CRC check")
        layout = ShardLayout.from_tree(tree)
        if layout.shards != self.shards:
            raise ValueError(
                f"store was written with {layout.shards} shards, "
                f"opened with {self.shards}")
        return layout

    def _persist_layout(self, layout: ShardLayout) -> None:
        tree = layout.to_tree()
        body = json.dumps(tree, separators=(",", ":"), sort_keys=True).encode()
        tree["crc"] = zlib.crc32(body)
        self.backend.write(LAYOUT_KEY, json.dumps(tree).encode())

    @property
    def layout(self) -> ShardLayout | None:
        return self._layout

    def ensure_layout(self, shapes: dict[str, tuple]) -> ShardLayout:
        """Establish (and persist) the layout on first write; validate
        every later write against it."""
        with self._layout_lock:
            if self._layout is None:
                layout = ShardLayout(shapes, self.shards)
                self._persist_layout(layout)
                self._layout = layout
            else:
                expected = self._layout.shapes
                actual = {name: tuple(int(d) for d in shape)
                          for name, shape in shapes.items()}
                if actual != expected:
                    raise ValueError(
                        "checkpoint parameter space does not match the "
                        "sharded layout this store was created with")
            return self._layout

    # Shard fan-out ----------------------------------------------------------
    def _map_shards(self, fn):
        """Run ``fn(shard_index)`` for every shard, overlapping up to
        ``shard_concurrency`` when the backend tolerates concurrent IO."""
        if (self.shards > 1 and self.shard_concurrency > 1
                and getattr(self.backend, "thread_safe_reads", False)):
            workers = min(self.shard_concurrency, self.shards)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, range(self.shards)))
        return [fn(s) for s in range(self.shards)]

    # Codec ------------------------------------------------------------------
    def set_codec(self, codec, error_bound: float | None = None) -> None:
        for sub in self.shard_stores:
            sub.set_codec(codec, error_bound=error_bound)

    @property
    def codec(self):
        return self.shard_stores[0].codec

    # Saving -----------------------------------------------------------------
    def save_full(self, step: int, model_state: dict, optimizer_state: dict,
                  extra: dict | None = None) -> ShardedFullView:
        layout = self.ensure_layout(
            {name: np.asarray(v).shape for name, v in model_state.items()})
        persist_t0 = time.perf_counter()
        with obs_span("persist_full_sharded", "ckpt",
                      {"step": step, "shards": self.shards}):
            def persist(shard: int) -> FullCheckpointRecord:
                shard_model, shard_opt = layout.slice_full(
                    model_state, optimizer_state, shard)
                return self.shard_stores[shard].save_full(
                    step, shard_model, shard_opt,
                    extra if shard == 0 else None)

            records = self._map_shards(persist)
        view = ShardedFullView(step=int(step), records=tuple(records))
        self._count_shard_persist("full", view.nbytes,
                                  time.perf_counter() - persist_t0)
        return view

    def save_diff(self, start: int, end: int, payload,
                  count: int | None = None) -> ShardedDiffView:
        if not isinstance(payload, SparseGradient):
            raise TypeError(
                "sharded stores persist sparse differential payloads only "
                f"(got {type(payload).__name__}); dense/state-delta series "
                "need the unsharded store")
        layout = self.ensure_layout(payload.shapes)
        resolved_count = int(count if count is not None else end - start + 1)
        persist_t0 = time.perf_counter()
        with obs_span("persist_diff_sharded", "ckpt",
                      {"start": start, "end": end, "shards": self.shards}):
            def persist(shard: int) -> DiffCheckpointRecord:
                return self.shard_stores[shard].save_diff(
                    start, end, layout.slice_payload(payload, shard),
                    count=resolved_count)

            records = self._map_shards(persist)
        view = ShardedDiffView(start=int(start), end=int(end),
                               count=resolved_count, records=tuple(records))
        self._count_shard_persist("diff", view.nbytes,
                                  time.perf_counter() - persist_t0)
        return view

    def _count_shard_persist(self, kind: str, nbytes: int,
                             elapsed_s: float) -> None:
        if not OBS.enabled:
            return
        registry = OBS.registry
        registry.set("ckpt.shard.count", self.shards)
        registry.counter(f"ckpt.shard.{kind}_records").inc(self.shards)
        registry.counter("ckpt.shard.bytes").inc(nbytes)
        registry.observe(f"ckpt.shard.persist_{kind}.s", elapsed_s)

    # Readable view (manifest intersection) ----------------------------------
    def common_full_steps(self) -> list[int]:
        """Full steps committed in *every* shard manifest."""
        common: set[int] | None = None
        for sub in self.shard_stores:
            steps = {r.step for r in sub.fulls()}
            common = steps if common is None else common & steps
        return sorted(common or ())

    def fulls(self) -> list[ShardedFullView]:
        by_step = [
            {r.step: r for r in sub.fulls()} for sub in self.shard_stores
        ]
        return [
            ShardedFullView(step=step,
                            records=tuple(m[step] for m in by_step))
            for step in self.common_full_steps()
        ]

    def latest_full(self) -> ShardedFullView | None:
        views = self.fulls()
        return views[-1] if views else None

    def diffs_after(self, step: int) -> list[ShardedDiffView]:
        """The committed chain after ``step``: the longest prefix on which
        every shard holds a record with an identical ``(start, end)``
        range.  A shard lagging (crash between shard commits) or diverging
        (independent compaction progress) truncates the readable chain —
        never yields a mixed-range replay."""
        chains = [sub.diffs_after(step) for sub in self.shard_stores]
        views: list[ShardedDiffView] = []
        for position in range(min(len(c) for c in chains)):
            records = tuple(chain[position] for chain in chains)
            ranges = {(r.start, r.end) for r in records}
            if len(ranges) != 1:
                break
            views.append(ShardedDiffView(
                start=records[0].start, end=records[0].end,
                count=records[0].count, records=records))
        return views

    # Loading ----------------------------------------------------------------
    def load_full(self, view: ShardedFullView) -> tuple[dict, dict, int]:
        """Reassemble a committed sharded full checkpoint."""
        if self._layout is None:
            raise FileNotFoundError(
                "sharded store has no layout manifest; nothing was written")
        shard_states = []
        for shard, record in enumerate(view.records):
            model_state, opt_state, _ = \
                self.shard_stores[shard].load_full(record)
            shard_states.append((model_state, opt_state))
        model_state, optimizer_state = \
            self._layout.assemble_full(shard_states)
        return model_state, optimizer_state, view.step

    def load_diff(self, view: ShardedDiffView) -> SparseGradient:
        """Reassemble a committed sharded diff payload (bit-exact)."""
        if self._layout is None:
            raise FileNotFoundError(
                "sharded store has no layout manifest; nothing was written")
        payloads = [
            self.shard_stores[shard].load_diff(record)
            for shard, record in enumerate(view.records)
        ]
        return self._layout.assemble_payload(payloads)

    # Maintenance ------------------------------------------------------------
    def gc(self, keep_fulls: int = 2, purge_unreferenced: bool = True) -> int:
        """Per-shard retention gc, budgeted against *committed* fulls.

        A partial full at the tip (crash mid-commit) must not consume a
        retention slot — with ``keep_fulls=1`` it would evict the last
        committed full from its shard and empty the readable view — so
        each shard's budget is widened by its count of
        newer-than-committed tip fulls.  The partials themselves survive
        the sweep: a retried ``save_full`` at the same step completes the
        missing shards and the step becomes committed."""
        common = self.common_full_steps()
        newest_common = common[-1] if common else None

        def sweep(shard: int) -> int:
            sub = self.shard_stores[shard]
            extra = 0
            if newest_common is not None:
                extra = sum(1 for r in sub.fulls() if r.step > newest_common)
            return sub.gc(keep_fulls=keep_fulls + extra,
                          purge_unreferenced=purge_unreferenced)

        return sum(self._map_shards(sweep))

    def verify(self, deep: bool = True, repair: bool = False) -> dict:
        report = {"checked": 0, "missing": [], "corrupt": [],
                  "unknown_codec": [], "shards": []}
        for shard, sub in enumerate(self.shard_stores):
            sub_report = sub.verify(deep=deep, repair=repair)
            report["checked"] += sub_report["checked"]
            for field in ("missing", "corrupt", "unknown_codec"):
                report[field].extend(
                    shard_prefix(shard) + key for key in sub_report[field])
            report["shards"].append(sub_report)
        return report

    def compact(self, policy=None):
        """Merge-mode compaction + retention gc on every shard chain."""
        from repro.storage.compaction import RetentionPolicy
        compactor = ShardedChainCompactor(
            self, policy if policy is not None else RetentionPolicy())
        return compactor.run_once()

    def storage_bytes(self) -> dict[str, int]:
        totals = {"full": 0, "diff": 0}
        for sub in self.shard_stores:
            for kind, nbytes in sub.storage_bytes().items():
                totals[kind] += nbytes
        return totals

    @property
    def quarantined(self) -> list[str]:
        return [
            shard_prefix(shard) + key
            for shard, sub in enumerate(self.shard_stores)
            for key in sub.quarantined
        ]


# Recovery ------------------------------------------------------------------
def _load_sharded_base(store: ShardedCheckpointStore, model, optimizer):
    """Load the newest full checkpoint that is committed in every shard
    *and* verifiable in every shard.

    A shard record failing its integrity check is quarantined (in its
    shard store) and the next older common step is tried — the sharded
    analogue of the unsharded newest-verifiable-full walk.
    """
    from repro.core.recovery import _UNREADABLE
    from repro.storage.serializer import CorruptCheckpointError
    views = store.fulls()
    if not views:
        raise FileNotFoundError("no full checkpoint available for recovery")
    skipped = 0
    for view in reversed(views):
        shard_states = []
        readable = True
        for shard, record in enumerate(view.records):
            try:
                model_state, opt_state, _ = \
                    store.shard_stores[shard].load_full(record)
            except _UNREADABLE:
                store.shard_stores[shard].quarantine(record)
                skipped += 1
                readable = False
                break
            shard_states.append((model_state, opt_state))
        if not readable:
            continue
        model_state, optimizer_state = store.layout.assemble_full(shard_states)
        model.load_state_dict(model_state)
        optimizer.load_state_dict(optimizer_state)
        return view.step, skipped
    raise CorruptCheckpointError(
        f"no verifiable sharded full checkpoint: all {len(views)} committed "
        "candidates failed integrity checks")


def sharded_serial_recover(store: ShardedCheckpointStore, model, optimizer):
    """Replay the committed sharded chain record by record.

    Each chain position reassembles its ``S`` shard payloads into the
    original payload bit-exactly, so the restored state is bit-identical
    to :func:`repro.core.recovery.serial_recover` over the unsharded
    series of the same run.
    """
    from repro.core.recovery import (
        RecoveryResult,
        _apply_payload,
        _ReplayScratch,
        _UNREADABLE,
    )
    recover_t0 = time.perf_counter()
    with obs_span("recover.load_full_sharded", "recovery",
                  {"shards": store.shards}):
        full_step, fulls_skipped = _load_sharded_base(store, model, optimizer)
    loaded = 0
    gradients = 0
    truncated = 0
    scratch = _ReplayScratch()
    for view in store.diffs_after(full_step):
        shard_payloads = []
        readable = True
        for shard, record in enumerate(view.records):
            try:
                shard_payloads.append(store.shard_stores[shard].load_diff(record))
            except _UNREADABLE:
                store.shard_stores[shard].quarantine(record)
                truncated = 1
                readable = False
                break
        if not readable:
            break
        payload = store.layout.assemble_payload(shard_payloads)
        with obs_span("recover.replay_diff", "recovery",
                      {"start": view.start, "end": view.end,
                       "count": view.count}):
            _apply_payload(model, optimizer, payload, scratch)
        if view.count > 1:
            optimizer.step_count += view.count - 1
        gradients += view.count
        loaded += 1
    if OBS.enabled:
        OBS.registry.counter("ckpt.shard.recover.serial.runs").inc()
        OBS.registry.observe("ckpt.shard.recover.serial.s",
                             time.perf_counter() - recover_t0)
    return RecoveryResult(
        step=optimizer.step_count,
        full_step=full_step,
        diffs_loaded=loaded,
        gradients_replayed=gradients,
        merge_ops=0,
        merge_depth=0,
        apply_ops=loaded,
        corrupt_fulls_skipped=fulls_skipped,
        corrupt_diffs_skipped=truncated,
    )


def _merge_shard_chain(payloads: list[SparseGradient]):
    """Balanced pairwise merge tree over one shard's chain — the same tree
    shape as the unsharded :func:`parallel_recover`, so every coordinate's
    fp32 fold order (and thus rounding) is identical."""
    level = payloads
    merge_ops = 0
    depth = 0
    while len(level) > 1:
        pairs = [(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        next_level = [left.add(right) for left, right in pairs]
        merge_ops += len(pairs)
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
        depth += 1
    return level[0], merge_ops, depth


def sharded_parallel_recover(store: ShardedCheckpointStore, model, optimizer,
                             max_workers: int | None = None):
    """Per-shard merge trees in parallel, one union, one application.

    Every coordinate lives in exactly one shard, and each shard's tree
    has the same leaf count (and therefore shape) as the unsharded tree —
    so the union of the per-shard merge results is bit-identical to the
    unsharded merged payload, and the single ``step_with`` application
    restores exactly the same state.  Shard merges fan out over up to
    ``shard_concurrency`` threads (reads stay sequential per shard store;
    the union-add kernels release the GIL).
    """
    from repro.core.recovery import (
        RecoveryResult,
        _apply_payload,
        _ReplayScratch,
        _UNREADABLE,
    )
    recover_t0 = time.perf_counter()
    with obs_span("recover.load_full_sharded", "recovery",
                  {"shards": store.shards}):
        full_step, fulls_skipped = _load_sharded_base(store, model, optimizer)
    chain = store.diffs_after(full_step)
    truncated = 0
    # Sequential, shard-major reads (deterministic under fault injection);
    # a shard failing at position i truncates the whole chain there.
    limit = len(chain)
    per_shard: list[list[SparseGradient]] = []
    for shard in range(store.shards):
        sub = store.shard_stores[shard]
        payloads: list[SparseGradient] = []
        for position in range(limit):
            record = chain[position].records[shard]
            try:
                payloads.append(sub.load_diff(record))
            except _UNREADABLE:
                sub.quarantine(record)
                truncated = 1
                limit = position
                break
        per_shard.append(payloads)
    chain = chain[:limit]
    per_shard = [payloads[:limit] for payloads in per_shard]
    if not chain:
        return RecoveryResult(
            step=optimizer.step_count, full_step=full_step, diffs_loaded=0,
            gradients_replayed=0, merge_ops=0, merge_depth=0, apply_ops=0,
            corrupt_fulls_skipped=fulls_skipped,
            corrupt_diffs_skipped=truncated,
        )
    gradients = sum(view.count for view in chain)
    if max_workers is None:
        max_workers = store.shard_concurrency
    with obs_span("recover.merge_shards", "recovery",
                  {"shards": store.shards, "chain": len(chain)}):
        if max_workers > 1 and store.shards > 1:
            with ThreadPoolExecutor(
                    max_workers=min(max_workers, store.shards)) as pool:
                merged_shards = list(pool.map(_merge_shard_chain, per_shard))
        else:
            merged_shards = [_merge_shard_chain(p) for p in per_shard]
    merge_ops = sum(ops for _, ops, _ in merged_shards)
    depth = max(d for _, _, d in merged_shards)
    merged = store.layout.assemble_payload([m for m, _, _ in merged_shards])
    with obs_span("recover.apply_merged", "recovery",
                  {"gradients": gradients}):
        scratch = _ReplayScratch()
        optimizer.step_with(merged.decompress_into(scratch.buffers_for(merged)))
        optimizer.step_count += gradients - 1
    if OBS.enabled:
        OBS.registry.counter("ckpt.shard.recover.parallel.runs").inc()
        OBS.registry.observe("ckpt.shard.recover.parallel.s",
                             time.perf_counter() - recover_t0)
    return RecoveryResult(
        step=optimizer.step_count,
        full_step=full_step,
        diffs_loaded=len(chain),
        gradients_replayed=gradients,
        merge_ops=merge_ops,
        merge_depth=depth,
        apply_ops=1,
        corrupt_fulls_skipped=fulls_skipped,
        corrupt_diffs_skipped=truncated,
    )


def elastic_restore(store: ShardedCheckpointStore, trainer,
                    parallel: bool = False,
                    max_workers: int | None = None):
    """Restore a sharded checkpoint onto a trainer of *any* world size.

    The stable global index space makes the persisted series world-size-
    independent: the shard partition re-derives from the layout alone, so
    a checkpoint written at world size N recovers bit-exactly onto world
    size M.  The trainer's ``load_state`` then fans the assembled state
    out to every replica (the ZeRO trainer additionally re-partitions
    parameter ownership over its own active ranks).
    """
    model, optimizer = trainer.model, trainer.optimizer
    if parallel:
        result = sharded_parallel_recover(store, model, optimizer,
                                          max_workers=max_workers)
    else:
        result = sharded_serial_recover(store, model, optimizer)
    trainer.load_state(model.state_dict(), optimizer.state_dict(),
                       iteration=result.step)
    return result


# Persistence engines, fanned out per shard ---------------------------------
class ShardedPersistGroup:
    """One async persistence engine per shard behind the persist-target API.

    ``save_full``/``save_diff`` slice on the submitting thread (the
    engine copies full slices into its stager slots at submit, so the
    slices' view lifetime ends inside the call) and fan the shard records
    out to the per-shard engines; commit order *within* a shard is the
    engine's usual submission-order turnstile, and cross-shard skew is
    harmless because readers only trust the manifest intersection.
    """

    def __init__(self, store: ShardedCheckpointStore,
                 writer_threads: int = 2, queue_depth: int = 8):
        from repro.storage.async_engine import AsyncCheckpointEngine
        self.store = store
        self.engines = [
            AsyncCheckpointEngine(sub, num_writers=writer_threads,
                                  queue_depth=queue_depth)
            for sub in store.shard_stores
        ]

    def save_full(self, step: int, model_state: dict, optimizer_state: dict,
                  extra: dict | None = None) -> list:
        layout = self.store.ensure_layout(
            {name: np.asarray(v).shape for name, v in model_state.items()})
        pending = []
        for shard, engine in enumerate(self.engines):
            shard_model, shard_opt = layout.slice_full(
                model_state, optimizer_state, shard)
            pending.append(engine.save_full(
                step, shard_model, shard_opt, extra if shard == 0 else None))
        return pending

    def save_diff(self, start: int, end: int, payload,
                  count: int | None = None) -> list:
        if not isinstance(payload, SparseGradient):
            raise TypeError(
                "sharded stores persist sparse differential payloads only "
                f"(got {type(payload).__name__})")
        layout = self.store.ensure_layout(payload.shapes)
        return [
            engine.save_diff(start, end, layout.slice_payload(payload, shard),
                             count=count)
            for shard, engine in enumerate(self.engines)
        ]

    # Lifecycle (fan-out of the engine contract) ----------------------------
    def drain(self, timeout: float | None = None) -> None:
        for engine in self.engines:
            engine.drain(timeout=timeout)

    def finalize(self, timeout: float | None = None) -> None:
        for engine in self.engines:
            engine.finalize(timeout=timeout)

    def abort(self) -> None:
        for engine in self.engines:
            engine.abort()

    def raise_if_failed(self) -> None:
        for engine in self.engines:
            engine.raise_if_failed()

    def stats(self) -> dict:
        return {"shards": [engine.stats() for engine in self.engines]}


class ShardedChainCompactor:
    """Coordinated per-shard merge compaction.

    Merge mode only: rebase replays the chain through a full optimizer,
    which no single shard holds.  The trigger is evaluated against the
    **common** chain, and a triggered pass drains *all* engines before
    compacting *every* shard — per-shard independent triggers would
    diverge under async commit skew (shard A's queue commits record *k*
    before shard B's, A compacts one record early, and the merged ranges
    never line up again, truncating the readable chain at the split).
    After a group drain every shard holds the identical record sequence,
    so the same policy produces the identical merge runs on each and the
    chains stay aligned.
    """

    def __init__(self, store: ShardedCheckpointStore, policy,
                 engine: ShardedPersistGroup | None = None):
        from repro.storage.compaction import ChainCompactor
        self.store = store
        self.policy = policy
        self.group = engine
        buffer_pools = [getattr(e, "buffers", None) for e in engine.engines] \
            if engine is not None else [None] * store.shards
        # Sub-compactors get no engine: the group drain above replaces the
        # per-shard drain (draining inside one shard's pass while siblings
        # still queue is exactly the skew this class exists to prevent).
        self.compactors = [
            ChainCompactor(sub, policy, mode="merge", buffers=pool)
            for sub, pool in zip(store.shard_stores, buffer_pools)
        ]

    def _common_chain_records(self) -> int:
        latest = self.store.latest_full()
        if latest is None:
            return 0
        return len(self.store.diffs_after(latest.step))

    def should_compact(self) -> bool:
        budget = self.policy.chain_budget()
        return budget is not None and self._common_chain_records() > budget

    def enforce(self) -> list | None:
        """Drain all shards, then compact all shards iff over budget."""
        if self.group is not None:
            self.group.drain()
        if not self.should_compact():
            return None
        return self.run_once()

    def maybe_enforce(self) -> list | None:
        """Hot-path trigger: peek the common chain before paying for a
        group drain (the committed view only undercounts in-flight
        writes, so this never compacts early)."""
        if not self.should_compact():
            return None
        return self.enforce()

    def run_once(self) -> list:
        reports = [compactor.run_once() for compactor in self.compactors]
        if OBS.enabled:
            OBS.registry.counter("ckpt.shard.compact.passes").inc()
        return reports
