"""Checkpoint store: full + differential series over a storage backend.

Manages the on-storage layout the recovery process reads:

* ``full/<step>.ckpt`` — full model state (parameters + optimizer), the
  ``C^F`` of Eq. (2);
* ``diff/<start>_<end>.ckpt`` — one (possibly batched) differential
  checkpoint covering optimizer steps ``start..end`` inclusive, the
  ``C^D``/``C^B`` of §IV;
* ``manifest.json`` — the index, updated atomically after each write, so
  a crash between data write and manifest update leaves the previous
  consistent view (write-ahead of data, commit via manifest);
* ``quarantine/...`` — blobs that failed an integrity check, moved aside
  (never deleted outright) so a post-mortem can inspect them.

Integrity: every record carries the CRC32 of its serialized bytes and the
manifest carries a CRC32 of its own body.  Reads are verified against the
record checksum *and* the container's internal framing; a mismatch raises
:class:`~repro.storage.serializer.CorruptCheckpointError`.  A corrupt or
stale manifest is rebuilt from a key listing instead of being trusted
blindly.

Retention: old fulls and the diffs they anchor can be garbage-collected
once newer fulls exist; ``gc`` also sweeps crash debris (orphaned ``.tmp``
files, backend keys no manifest references).  Long differential chains can
be *compacted* — adjacent diff records merged into consolidated super-diff
records — via :meth:`CheckpointStore.compact` and the policy machinery in
:mod:`repro.storage.compaction`.

Crash-ordering invariant (ARCHITECTURE.md §10): every mutation that
*removes* data commits the shrunk manifest **before** deleting backend
keys, and every mutation that *adds* data writes the blob **before**
committing the manifest that references it.  A crash at any point
therefore leaves either (a) the previous consistent view plus some
unreferenced blobs (swept by ``gc``) or (b) the new consistent view —
never a manifest entry pointing at a missing key.
"""

from __future__ import annotations

import json
import re
import threading
import zlib
from dataclasses import dataclass

from repro.obs import OBS
from repro.storage.backends import StorageBackend
from repro.storage.payload_codec import (
    CODEC_REGISTRY,
    CODEC_TAG,
    UnknownCodecError,
    get_codec,
    logical_nbytes,
    make_codec,
    payload_to_tree,
    tree_to_payload,
)
from repro.storage.serializer import (
    CorruptCheckpointError,
    pack_tree_with_crc,
    unpack_tree,
)

MANIFEST_KEY = "manifest.json"
QUARANTINE_PREFIX = "quarantine/"

_FULL_KEY_RE = re.compile(r"^full/(\d{10})\.ckpt$")
_DIFF_KEY_RE = re.compile(r"^diff/(\d{10})_(\d{10})\.ckpt$")


@dataclass(frozen=True)
class FullCheckpointRecord:
    step: int
    key: str
    nbytes: int
    crc: int = 0  # CRC32 of the serialized bytes; 0 = legacy record, unverified
    codec: str = ""      # payload codec id; "" = uncoded (pre-codec record)
    raw_nbytes: int = 0  # logical payload bytes before encoding; 0 = unknown


@dataclass(frozen=True)
class DiffCheckpointRecord:
    start: int  # first optimizer step covered (inclusive)
    end: int    # last optimizer step covered (inclusive)
    key: str
    nbytes: int
    count: int  # number of gradients accumulated into this diff
    crc: int = 0
    codec: str = ""
    raw_nbytes: int = 0


class CheckpointStore:
    """Full/differential checkpoint series with a checksummed manifest index.

    Parameters
    ----------
    backend:
        The storage backend holding blobs and the manifest.
    codec:
        Optional payload codec applied to every record this store writes:
        a registered codec id (``"lossless"``/``"lossy"``), a
        :class:`~repro.storage.payload_codec.PayloadCodec` instance, or
        ``None`` (default — uncoded, byte-identical with earlier
        revisions).  Reads are codec-agnostic: each record's decoder is
        selected from its manifest entry / in-blob tag, so mixed and
        legacy (uncoded) series stay readable regardless of this setting.
    strict_codecs:
        When ``True`` (default), opening a store whose manifest names a
        codec id this build does not register raises a typed
        :class:`~repro.storage.payload_codec.UnknownCodecError`
        immediately — failing at open beats failing mid-recovery.
        ``False`` defers: the ids are collected in ``unknown_codecs``,
        ``verify()`` flags the affected records, and only an actual read
        of one raises.
    """

    def __init__(self, backend: StorageBackend, codec=None,
                 strict_codecs: bool = True):
        self.backend = backend
        self.codec = make_codec(codec)
        self.strict_codecs = bool(strict_codecs)
        #: Codec ids named by manifest records that this build does not
        #: register (populated when ``strict_codecs=False``).
        self.unknown_codecs: list[str] = []
        #: Serializes every manifest-mutating operation (saves, gc,
        #: compaction, repair).  Without it, ``gc(purge_unreferenced=True)``
        #: on the training thread can list keys while an async-engine
        #: writer sits between its blob write and its manifest commit —
        #: and purge the blob the manifest is about to reference.
        self._mutation_lock = threading.RLock()
        self._fulls: list[FullCheckpointRecord] = []
        self._diffs: list[DiffCheckpointRecord] = []
        #: Keys moved to quarantine over this store's lifetime.
        self.quarantined: list[str] = []
        #: True if the manifest had to be rebuilt from a key listing.
        self.manifest_rebuilt = False
        if backend.exists(MANIFEST_KEY):
            try:
                self._load_manifest()
            except (CorruptCheckpointError, ValueError, KeyError, TypeError,
                    json.JSONDecodeError, UnicodeDecodeError):
                self._rebuild_manifest_from_keys()
            else:
                self._drop_stale_records()
        elif backend.list_keys("full/") or backend.list_keys("diff/"):
            # Data without an index (manifest lost to a crash or tier
            # failure): reconstruct it rather than silently starting over.
            self._rebuild_manifest_from_keys()
        self._check_record_codecs()

    # Codec ----------------------------------------------------------------
    def set_codec(self, codec, error_bound: float | None = None) -> None:
        """Switch the codec applied to subsequent writes (reads are
        unaffected — they always follow each record's own codec id)."""
        self.codec = make_codec(codec, error_bound=error_bound)

    def _check_record_codecs(self) -> None:
        unknown = sorted({r.codec for r in self._fulls + self._diffs
                          if r.codec and r.codec not in CODEC_REGISTRY})
        self.unknown_codecs = unknown
        if unknown and self.strict_codecs:
            hit = [r.key for r in self._fulls + self._diffs
                   if r.codec == unknown[0]]
            raise UnknownCodecError(
                unknown[0],
                f"manifest references {len(hit)} record(s), e.g. {hit[0]}")

    def encode_record_tree(self, tree: dict, kind: str,
                            pre_encoded: bool = False):
        """Apply the store codec to a record tree before packing.

        Returns ``(tree, codec_id, raw_nbytes)``.  ``kind`` is ``"full"``
        or ``"diff"``; only diff payloads ever see a lossy codec's
        stateful quantization stage, and ``pre_encoded=True`` skips it
        (async-engine submissions quantize in chain order at submit time;
        compaction re-encodes already-quantized merges without adding a
        second round of error).
        """
        codec = self.codec
        if codec is None:
            return tree, "", 0
        raw_nbytes = logical_nbytes(tree)
        if kind == "diff" and codec.lossy and not pre_encoded:
            tree = dict(tree)
            tree["payload"] = codec.pre_encode_diff_tree(tree["payload"])
        return codec.encode_tree(tree), codec.codec_id, raw_nbytes

    @staticmethod
    def _count_storage_bytes(kind: str, encoded_nbytes: int,
                             raw_nbytes: int) -> None:
        """`storage.bytes.*` counters: raw (logical payload) vs encoded
        (container on disk) bytes per committed record."""
        if not OBS.enabled:
            return
        raw = raw_nbytes if raw_nbytes else encoded_nbytes
        OBS.registry.counter("storage.bytes.raw").inc(raw)
        OBS.registry.counter("storage.bytes.encoded").inc(encoded_nbytes)
        OBS.registry.counter(f"storage.bytes.{kind}.raw").inc(raw)
        OBS.registry.counter(
            f"storage.bytes.{kind}.encoded").inc(encoded_nbytes)

    # Manifest ------------------------------------------------------------
    @staticmethod
    def _manifest_body(fulls, diffs) -> bytes:
        return json.dumps(
            {"fulls": [vars(rec) for rec in fulls],
             "diffs": [vars(rec) for rec in diffs]},
            separators=(",", ":"), sort_keys=True,
        ).encode()

    def _load_manifest(self) -> None:
        raw = self.backend.read(MANIFEST_KEY)
        manifest = json.loads(raw.decode())
        fulls = [FullCheckpointRecord(**rec) for rec in manifest["fulls"]]
        diffs = [DiffCheckpointRecord(**rec) for rec in manifest["diffs"]]
        if "crc" in manifest:
            body = self._manifest_body(fulls, diffs)
            if zlib.crc32(body) != manifest["crc"]:
                raise CorruptCheckpointError("manifest failed CRC check")
        self._fulls = fulls
        self._diffs = diffs

    def _commit_manifest(self) -> None:
        body = self._manifest_body(self._fulls, self._diffs)
        manifest = json.loads(body.decode())
        manifest["crc"] = zlib.crc32(body)
        self.backend.write(MANIFEST_KEY, json.dumps(manifest).encode())

    def _drop_stale_records(self) -> None:
        """Drop manifest entries whose backing key no longer exists.

        A manifest can outlive its data (partial restore, tier loss,
        manual deletion); trusting such an entry would crash recovery or
        replay a hole.  Dropping it here means ``diffs_after`` sees the
        gap and truncates the chain honestly.
        """
        fulls = [r for r in self._fulls if self.backend.exists(r.key)]
        diffs = [r for r in self._diffs if self.backend.exists(r.key)]
        if len(fulls) != len(self._fulls) or len(diffs) != len(self._diffs):
            self._fulls, self._diffs = fulls, diffs
            self._commit_manifest()

    def _rebuild_manifest_from_keys(self) -> None:
        """Reconstruct the index by scanning and validating actual keys.

        Every blob is read and integrity-checked; corrupt blobs are
        quarantined rather than re-indexed.  Transient read errors leave
        the key out of the rebuilt manifest (it can be re-indexed by a
        later rebuild) without destroying it.
        """
        self.manifest_rebuilt = True
        fulls: list[FullCheckpointRecord] = []
        diffs: list[DiffCheckpointRecord] = []
        for key in self.backend.list_keys():
            full_match = _FULL_KEY_RE.match(key)
            diff_match = _DIFF_KEY_RE.match(key)
            if not full_match and not diff_match:
                continue
            try:
                data = self.backend.read(key)
                tree = unpack_tree(data)
                # Codecs only transform array leaves, so the scalar
                # metadata (step/start/end/count) survives encoding and
                # the in-blob tag recovers each record's codec id.
                codec_id = str(tree.get(CODEC_TAG, ""))
                if full_match:
                    fulls.append(FullCheckpointRecord(
                        step=int(tree["step"]), key=key, nbytes=len(data),
                        crc=zlib.crc32(data), codec=codec_id))
                else:
                    diffs.append(DiffCheckpointRecord(
                        start=int(tree["start"]), end=int(tree["end"]), key=key,
                        nbytes=len(data), count=int(tree["count"]),
                        crc=zlib.crc32(data), codec=codec_id))
            except (CorruptCheckpointError, KeyError, TypeError):
                self._quarantine_key(key)
            except OSError:
                continue
        fulls.sort(key=lambda r: r.step)
        diffs.sort(key=lambda r: (r.start, r.end))
        self._fulls, self._diffs = fulls, diffs
        self._commit_manifest()

    # Quarantine ------------------------------------------------------------
    def _quarantine_key(self, key: str) -> None:
        try:
            self.backend.write(QUARANTINE_PREFIX + key, self.backend.read(key))
        except OSError:
            pass  # unreadable or quarantine tier down: removal still proceeds
        self.backend.delete(key)
        self.quarantined.append(key)

    def quarantine(self, record: FullCheckpointRecord | DiffCheckpointRecord
                   ) -> None:
        """Move a record's blob to quarantine and drop it from the index.

        Called by the recovery path when a blob fails verification; the
        bytes are preserved under ``quarantine/`` for post-mortems while
        the record disappears from the replayable series.

        Ordering: copy aside, commit the pruned manifest, *then* delete
        the original — a crash mid-quarantine never leaves the manifest
        referencing a missing key.  If the manifest commit itself fails
        (storage refusing writes must not abort a recovery) the original
        blob is left in place for the same reason.
        """
        with self._mutation_lock:
            try:
                self.backend.write(QUARANTINE_PREFIX + record.key,
                                   self.backend.read(record.key))
            except OSError:
                pass  # unreadable or quarantine tier down: removal proceeds
            if isinstance(record, FullCheckpointRecord):
                self._fulls = [r for r in self._fulls if r.key != record.key]
            else:
                self._diffs = [r for r in self._diffs if r.key != record.key]
            committed = True
            try:
                self._commit_manifest()
            except OSError:
                committed = False
            if committed:
                self.backend.delete(record.key)
            self.quarantined.append(record.key)

    # Saving ------------------------------------------------------------------
    @staticmethod
    def full_tree(step: int, model_state: dict, optimizer_state: dict,
                  extra: dict | None = None) -> dict:
        """The serializable tree of a full checkpoint (shared with the
        async engine, whose workers pack it off-thread)."""
        return {
            "step": int(step),
            "model": model_state,
            "optimizer": optimizer_state,
            "extra": extra or {},
        }

    @staticmethod
    def diff_tree(start: int, end: int, count: int, payload_tree) -> dict:
        """The serializable tree of a differential record."""
        return {
            "start": int(start),
            "end": int(end),
            "count": int(count),
            "payload": payload_tree,
        }

    def save_full(self, step: int, model_state: dict, optimizer_state: dict,
                  extra: dict | None = None) -> FullCheckpointRecord:
        """Persist a full checkpoint ``C^F`` at optimizer step ``step``.

        ``step`` means: this state is the result of ``step`` optimizer
        updates; replaying diff ``step+1`` on it advances to ``step+1``.
        """
        tree, codec_id, raw_nbytes = self.encode_record_tree(
            self.full_tree(step, model_state, optimizer_state, extra), "full")
        data, crc = pack_tree_with_crc(tree)
        return self.save_full_bytes(step, data, crc, codec=codec_id,
                                    raw_nbytes=raw_nbytes)

    def save_full_bytes(self, step: int, data, crc: int, codec: str = "",
                        raw_nbytes: int = 0) -> FullCheckpointRecord:
        """Persist an already-serialized full checkpoint.

        ``data`` is the packed container (bytes or memoryview) and ``crc``
        its CRC32, both produced by the serializer's single packing pass —
        this is the commit stage of the async persistence engine, and the
        point at which the record becomes visible in the manifest.
        """
        key = f"full/{step:010d}.ckpt"
        with self._mutation_lock:
            self.backend.write(key, data)
            record = FullCheckpointRecord(step=int(step), key=key,
                                          nbytes=len(data),
                                          crc=crc & 0xFFFFFFFF,
                                          codec=codec,
                                          raw_nbytes=int(raw_nbytes))
            self._fulls = [r for r in self._fulls if r.step != step] + [record]
            self._fulls.sort(key=lambda r: r.step)
            self._commit_manifest()
        self._count_storage_bytes("full", len(data), raw_nbytes)
        return record

    def save_diff(self, start: int, end: int, payload, count: int | None = None
                  ) -> DiffCheckpointRecord:
        """Persist a (batched) differential checkpoint covering steps [start, end].

        A diff whose range overlaps an existing record *without being equal
        to it* is rejected: the contiguous-chain logic of ``diffs_after``
        assumes ranges partition the step axis, and an inconsistent
        overlap (e.g. ``[5,8]`` coexisting with ``[6,7]``) would make the
        replay chain ambiguous.  Re-writing the exact same range replaces
        the previous record (the legitimate retry/resume path).
        """
        resolved_count = int(count if count is not None else end - start + 1)
        tree, codec_id, raw_nbytes = self.encode_record_tree(
            self.diff_tree(start, end, resolved_count,
                           payload_to_tree(payload)), "diff")
        data, crc = pack_tree_with_crc(tree)
        return self.save_diff_bytes(start, end, resolved_count, data, crc,
                                    codec=codec_id, raw_nbytes=raw_nbytes)

    def save_diff_bytes(self, start: int, end: int, count: int, data, crc: int,
                        codec: str = "", raw_nbytes: int = 0
                        ) -> DiffCheckpointRecord:
        """Persist an already-serialized diff covering ``[start, end]``.

        Commit stage of the async persistence engine; range validation and
        manifest visibility happen here, after serialization (which may
        have run on a writer thread).
        """
        if end < start:
            raise ValueError(f"diff range invalid: start={start} end={end}")
        with self._mutation_lock:
            for existing in self._diffs:
                if (existing.start, existing.end) != (start, end) \
                        and start <= existing.end and end >= existing.start:
                    raise ValueError(
                        f"diff range [{start},{end}] overlaps existing record "
                        f"[{existing.start},{existing.end}] inconsistently"
                    )
            key = f"diff/{start:010d}_{end:010d}.ckpt"
            self.backend.write(key, data)
            record = DiffCheckpointRecord(
                start=int(start), end=int(end), key=key, nbytes=len(data),
                count=int(count), crc=crc & 0xFFFFFFFF,
                codec=codec, raw_nbytes=int(raw_nbytes),
            )
            self._diffs = [
                r for r in self._diffs if (r.start, r.end) != (start, end)
            ] + [record]
            self._diffs.sort(key=lambda r: (r.start, r.end))
            self._commit_manifest()
        self._count_storage_bytes("diff", len(data), raw_nbytes)
        return record

    def latest_full(self) -> FullCheckpointRecord | None:
        return self._fulls[-1] if self._fulls else None

    def fulls(self) -> list[FullCheckpointRecord]:
        return list(self._fulls)

    def diffs(self) -> list[DiffCheckpointRecord]:
        return list(self._diffs)

    def diffs_after(self, step: int) -> list[DiffCheckpointRecord]:
        """Diff records strictly after optimizer step ``step``, in replay order.

        Only returns a *contiguous* chain starting at ``step + 1``; a gap
        (e.g. a diff lost to a failure) truncates the chain, because
        replaying past a gap would corrupt the state.
        """
        chain = []
        next_start = step + 1
        for record in self._diffs:
            if record.end <= step:
                continue
            if record.start == next_start:
                chain.append(record)
                next_start = record.end + 1
            elif record.start > next_start:
                break
        return chain

    def read_raw(self, record) -> bytes:
        """Fetch a record's raw bytes with no verification.

        Split out so parallel recovery can keep backend reads sequential
        (backends are not required to be thread-safe, and fault-injecting
        ones are deterministic only under a fixed read order) while the
        CPU-bound verify/decode work fans out to threads via
        :meth:`decode_full`/:meth:`decode_diff`.
        """
        return self.backend.read(record.key)

    @staticmethod
    def _check_crc(record, data) -> None:
        if record.crc and zlib.crc32(data) != record.crc:
            raise CorruptCheckpointError(
                f"checkpoint {record.key} failed manifest CRC check"
            )

    @staticmethod
    def _codec_decode(record, tree: dict) -> dict:
        """Auto-select the decoder for a record's tree.

        The in-blob ``__codec__`` tag wins (self-describing blobs survive
        manifest rebuilds); the manifest record's ``codec`` field is the
        fallback.  Uncoded/legacy trees pass through untouched.  An
        unregistered id raises the typed :class:`UnknownCodecError`; any
        other decode failure is corruption (the CRC passed, the content
        did not) and raises :class:`CorruptCheckpointError` so recovery's
        quarantine-and-fall-back path applies.
        """
        codec_id = tree.get(CODEC_TAG) or getattr(record, "codec", "") or ""
        if not codec_id:
            return tree
        codec = get_codec(codec_id, context=f"record {record.key}")
        try:
            return codec.decode_tree(tree)
        except (ValueError, KeyError, TypeError, OverflowError,
                zlib.error) as err:
            raise CorruptCheckpointError(
                f"checkpoint {record.key} failed {codec_id} codec decode: "
                f"{err}") from err

    @classmethod
    def decode_full(cls, record: FullCheckpointRecord, data
                    ) -> tuple[dict, dict, int]:
        """Verify + deserialize raw full-checkpoint bytes (thread-safe)."""
        cls._check_crc(record, data)
        tree = cls._codec_decode(record, unpack_tree(data))
        return tree["model"], tree["optimizer"], int(tree["step"])

    @classmethod
    def decode_diff(cls, record: DiffCheckpointRecord, data):
        """Verify + deserialize raw diff bytes (thread-safe)."""
        cls._check_crc(record, data)
        tree = cls._codec_decode(record, unpack_tree(data))
        return tree_to_payload(tree["payload"])

    def _read_verified(self, record) -> bytes:
        data = self.read_raw(record)
        self._check_crc(record, data)
        return data

    def load_full(self, record: FullCheckpointRecord) -> tuple[dict, dict, int]:
        return self.decode_full(record, self.read_raw(record))

    def load_diff(self, record: DiffCheckpointRecord):
        return self.decode_diff(record, self.read_raw(record))

    # Verification -------------------------------------------------------------
    def verify(self, deep: bool = True, repair: bool = False) -> dict:
        """Audit every record against storage.

        ``deep=True`` reads each blob, checks CRCs and decodes through the
        record's codec; ``deep=False`` only checks existence (and codec
        availability).  ``repair=True`` quarantines corrupt blobs and
        drops missing records from the manifest.  Returns a report dict
        with ``checked``/``missing``/``corrupt``/``unknown_codec``
        entries.  A record naming an unregistered codec is *flagged*, not
        treated as corrupt: the blob is intact, this build just cannot
        read it — so ``repair`` leaves it in place.
        """
        report = {"checked": 0, "missing": [], "corrupt": [],
                  "unknown_codec": []}
        for record in list(self._fulls) + list(self._diffs):
            report["checked"] += 1
            if not self.backend.exists(record.key):
                report["missing"].append(record.key)
                continue
            if record.codec and record.codec not in CODEC_REGISTRY:
                report["unknown_codec"].append(record.key)
                continue
            if not deep:
                continue
            try:
                self._codec_decode(record,
                                   unpack_tree(self._read_verified(record)))
            except FileNotFoundError:
                report["missing"].append(record.key)
            except UnknownCodecError:
                # In-blob tag names a codec the manifest did not (e.g. a
                # rebuilt manifest predating the codec column): flag it.
                report["unknown_codec"].append(record.key)
            except (CorruptCheckpointError, KeyError, TypeError):
                report["corrupt"].append(record.key)
        if repair and (report["missing"] or report["corrupt"]):
            with self._mutation_lock:
                corrupt = set(report["corrupt"])
                for record in list(self._fulls) + list(self._diffs):
                    if record.key in corrupt:
                        self.quarantine(record)
                missing = set(report["missing"])
                if missing:
                    self._fulls = [r for r in self._fulls
                                   if r.key not in missing]
                    self._diffs = [r for r in self._diffs
                                   if r.key not in missing]
                    self._commit_manifest()
        return report

    # Retention -----------------------------------------------------------------
    def gc(self, keep_fulls: int = 2, purge_unreferenced: bool = True) -> int:
        """Delete fulls beyond the newest ``keep_fulls`` and orphaned diffs.

        Returns the number of objects deleted.  Diffs at or before the
        oldest retained full's step are unreachable (recovery always
        starts from a retained full) and are removed.  Crash debris is
        also swept: orphaned ``.tmp`` files and (when
        ``purge_unreferenced``) ``full/``/``diff/`` keys the manifest does
        not reference — both are left behind by writes a crash interrupted
        between data write and manifest commit.

        Ordering: the pruned manifest commits **before** any backend key
        is deleted.  A crash inside the delete loop leaves already-pruned
        (now unreferenced) blobs behind — swept by the next ``gc`` — but
        never a manifest entry referencing a deleted key.
        """
        if keep_fulls < 1:
            raise ValueError(f"keep_fulls must be >= 1, got {keep_fulls}")
        with self._mutation_lock:
            drop: list = []
            if len(self._fulls) > keep_fulls:
                drop.extend(self._fulls[:-keep_fulls])
                self._fulls = self._fulls[-keep_fulls:]
            if self._fulls:
                horizon = self._fulls[0].step
                keep = [r for r in self._diffs if r.end > horizon]
                drop.extend(r for r in self._diffs if r.end <= horizon)
                self._diffs = keep
            if drop:
                self._commit_manifest()  # manifest-first, then delete
            deleted = 0
            for record in drop:
                self.backend.delete(record.key)
                deleted += 1
            deleted += self.backend.purge_debris()
            if purge_unreferenced:
                referenced = {r.key for r in self._fulls}
                referenced.update(r.key for r in self._diffs)
                for prefix in ("full/", "diff/"):
                    for key in self.backend.list_keys(prefix):
                        if key not in referenced:
                            self.backend.delete(key)
                            deleted += 1
        return deleted

    # Compaction ----------------------------------------------------------------
    def replace_diff_run(self, run: list[DiffCheckpointRecord], data, crc: int,
                         count: int | None = None, codec: str = "",
                         raw_nbytes: int = 0) -> DiffCheckpointRecord:
        """Atomically swap a contiguous run of diff records for one super-diff.

        ``data``/``crc`` are the serialized consolidated record covering
        exactly ``[run[0].start, run[-1].end]``.  This bypasses
        :meth:`save_diff_bytes`'s overlap guard (the super-diff's range
        *deliberately* overlaps the singles it replaces) and does the swap
        as manifest surgery with crash-safe ordering:

        1. write the super-diff blob (old view still consistent — the new
           blob is unreferenced debris if we crash here);
        2. commit the manifest with the run's records replaced by the
           super-diff record (the commit point);
        3. delete the replaced blobs (crash here leaves unreferenced
           singles, swept by ``gc``).
        """
        if not run:
            raise ValueError("replace_diff_run requires a non-empty run")
        with self._mutation_lock:
            keys = {r.key for r in self._diffs}
            next_start = run[0].start
            for record in run:
                if record.key not in keys:
                    raise ValueError(
                        f"record {record.key} is not in the manifest")
                if record.start != next_start:
                    raise ValueError(
                        f"run is not contiguous at step {record.start} "
                        f"(expected start {next_start})")
                next_start = record.end + 1
            start, end = run[0].start, run[-1].end
            resolved_count = int(count if count is not None
                                 else sum(r.count for r in run))
            key = f"diff/{start:010d}_{end:010d}.ckpt"
            self.backend.write(key, data)
            record = DiffCheckpointRecord(
                start=int(start), end=int(end), key=key, nbytes=len(data),
                count=resolved_count, crc=crc & 0xFFFFFFFF,
                codec=codec, raw_nbytes=int(raw_nbytes),
            )
            replaced = {r.key for r in run}
            self._diffs = [r for r in self._diffs
                           if r.key not in replaced] + [record]
            self._diffs.sort(key=lambda r: (r.start, r.end))
            self._commit_manifest()
            for old in run:
                if old.key != key:
                    self.backend.delete(old.key)
        return record

    def compact(self, policy=None, *, model_factory=None,
                optimizer_factory=None, mode: str = "auto"):
        """Compact the diff chain under ``policy`` (see
        :mod:`repro.storage.compaction`).

        Convenience wrapper constructing a one-shot
        :class:`~repro.storage.compaction.ChainCompactor`.  Returns its
        :class:`~repro.storage.compaction.CompactionReport`.
        """
        from repro.storage.compaction import ChainCompactor, RetentionPolicy
        compactor = ChainCompactor(
            self, policy if policy is not None else RetentionPolicy(),
            model_factory=model_factory, optimizer_factory=optimizer_factory,
            mode=mode)
        return compactor.run_once()

    # Accounting ---------------------------------------------------------------
    def storage_bytes(self) -> dict[str, int]:
        """Current bytes held by full vs differential checkpoints."""
        return {
            "full": sum(r.nbytes for r in self._fulls),
            "diff": sum(r.nbytes for r in self._diffs),
        }
