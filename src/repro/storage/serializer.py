"""Pickle-free binary serialization for checkpoint trees.

``torch.save`` pickles; pickles are neither portable nor safe to load from
untrusted storage.  This container keeps a JSON manifest describing an
arbitrary tree of dicts/lists/scalars/strings with NumPy arrays stored as
raw little-endian blobs after the manifest:

``[MAGIC 8B][manifest_len u64][total_len u64][manifest_crc u32]``
``[manifest JSON][blob 0][blob 1]...``

Integrity framing (the first line of defense in the resilience subsystem,
see ARCHITECTURE.md §6): ``total_len`` detects torn/truncated writes even
when the surviving prefix still parses, ``manifest_crc`` covers the JSON
index, and every blob carries its own CRC32 + length in the manifest.  Any
mismatch raises :class:`CorruptCheckpointError` — storage rot fails loudly
instead of silently corrupting a recovery.

Two write paths share the same wire format:

* :func:`pack_tree` — allocate-and-return ``bytes`` (the simple path);
* :func:`pack_tree_into` — the zero-copy path the async persistence
  engine uses: array views are memcpy'd straight into a caller-supplied
  (pooled) ``bytearray``, with no per-array ``tobytes()`` intermediates
  and no ``b"".join`` concatenation.

Each blob's CRC32 is computed exactly once; the whole-blob checksum the
store indexes is derived from the per-blob CRCs with
:func:`crc32_combine` (zlib's GF(2) length-shift), never by re-walking
the payload bytes.

Arrays round-trip dtype and shape exactly; the sparse/quantized payload
classes serialize through their constituent arrays.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

MAGIC = b"LOWDIFF2"
#: Previous container revision (no total-length/manifest-CRC framing);
#: still readable so long-lived checkpoint series survive the upgrade.
LEGACY_MAGIC = b"LOWDIFF1"
_HEADER = struct.Struct("<8sQQI")
_LEGACY_HEADER = struct.Struct("<8sQ")

#: dtypes allowed in checkpoints (defensive allow-list for the reader).
_ALLOWED_DTYPES = {
    "float64", "float32", "float16",
    "int64", "int32", "int16", "int8",
    "uint64", "uint32", "uint16", "uint8",
    "bool",
}


class CorruptCheckpointError(ValueError):
    """A checkpoint failed an integrity check (magic, length, or CRC).

    Subclasses :class:`ValueError` so pre-existing callers that caught
    broad decode errors keep working; the recovery path catches this
    specifically to quarantine the blob and fall back.
    """


# CRC32 combination (zlib's crc32_combine, which the stdlib does not
# expose).  combine(crcA, crcB, lenB) == crc32(A + B) given crcA=crc32(A)
# and crcB=crc32(B) — O(log lenB) bit-matrix work instead of re-reading B.

_CRC_POLY = 0xEDB88320


def _gf2_matrix_times(matrix: list[int], vector: int) -> int:
    product = 0
    index = 0
    while vector:
        if vector & 1:
            product ^= matrix[index]
        vector >>= 1
        index += 1
    return product


def _gf2_matrix_square(square: list[int], matrix: list[int]) -> None:
    for n in range(32):
        square[n] = _gf2_matrix_times(matrix, matrix[n])


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC32 of the concatenation ``A+B`` from ``crc32(A)``, ``crc32(B)``,
    ``len(B)`` — without touching the bytes of either part again."""
    if len2 <= 0:
        return crc1 & 0xFFFFFFFF
    even = [0] * 32   # operator for 2^k zero bits
    odd = [0] * 32
    # Operator for one zero bit.
    odd[0] = _CRC_POLY
    row = 1
    for n in range(1, 32):
        odd[n] = row
        row <<= 1
    _gf2_matrix_square(even, odd)   # two zero bits
    _gf2_matrix_square(odd, even)   # four zero bits
    while True:
        _gf2_matrix_square(even, odd)
        if len2 & 1:
            crc1 = _gf2_matrix_times(even, crc1)
        len2 >>= 1
        if not len2:
            break
        _gf2_matrix_square(odd, even)
        if len2 & 1:
            crc1 = _gf2_matrix_times(odd, crc1)
        len2 >>= 1
        if not len2:
            break
    return (crc1 ^ crc2) & 0xFFFFFFFF


def _as_byte_view(array: np.ndarray) -> memoryview:
    """A flat byte view over a contiguous array — no copy."""
    return memoryview(array.reshape(-1)).cast("B")


def _encode(node, blobs: list[np.ndarray]):
    """Convert a tree node to its JSON-able description, collecting blob
    arrays as contiguous views (copies only when the source is not
    already contiguous)."""
    if isinstance(node, np.ndarray):
        dtype = node.dtype.name
        if dtype not in _ALLOWED_DTYPES:
            raise TypeError(f"unsupported array dtype in checkpoint: {dtype}")
        blob_index = len(blobs)
        blobs.append(np.ascontiguousarray(node))
        return {
            "__kind__": "ndarray",
            "dtype": dtype,
            "shape": list(node.shape),
            "blob": blob_index,
        }
    if isinstance(node, (np.integer,)):
        return {"__kind__": "int", "value": int(node)}
    if isinstance(node, (np.floating,)):
        return {"__kind__": "float", "value": float(node)}
    if isinstance(node, dict):
        for key in node:
            if not isinstance(key, str):
                raise TypeError(f"checkpoint dict keys must be str, got {type(key)}")
        return {
            "__kind__": "dict",
            "items": {key: _encode(value, blobs) for key, value in node.items()},
        }
    if isinstance(node, (list, tuple)):
        return {
            "__kind__": "list" if isinstance(node, list) else "tuple",
            "items": [_encode(value, blobs) for value in node],
        }
    if node is None or isinstance(node, (bool, int, float, str)):
        return {"__kind__": "scalar", "value": node}
    raise TypeError(f"cannot serialize object of type {type(node).__name__}")


def _decode(description, blobs: list[memoryview]):
    kind = description["__kind__"]
    if kind == "ndarray":
        dtype = description["dtype"]
        if dtype not in _ALLOWED_DTYPES:
            raise ValueError(f"refusing to load array dtype {dtype}")
        array = np.frombuffer(blobs[description["blob"]], dtype=dtype)
        return array.reshape(description["shape"]).copy()
    if kind == "dict":
        return {key: _decode(val, blobs) for key, val in description["items"].items()}
    if kind == "list":
        return [_decode(val, blobs) for val in description["items"]]
    if kind == "tuple":
        return tuple(_decode(val, blobs) for val in description["items"])
    if kind in ("scalar", "int", "float"):
        return description["value"]
    raise ValueError(f"unknown node kind in checkpoint: {kind}")


def _prepare(tree):
    """Walk the tree once: blob arrays, per-blob CRCs, manifest, total size.

    Returns ``(blobs, manifest_bytes, total_len, blob_crcs)``.  Each
    blob's CRC32 is computed here, exactly once — the manifest embeds it
    and :func:`_whole_crc` combines it; nothing downstream re-reads the
    payload bytes for checksumming.
    """
    blobs: list[np.ndarray] = []
    description = _encode(tree, blobs)
    blob_crcs = [zlib.crc32(_as_byte_view(blob)) for blob in blobs]
    manifest = json.dumps(
        {
            "root": description,
            "blob_sizes": [blob.nbytes for blob in blobs],
            "blob_crcs": blob_crcs,
        },
        separators=(",", ":"),
    ).encode()
    total_len = _HEADER.size + len(manifest) + sum(blob.nbytes for blob in blobs)
    return blobs, manifest, total_len, blob_crcs


def _whole_crc(head_crc: int, blobs: list[np.ndarray], blob_crcs: list[int]) -> int:
    """CRC32 of header+manifest+blobs from already-known per-blob CRCs."""
    crc = head_crc
    for blob, blob_crc in zip(blobs, blob_crcs):
        crc = crc32_combine(crc, blob_crc, blob.nbytes)
    return crc


def pack_tree_into(tree, buffer: bytearray) -> tuple[memoryview, int]:
    """Serialize a checkpoint tree into ``buffer`` — the zero-copy path.

    ``buffer`` is grown (never shrunk) as needed, so a pooled buffer
    converges to the largest checkpoint it has carried and subsequent
    packs allocate nothing.  Array payloads are memcpy'd directly from
    their (contiguous views of) source arrays into the buffer; no
    intermediate ``bytes`` objects are created.

    Returns ``(view, crc)``: a memoryview over the packed bytes inside
    ``buffer`` and the CRC32 of those bytes (the store-level whole-blob
    checksum, derived via :func:`crc32_combine` — the payload is never
    walked a second time).  The buffer must not be resized while the
    returned view is alive; call ``view.release()`` when done.
    """
    blobs, manifest, total_len, blob_crcs = _prepare(tree)
    if len(buffer) < total_len:
        buffer.extend(bytes(total_len - len(buffer)))
    view = memoryview(buffer)
    manifest_end = _HEADER.size + len(manifest)
    _HEADER.pack_into(view, 0, MAGIC, len(manifest), total_len,
                      zlib.crc32(manifest))
    view[_HEADER.size:manifest_end] = manifest
    offset = manifest_end
    for blob in blobs:
        end = offset + blob.nbytes
        view[offset:end] = _as_byte_view(blob)
        offset = end
    head_crc = zlib.crc32(view[:manifest_end])
    return view[:total_len], _whole_crc(head_crc, blobs, blob_crcs)


def pack_tree_with_crc(tree) -> tuple[bytes, int]:
    """Serialize to fresh ``bytes`` plus the whole-blob CRC32.

    The CRC comes from the single packing pass (per-blob CRCs combined),
    so callers that index checkpoints by checksum (the store manifest)
    need no second walk over the data.
    """
    buffer = bytearray()
    view, crc = pack_tree_into(tree, buffer)
    data = bytes(view)
    view.release()
    return data, crc


def pack_tree(tree) -> bytes:
    """Serialize a checkpoint tree to bytes.

    The header frames the payload with its total length and the manifest's
    CRC32; each blob additionally carries a CRC32 in the manifest, verified
    on read.
    """
    return pack_tree_with_crc(tree)[0]


def _parse_header(data):
    """Return ``(header_size, manifest_len, total_len, manifest_crc)``.

    ``total_len``/``manifest_crc`` are ``None`` for the legacy container.
    """
    if len(data) >= _LEGACY_HEADER.size and bytes(data[:8]) == LEGACY_MAGIC:
        _, manifest_len = _LEGACY_HEADER.unpack_from(data, 0)
        return _LEGACY_HEADER.size, manifest_len, None, None
    if len(data) < _HEADER.size:
        raise CorruptCheckpointError("truncated checkpoint: missing header")
    magic, manifest_len, total_len, manifest_crc = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise CorruptCheckpointError(f"bad checkpoint magic {magic!r}")
    return _HEADER.size, manifest_len, total_len, manifest_crc


def unpack_tree(data, verify: bool = True):
    """Deserialize bytes produced by :func:`pack_tree`.

    ``verify=False`` skips CRC verification (e.g. when the backend
    already authenticated the bytes); structural framing (magic, lengths)
    is always enforced.
    """
    if len(data) < _LEGACY_HEADER.size:
        raise CorruptCheckpointError("truncated checkpoint: missing header")
    header_size, manifest_len, total_len, manifest_crc = _parse_header(data)
    if total_len is not None and total_len != len(data):
        raise CorruptCheckpointError(
            f"torn checkpoint: framed length {total_len} != actual {len(data)}"
        )
    manifest_end = header_size + manifest_len
    if len(data) < manifest_end:
        raise CorruptCheckpointError("truncated checkpoint: manifest cut short")
    manifest_bytes = bytes(data[header_size:manifest_end])
    if verify and manifest_crc is not None:
        if zlib.crc32(manifest_bytes) != manifest_crc:
            raise CorruptCheckpointError(
                "checkpoint corruption: manifest failed CRC check"
            )
    try:
        manifest = json.loads(manifest_bytes.decode())
        blob_sizes = manifest["blob_sizes"]
        blob_crcs = manifest.get("blob_crcs")
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as err:
        raise CorruptCheckpointError(f"unreadable checkpoint manifest: {err}") from err
    blobs: list[memoryview] = []
    view = memoryview(data)
    offset = manifest_end
    for index, size in enumerate(blob_sizes):
        if offset + size > len(data):
            raise CorruptCheckpointError("truncated checkpoint: blob cut short")
        blob = view[offset:offset + size]
        if verify and blob_crcs is not None:
            if zlib.crc32(blob) != blob_crcs[index]:
                raise CorruptCheckpointError(
                    f"checkpoint corruption: blob {index} failed CRC check"
                )
        blobs.append(blob)
        offset += size
    try:
        return _decode(manifest["root"], blobs)
    except (KeyError, IndexError, TypeError) as err:
        raise CorruptCheckpointError(f"malformed checkpoint tree: {err}") from err


def serialized_size(tree) -> int:
    """Size in bytes :func:`pack_tree` would produce — computed from the
    manifest pass alone, without copying any blob bytes."""
    return _prepare(tree)[2]


def checksum(data: bytes) -> int:
    """CRC32 over a whole serialized blob (stored in store manifests)."""
    return zlib.crc32(data)
