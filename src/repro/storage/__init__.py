"""Checkpoint storage: serialization, backends, resilience, and the store.

A pickle-free binary container format (JSON manifest + raw array blobs,
CRC-framed), pluggable backends (in-memory, local disk, bandwidth-
throttled, fault-injecting), a resilience layer (retry/backoff, circuit
breaker, tiered fallback), and a :class:`CheckpointStore` managing
full/differential checkpoint series with checksummed manifests, retention,
garbage collection and corruption quarantine.
"""

from repro.storage.serializer import (
    CorruptCheckpointError,
    crc32_combine,
    pack_tree,
    pack_tree_into,
    pack_tree_with_crc,
    unpack_tree,
    serialized_size,
)
from repro.storage.backends import (
    StorageBackend,
    InMemoryBackend,
    LocalDiskBackend,
    ThrottledBackend,
    FlakyBackend,
    ChaosBackend,
    PrefixBackend,
)
from repro.storage.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    ResilientBackend,
    RetryPolicy,
    TieredBackend,
    VirtualClock,
    collect_resilience_stats,
)
from repro.storage.payload_codec import (
    ErrorBoundedLossyCodec,
    LosslessCodec,
    PayloadCodec,
    UnknownCodecError,
    get_codec,
    make_codec,
    register_codec,
)
from repro.storage.checkpoint_store import (
    CheckpointStore,
    FullCheckpointRecord,
    DiffCheckpointRecord,
)
from repro.storage.compaction import (
    ChainCompactor,
    CompactionReport,
    RetentionPolicy,
)
from repro.storage.async_engine import (
    AsyncCheckpointEngine,
    BufferPool,
    DrainTimeout,
    PendingWrite,
    SnapshotStager,
    WriteAborted,
)
from repro.storage.sharded import (
    ShardLayout,
    ShardedChainCompactor,
    ShardedCheckpointStore,
    ShardedDiffView,
    ShardedFullView,
    ShardedPersistGroup,
    elastic_restore,
    sharded_parallel_recover,
    sharded_serial_recover,
)

__all__ = [
    "CorruptCheckpointError",
    "crc32_combine",
    "pack_tree",
    "pack_tree_into",
    "pack_tree_with_crc",
    "unpack_tree",
    "serialized_size",
    "StorageBackend",
    "InMemoryBackend",
    "LocalDiskBackend",
    "ThrottledBackend",
    "FlakyBackend",
    "ChaosBackend",
    "CircuitBreaker",
    "CircuitOpenError",
    "ResilientBackend",
    "RetryPolicy",
    "TieredBackend",
    "VirtualClock",
    "collect_resilience_stats",
    "ErrorBoundedLossyCodec",
    "LosslessCodec",
    "PayloadCodec",
    "UnknownCodecError",
    "get_codec",
    "make_codec",
    "register_codec",
    "CheckpointStore",
    "FullCheckpointRecord",
    "DiffCheckpointRecord",
    "ChainCompactor",
    "CompactionReport",
    "RetentionPolicy",
    "AsyncCheckpointEngine",
    "DrainTimeout",
    "BufferPool",
    "PendingWrite",
    "SnapshotStager",
    "WriteAborted",
    "PrefixBackend",
    "ShardLayout",
    "ShardedChainCompactor",
    "ShardedCheckpointStore",
    "ShardedDiffView",
    "ShardedFullView",
    "ShardedPersistGroup",
    "elastic_restore",
    "sharded_parallel_recover",
    "sharded_serial_recover",
]
