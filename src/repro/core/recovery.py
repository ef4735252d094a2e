"""Recovery from full + differential checkpoints (Algorithm 1 lines 17-24,
and the parallel recovery module of §VI).

Serial recovery loads the latest full checkpoint and replays every stored
differential in order.  Parallel recovery instead merges the differential
payloads pairwise in a binary tree (differential addition is associative:
sparse union-add for reused gradients, plain addition for Naïve-DC state
deltas) and applies the single merged result — ``n-1`` merge operations
arranged at critical-path depth ``ceil(log2 n)`` instead of ``n``
sequential applications (Fig. "Parallel Fast Recovery").

Semantics note (also in DESIGN.md): merging ``k`` gradient payloads and
applying once is exact for linear optimizers (SGD without momentum) and
for state deltas; for Adam it has gradient-accumulation semantics — the
same approximation the batched writer already makes, embraced by the
paper's ``b/2`` lost-work model.

Corruption awareness (ARCHITECTURE.md §6): recovery never trusts a blob
blindly.  The base full is the *newest verifiable* one — corrupt or
missing fulls are quarantined and the next older tried; the differential
chain is replayed only up to the first unreadable record (a mid-chain
loss truncates, never skips).  Recovery therefore degrades to an older
bit-exact state instead of crashing or silently loading garbage.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

from repro.compression.sparse import DenseScratch
from repro.core.differential import StateDelta, apply_state_delta
from repro.obs import OBS, span as obs_span
from repro.optim.optimizer import Optimizer
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.serializer import CorruptCheckpointError
from repro.tensor.module import Module

#: Load failures recovery can route around by falling back/truncating.
_UNREADABLE = (CorruptCheckpointError, FileNotFoundError, KeyError, TypeError)


@dataclass
class RecoveryResult:
    """What recovery restored and what it cost."""

    step: int                 # optimizer step count after recovery
    full_step: int            # step of the full checkpoint used as base
    diffs_loaded: int         # differential records read from storage
    gradients_replayed: int   # per-iteration gradients represented by them
    merge_ops: int            # pairwise merge operations performed
    merge_depth: int          # critical-path depth of the merge tree
    apply_ops: int            # optimizer/state applications performed
    corrupt_fulls_skipped: int = 0   # unverifiable fulls passed over
    corrupt_diffs_skipped: int = 0   # chain truncations due to bad diffs


def merge_tree_depth(count: int) -> int:
    """Critical-path depth of a balanced pairwise merge over ``count`` leaves."""
    if count <= 0:
        return 0
    return math.ceil(math.log2(count)) if count > 1 else 0


def _load_base(store: CheckpointStore, model: Module, optimizer: Optimizer):
    """Load the newest *verifiable* full checkpoint.

    Walks fulls newest-first; one that is missing or fails its integrity
    check is quarantined and the next older tried.  Returns
    ``(step, skipped)``.
    """
    fulls = store.fulls()
    if not fulls:
        raise FileNotFoundError("no full checkpoint available for recovery")
    skipped = 0
    for record in reversed(fulls):
        try:
            model_state, optimizer_state, step = store.load_full(record)
        except _UNREADABLE:
            store.quarantine(record)
            skipped += 1
            continue
        model.load_state_dict(model_state)
        optimizer.load_state_dict(optimizer_state)
        return step, skipped
    raise CorruptCheckpointError(
        f"no verifiable full checkpoint: all {len(fulls)} candidates failed "
        "integrity checks"
    )


def _load_chain(store: CheckpointStore, full_step: int, executor=None):
    """Load the longest intact diff chain after ``full_step``.

    Stops at the first record that is missing or corrupt (quarantining
    it): replaying past a hole would corrupt the state, so the chain is
    truncated there.  Returns ``(records, payloads, truncated)``.

    With an ``executor``, the CPU-bound verify+decode of each blob fans
    out to the pool.  Backend reads also overlap on the pool — but only
    when the backend declares ``thread_safe_reads`` (local disk, memory
    tier); fault-injecting wrappers keep it False, so their seeded RNG
    draws stay replayable under a deterministic sequential read order.
    Failures truncate exactly like the serial path: the first failing
    record is quarantined and everything after it is discarded.
    """
    records, payloads, truncated = [], [], 0
    if executor is None:
        for record in store.diffs_after(full_step):
            try:
                payloads.append(store.load_diff(record))
            except _UNREADABLE:
                store.quarantine(record)
                truncated = 1
                break
            records.append(record)
        return records, payloads, truncated
    chain = store.diffs_after(full_step)
    candidates, raws = [], []
    if getattr(store.backend, "thread_safe_reads", False):
        read_futures = [executor.submit(store.read_raw, record)
                        for record in chain]
        for record, future in zip(chain, read_futures):
            try:
                raws.append(future.result())
            except _UNREADABLE:
                store.quarantine(record)
                truncated = 1
                break
            candidates.append(record)
    else:
        for record in chain:
            try:
                raws.append(store.read_raw(record))
            except _UNREADABLE:
                store.quarantine(record)
                truncated = 1
                break
            candidates.append(record)
    futures = [executor.submit(store.decode_diff, record, raw)
               for record, raw in zip(candidates, raws)]
    for record, future in zip(candidates, futures):
        try:
            payloads.append(future.result())
        except _UNREADABLE:
            store.quarantine(record)
            truncated = 1
            break
        records.append(record)
    return records, payloads, truncated


class _ReplayScratch:
    """Reusable dense buffers threaded through a replay loop.

    Gradient payloads decompress into one shared :class:`DenseScratch`
    (allocated on first use, re-zeroed O(k) between diffs), so replaying a
    64-diff chain makes zero dense allocations after the first record —
    the same fast path (``decompress_into`` + fused ``step_with``) live
    training uses.
    """

    __slots__ = ("dense",)

    def __init__(self):
        self.dense: DenseScratch | None = None

    def buffers_for(self, payload) -> DenseScratch:
        if self.dense is None or self.dense.shapes != payload.shapes:
            self.dense = DenseScratch(payload.shapes)
        return self.dense


def _apply_payload(model: Module, optimizer: Optimizer, payload,
                   scratch: _ReplayScratch | None = None) -> None:
    """Apply one differential payload to the live model/optimizer."""
    if isinstance(payload, StateDelta):
        new_model, new_optimizer = apply_state_delta(
            model.state_dict(), optimizer.state_dict(), payload
        )
        model.load_state_dict(new_model)
        optimizer.load_state_dict(new_optimizer)
    elif scratch is not None and hasattr(payload, "decompress_into"):
        optimizer.step_with(payload.decompress_into(scratch.buffers_for(payload)))
    else:
        optimizer.step_with(payload.decompress())


def serial_recover(store: CheckpointStore, model: Module, optimizer: Optimizer,
                   ) -> RecoveryResult:
    """Replay differentials one by one — the traditional recovery process.

    Streams records lazily; the first unreadable diff truncates the chain
    (the state is already bit-exact at the last applied step).
    """
    recover_t0 = time.perf_counter()
    with obs_span("recover.load_full", "recovery"):
        full_step, fulls_skipped = _load_base(store, model, optimizer)
    loaded = 0
    gradients = 0
    truncated = 0
    scratch = _ReplayScratch()
    for record in store.diffs_after(full_step):
        try:
            payload = store.load_diff(record)
        except _UNREADABLE:
            store.quarantine(record)
            truncated = 1
            break
        with obs_span("recover.replay_diff", "recovery",
                      {"start": record.start, "end": record.end,
                       "count": record.count}):
            _apply_payload(model, optimizer, payload, scratch)
        if not isinstance(payload, StateDelta) and record.count > 1:
            # A batched record represents `count` training steps; keep the
            # step counter (and thus LR schedules) aligned with training.
            optimizer.step_count += record.count - 1
        gradients += record.count
        loaded += 1
    if OBS.enabled:
        OBS.registry.counter("recover.serial.runs").inc()
        OBS.registry.counter("recover.diffs_replayed").inc(loaded)
        # Restore-path duration histogram: feeds the tail-latency table
        # (p50/p95/p99) in ``python -m repro.obs.report``.
        OBS.registry.observe("recover.serial.s",
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


def parallel_recover(store: CheckpointStore, model: Module, optimizer: Optimizer,
                     max_workers: int | None = None) -> RecoveryResult:
    """Tree-merge all differentials on a thread pool, then apply once.

    Decoding (CRC verify + deserialize) and the pairwise merge tree run
    on a :class:`~concurrent.futures.ThreadPoolExecutor`; the hot kernels
    (CRC32, ``np.unique``/``np.bincount``) release the GIL, so levels
    genuinely overlap across cores.  The tree shape is the same balanced
    pairwise reduction as before — ``n-1`` merges at critical-path depth
    ``ceil(log2 n)`` — and each pair merges in a fixed order, so the
    result is independent of thread scheduling.  ``max_workers=1`` (or
    ``0``) forces the single-threaded execution of earlier revisions.
    """
    if max_workers is None:
        max_workers = min(8, os.cpu_count() or 2)
    recover_t0 = time.perf_counter()
    with obs_span("recover.load_full", "recovery"):
        full_step, fulls_skipped = _load_base(store, model, optimizer)
    executor = ThreadPoolExecutor(max_workers=max_workers) \
        if max_workers > 1 else None
    try:
        with obs_span("recover.load_chain", "recovery"):
            records, payloads, truncated = _load_chain(store, full_step,
                                                       executor)
        if not records:
            return RecoveryResult(
                step=optimizer.step_count, full_step=full_step, diffs_loaded=0,
                gradients_replayed=0, merge_ops=0, merge_depth=0, apply_ops=0,
                corrupt_fulls_skipped=fulls_skipped,
                corrupt_diffs_skipped=truncated,
            )
        gradients = sum(record.count for record in records)
        merge_ops = 0
        depth = 0
        level = payloads
        while len(level) > 1:
            pairs = [(level[index], level[index + 1])
                     for index in range(0, len(level) - 1, 2)]
            with obs_span("recover.merge_level", "recovery",
                          {"level": depth, "pairs": len(pairs)}):
                if executor is not None and len(pairs) > 1:
                    next_level = list(executor.map(
                        lambda pair: pair[0].add(pair[1]), pairs))
                else:
                    next_level = [left.add(right) for left, right in pairs]
            merge_ops += len(pairs)
            if len(level) % 2:
                next_level.append(level[-1])
            level = next_level
            depth += 1
        merged = level[0]
    finally:
        if executor is not None:
            executor.shutdown(wait=True)
    with obs_span("recover.apply_merged", "recovery",
                  {"gradients": gradients}):
        if isinstance(merged, StateDelta):
            _apply_payload(model, optimizer, merged)
        else:
            # One accumulated optimizer application; advance the step counter
            # to reflect the represented gradients so schedules resume
            # correctly.
            if hasattr(merged, "decompress_into"):
                optimizer.step_with(
                    merged.decompress_into(
                        _ReplayScratch().buffers_for(merged)))
            else:
                optimizer.step_with(merged.decompress())
            optimizer.step_count += gradients - 1
    if OBS.enabled:
        OBS.registry.counter("recover.parallel.runs").inc()
        OBS.registry.counter("recover.diffs_replayed").inc(len(records))
        OBS.registry.observe("recover.parallel.s",
                             time.perf_counter() - recover_t0)
    return RecoveryResult(
        step=optimizer.step_count,
        full_step=full_step,
        diffs_loaded=len(records),
        gradients_replayed=gradients,
        merge_ops=merge_ops,
        merge_depth=depth,
        apply_ops=1,
        corrupt_fulls_skipped=fulls_skipped,
        corrupt_diffs_skipped=truncated,
    )


def merge_payloads(payloads: list):
    """Left-fold merge (serial order) — used by tests as the reference."""
    if not payloads:
        raise ValueError("nothing to merge")
    return reduce(lambda a, b: a.add(b), payloads)
