"""Batched kernel runtime: plan caching, request batching, epoch streams.

This package is the serving/scheduling layer above :mod:`repro.core`:

``fingerprint``  content hashes of sparse matrices (plan-cache keys)
``cache``        bounded LRU of execution plans with hit/miss accounting
``plan``         matrix-bound execution plans (resolution + tuning + parts)
``batch``        request packing (block-diagonal) and scheduling metadata
``shard``        nnz-balanced assignment of plan partitions to worker shards
``codec``        the worker protocol (frames, specs, CSR payloads) and the
                 one shard executor every agent runs
``remote``       sharded tier: worker agents (local child processes and
                 dial-in TCP hosts) + the in-runtime controller
``dynamic``      dynamic graphs: one spliced CSR per version with
                 incremental plan/shard invalidation
``options``      :class:`RuntimeOptions` — the shared kernel-knob dataclass
``runtime``      :class:`KernelRuntime` — run / run_batch / epochs
                 / run_sharded / submit_sharded

Typical usage::

    from repro.runtime import KernelRuntime, KernelRequest

    rt = KernelRuntime(num_threads=4, cache_size=32)
    Z = rt.run(A, X, pattern="sigmoid_embedding")      # planned + cached
    outs = rt.run_batch([KernelRequest(A_i, X_i) for ...])
    stream = rt.epochs(A, pattern="gcn")
    for epoch in range(50):
        H = stream.step(H)
"""

from .batch import KernelRequest, PackedBatch, pack_requests
from .cache import CacheStats, PlanCache
from .dynamic import DynamicGraph, GraphVersion, MutationResult
from .fingerprint import (
    clear_fingerprint_memo,
    fingerprint_covers,
    fingerprint_memo_info,
    matrix_fingerprint,
    pin_fingerprint,
)
from .options import RuntimeOptions
from .plan import KernelPlan, PlanKey, build_plan
from .remote import RemoteController, WorkerAgent
from .runtime import EpochStream, KernelRuntime
from .shard import ShardAssignment, ShardPlan, assign_shards, route_shards

__all__ = [
    "KernelRuntime",
    "EpochStream",
    "RuntimeOptions",
    "ShardPlan",
    "ShardAssignment",
    "assign_shards",
    "route_shards",
    "WorkerAgent",
    "RemoteController",
    "KernelRequest",
    "KernelPlan",
    "PlanKey",
    "PlanCache",
    "CacheStats",
    "PackedBatch",
    "pack_requests",
    "build_plan",
    "DynamicGraph",
    "GraphVersion",
    "MutationResult",
    "matrix_fingerprint",
    "pin_fingerprint",
    "fingerprint_covers",
    "fingerprint_memo_info",
    "clear_fingerprint_memo",
]
