"""Which package entry points the traced run wraps, and the per-layer
metrics it reports.

Every workload reports every per-layer metric; a layer a workload bypasses
reads 0 there.  The comment on each group names the end-to-end metric and
workload the group should move.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .tracing import Target

#: name -> (unit, better)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # train-embed -> lat_p50_ms, throughput_ops
    "runtime.run_on_ms": ("ms", "lower"),
    "runtime.run_on_calls": ("count", "lower"),
    "core.execute_ms": ("ms", "lower"),
    "core.nnz_per_epoch": ("count", "lower"),
    "core.bytes_per_epoch": ("B-computed", "lower"),
    "core.kernel_gbps": ("GB/s", "higher"),
    "core.roofline_frac": ("ratio", "higher"),
    "sparse.select_rows_ms": ("ms", "lower"),
    "apps.sampler_ms": ("ms", "lower"),
    "apps.epoch_self_ms": ("ms", "lower"),
    # serve-small -> lat_p50_ms, throughput_ops
    "serve.coalescer.wait_ms_p50": ("ms", "lower"),
    "serve.coalescer.wait_ms_p99": ("ms", "lower"),
    "serve.coalescer.occupancy": ("req/window", "higher"),
    "serve.coalescer.windows": ("count", "lower"),
    "runtime.run_batch_ms": ("ms", "lower"),
    "runtime.packed_frac": ("ratio", "higher"),
    "serve.self_ms": ("ms", "lower"),
    "serve.rejected": ("count", "lower"),
    # serve-mutate -> e2e.write_lat_p50_ms (writes), lat_p50_ms (reads),
    # throughput_ops, peak_rss_mb (delta bytes)
    "runtime.dynamic.apply_ms_p50": ("ms", "lower"),
    "sparse.delta.apply_ms_p50": ("ms", "lower"),
    "serve.write_wait_ms": ("ms", "lower"),
    "runtime.dynamic.plans_refreshed": ("count", "lower"),
    "runtime.dynamic.compactions": ("count", "lower"),
    "runtime.dynamic.touched_rows": ("count", "lower"),
    "runtime.sharded_ms_p50": ("ms", "lower"),
    "serve.read_self_ms": ("ms", "lower"),
    "runtime.workers.restarts": ("count", "lower"),
    "graphs.delta_bytes": ("B", "lower"),
    # serve-mutate lockstep: which side waits on which.  A write that a
    # read's end falls inside, and that ends a few ms after it, waited for
    # that read (and the other way round).
    "lockstep.write_after_read_frac": ("ratio", "lower"),
    "lockstep.write_tail_ms_p50": ("ms", "lower"),
    "lockstep.read_after_write_frac": ("ratio", "lower"),
    # every workload: attribution, not targets
    "runtime.plan_hit_rate": ("ratio", "higher"),
    "host.calib_ms": ("ms", "lower"),
    "host.stream_gbps": ("GB/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    # End-to-end figures that exist on some workloads only (the untraced
    # half of the traced run): p90 where ten samples lie beyond it, and
    # serve-mutate's write latency.
    "e2e.samples": ("count", "higher"),
    "e2e.lat_p90_ms": ("ms", "lower"),
    "e2e.write_lat_p50_ms": ("ms", "lower"),
}


def _run_on_attrs(self, A_sub, X=None, Y=None):
    from repro.perf.machine import traffic_bytes

    d = Y.shape[1] if Y is not None else X.shape[1]
    return {"nnz": A_sub.nnz, "bytes": traffic_bytes(A_sub, d)}


def targets() -> List[Target]:
    """The entry points of ``apps``, ``sparse``, ``core``, ``runtime`` and
    ``serve`` that the traced run wraps."""
    from repro.apps.force2vec import Force2Vec
    from repro.apps.sampling import NegativeSampler
    from repro.runtime.dynamic import DynamicGraph
    from repro.runtime.plan import KernelPlan
    from repro.runtime.runtime import EpochStream, KernelRuntime
    from repro.serve.coalescer import Coalescer
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import KernelServer
    from repro.serve.wire import WireServer
    from repro.sparse.csr import CSRMatrix
    from repro.sparse.delta import DeltaCSR

    return [
        Target(Force2Vec, "train_epoch", "apps.train_epoch"),
        Target(NegativeSampler, "sample", "apps.sampler"),
        Target(CSRMatrix, "select_rows", "sparse.select_rows"),
        Target(DeltaCSR, "apply", "sparse.delta.apply"),
        Target(DeltaCSR, "materialize", "sparse.delta.materialize"),
        Target(KernelPlan, "execute", "core.execute"),
        Target(EpochStream, "run_on", "runtime.run_on", annotate=_run_on_attrs),
        Target(KernelRuntime, "run_batch", "runtime.run_batch"),
        Target(KernelRuntime, "submit_sharded", "runtime.submit_sharded", future=True),
        Target(KernelRuntime, "update_matrix", "runtime.update_matrix"),
        Target(DynamicGraph, "apply_edges", "runtime.dynamic.apply_edges"),
        Target(Coalescer, "submit", "serve.coalescer.submit"),
        Target(ModelRegistry, "mutate_graph", "serve.registry.mutate_graph"),
        Target(KernelServer, "_dispatch", "serve.http.dispatch"),
        Target(WireServer, "_handle_kernel", "serve.wire.kernel"),
    ]
