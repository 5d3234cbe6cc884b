"""``serve-small``: many tiny kernel requests over the binary wire protocol.

Kernel work per request is tiny (256-vertex graphs, d=16), so framing,
the coalescer's windows and ``run_batch`` packing dominate.  A ``serve`` or
coalescer change shows here; a kernel change barely does.
"""

from __future__ import annotations

import shutil
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from .common import Window, median, peak_rss_mb, plan_hit_rate
from .tracing import Tracer

SETTINGS: Dict[str, Tuple[object, str]] = {
    "graphs": (8, "registered 256-vertex graphs, average degree 8; 4 operand sets each"),
    "pattern": ("sigmoid_embedding, d=16", "the embedding kernel at a size where dispatch dominates"),
    "transport": ("wire protocol", "pipelining is what the framed transport adds"),
    "clients": (2, "one closed-loop client thread per vCPU"),
    "pipeline_depth": (8, "requests each client keeps in flight, so windows can fill"),
    "max_batch": (32, "server default window capacity"),
    "max_wait_ms": (2.0, "server default window timer"),
    "num_threads": (1, "one kernel thread: no pool scheduling noise on 2 vCPUs"),
    "dispatch_workers": (1, "one dispatcher: windows run in arrival order"),
    "processes": (0, "requests are far below shard_min_nnz"),
    "warmup_s": (2.0, "plans, connections and allocator reach steady state; not timed"),
    "setup_repeats": (7, "set-up is ~10 ms; the median of seven damps host drift"),
}

GRAPHS = 8
OPERANDS = 4
DIM = 16
CLIENTS = 2
PIPELINE = 8
PATTERN = "sigmoid_embedding"
WARMUP_S = 2.0


class ServeSmall:
    name = "serve-small"
    setup_repeats = 7

    def __init__(self, seed: int, *, tiny: bool = False, corrupt: bool = False, out_dir=None) -> None:
        from repro.core.fused import fusedmm
        from repro.graphs.features import random_features

        self.seed = int(seed)
        self.out_dir = out_dir
        self.n = n = 64 if tiny else 256
        self.graphs = self._graphs()
        self.operands = [
            [
                random_features(n, DIM, seed=self.seed * 1000 + 100 + OPERANDS * i + j).astype(np.float32)
                for j in range(OPERANDS)
            ]
            for i in range(GRAPHS)
        ]
        self.refs = [
            [fusedmm(A, X, X, pattern=PATTERN, backend="auto", num_threads=1) for X in ops]
            for A, ops in zip(self.graphs, self.operands)
        ]
        if corrupt:
            for refs in self.refs:
                for Z in refs:
                    Z[0, 0] += 1.0
        self.bg = None
        self.failed = 0
        self.rejected = 0
        self.failures: List[str] = []

    def _graphs(self) -> list:
        from repro.sparse import random_csr

        n = self.n
        return [random_csr(n, n, density=8.0 / n, seed=self.seed * 1000 + i) for i in range(GRAPHS)]

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        """Build the graphs (the references use their own copies), the
        registry and the listeners."""
        from repro.serve import ServeConfig
        from repro.serve.runner import BackgroundServer

        self.job_dir = self.out_dir / f"jobs-{self.name}"
        config = ServeConfig(
            port=0,
            wire_port=0,
            wire_credits=PIPELINE,
            models=(),
            max_batch=32,
            max_wait_ms=2.0,
            num_threads=1,
            dispatch_workers=1,
            processes=0,
            job_dir=str(self.job_dir),
        )
        bg = BackgroundServer(config)
        for i, A in enumerate(self._graphs()):
            bg.server.registry.register_graph(f"g{i}", A)
        bg.start()
        self.bg = bg

    def teardown(self) -> None:
        if self.bg is not None:
            self.bg.stop()
            self.bg = None
            shutil.rmtree(self.job_dir, ignore_errors=True)

    def _client(self, cid: int, seconds: float, out: List, barrier: threading.Barrier) -> None:
        from repro.serve import WireClient

        lat: List[float] = []
        failed = rejected = 0
        notes: List[str] = []
        k = cid
        with WireClient(self.bg.host, self.bg.wire_port, timeout=60.0) as client:
            depth = min(PIPELINE, client.credits)
            inflight: Dict[int, Tuple[float, int, int]] = {}
            barrier.wait()
            deadline = time.perf_counter() + seconds
            while True:
                while len(inflight) < depth and time.perf_counter() < deadline:
                    g, j = k % GRAPHS, (k // GRAPHS) % OPERANDS
                    k += 1
                    rid = client.send_kernel(model=f"g{g}", x=self.operands[g][j], pattern=PATTERN)
                    inflight[rid] = (time.perf_counter(), g, j)
                if not inflight:
                    break
                rid, value = client.recv()
                t1 = time.perf_counter()
                t0, g, j = inflight.pop(rid)
                lat.append((t1 - t0) * 1000.0)
                if isinstance(value, Exception):
                    failed += 1
                    notes.append(f"g{g}/x{j}: {type(value).__name__}: {value}")
                    if getattr(value, "http_status", None) in (429, 503, 504):
                        rejected += 1
                elif not np.array_equal(value, self.refs[g][j]):
                    failed += 1
                    diff = np.abs(np.asarray(value, dtype=np.float64) - self.refs[g][j])
                    notes.append(f"g{g}/x{j}: mismatch, max abs diff {diff.max():.3g}")
        out[cid] = (lat, failed, rejected, t1, notes)

    def _run(self, seconds: float) -> Tuple[List[float], int, int, float]:
        out: List = [None] * CLIENTS
        barrier = threading.Barrier(CLIENTS + 1)
        threads = [
            threading.Thread(target=self._client, args=(c, seconds, out, barrier), daemon=True)
            for c in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        start = time.perf_counter()
        for t in threads:
            t.join()
        if any(o is None for o in out):
            raise RuntimeError("a serve-small client thread died")
        lat = [x for o in out for x in o[0]]
        self.failures.extend(note for o in out for note in o[4][:5])
        return lat, sum(o[1] for o in out), sum(o[2] for o in out), max(o[3] for o in out) - start

    def warmup(self) -> None:
        self._run(WARMUP_S)

    def measure(self, seconds: float) -> Window:
        self.stats_before = self.bg.server.statz()
        lat, failed, rejected, elapsed = self._run(seconds)
        self.stats_after = self.bg.server.statz()
        self.failed += failed
        self.rejected = rejected
        return Window(lat_ms=lat, ops=len(lat), seconds=elapsed)

    def finish(self) -> float:
        return peak_rss_mb()

    def verify(self, attempted: int) -> Tuple[int, Dict[str, object]]:
        """Responses were compared bitwise to local ``fusedmm`` as they
        arrived (a 16 KB compare per request)."""
        return self.failed, {"failed": self.failed, "first_failures": self.failures[:10]}

    # ------------------------------------------------------------------ #
    def layer_metrics(self, tracer: Tracer, t0: float, host, window: Window) -> Dict[str, float]:
        before = self.stats_before["coalescer"] or {}
        after = self.stats_after["coalescer"] or {}
        rt_before, rt_after = self.stats_before["runtime"], self.stats_after["runtime"]
        requests = max(after.get("coalesced_requests", 0) - before.get("coalesced_requests", 0), 1)
        batches = [s.ms for s in tracer.named("runtime.run_batch", t0)]
        packed = rt_after.get("packed_requests", 0) - rt_before.get("packed_requests", 0)
        run_batch_window_ms = median(batches)
        wait_p50 = after.get("wait_ms_p50", 0.0)
        return {
            "serve.coalescer.wait_ms_p50": wait_p50,
            "serve.coalescer.wait_ms_p99": after.get("wait_ms_p99", 0.0),
            "serve.coalescer.occupancy": requests / max(after.get("batches", 0) - before.get("batches", 0), 1),
            "serve.coalescer.windows": after.get("batches", 0) - before.get("batches", 0),
            "runtime.run_batch_ms": sum(batches) / requests,
            "runtime.packed_frac": packed / requests,
            "serve.self_ms": window.p(50) - wait_p50 - run_batch_window_ms,
            "serve.rejected": self.rejected,
            "runtime.plan_hit_rate": plan_hit_rate(rt_before, rt_after),
        }
