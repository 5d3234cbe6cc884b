"""``serve-mutate``: full-graph HTTP reads beside live edge-batch writes.

One registered RMAT graph above ``shard_min_nnz`` is served with two worker
processes.  One client thread reads ``Z = FusedMM(A, X, X)`` over HTTP
(raw-npy, X 20000 x 16, ~1.3 MB each way); the other posts edge batches of
320 inserts plus 320 deletes on 32 hot rows.  This loads
``runtime.dynamic``/``sparse.delta``, the sharded lane (shared-memory ship
and gather in ``runtime.workers``) and HTTP with MB-sized bodies, and
bypasses the coalescer's windows and ``apps``.

Every check runs after the timed window: versions are gapless and
monotone, each read's digest matches a version inside its admission
window, and the final state equals a from-scratch rebuild.
"""

from __future__ import annotations

import hashlib
import shutil
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from .common import Window, median, peak_rss_mb, plan_hit_rate
from .tracing import Tracer

SETTINGS: Dict[str, Tuple[object, str]] = {
    "graph": ("rmat n=20000, 160000 samples (~292k nnz), --seed", "one graph above shard_min_nnz, so reads take the sharded lane"),
    "pattern": ("sigmoid_embedding, d=16", "full-graph reads of ~1.3 MB bodies"),
    "processes": (2, "one shard worker per vCPU; with 0, reads were slow and unsteady"),
    "num_threads": (1, "one kernel thread in the server process"),
    "dispatch_workers": (1, "one dispatcher thread"),
    "clients": ("1 reader + 1 writer, closed loop", "writes run beside reads, at most 2 client threads"),
    "edge_batch": ("320 inserts + 320 deletes on 32 hot rows", "repro.bench.dynamic_bench.edge_batch: the churn the dynamic tier is built for"),
    "warmup_s": (2.0, "plans, worker caches and the first delta rounds settle; not timed"),
    "setup_repeats": (5, "set-up spawns workers; the median of five damps host drift"),
}

DIM = 16
PATTERN = "sigmoid_embedding"
WARMUP_S = 2.0
GRAPH = "g"


def digest(Z: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(Z).tobytes(), digest_size=16).digest()


def _straddling_rows(A) -> np.ndarray:
    """Rows whose edges cross a multiple of the kernels' edge-block size:
    their output depends on where they sit, not only on their content."""
    from repro.core.optimized import DEFAULT_BLOCK_SIZE

    cuts = np.arange(DEFAULT_BLOCK_SIZE, A.nnz, DEFAULT_BLOCK_SIZE)
    rows = np.searchsorted(A.indptr, cuts, side="right") - 1
    return rows[A.indptr[rows] < cuts]


def _row_kernel(X: np.ndarray, r: int, cols: np.ndarray, vals: np.ndarray, start: int) -> np.ndarray:
    """Row ``r`` of ``FusedMM(A, X, X)`` from that row alone, bitwise.

    The kernels cut edge blocks on the absolute edge grid, so a row that
    straddles a block boundary is summed in two parts.  A padding row puts
    the row's first edge at the same offset modulo the block size as in
    the full matrix; only the real row is computed (``out=``/``row_offset=``).
    """
    from repro.core.fused import fusedmm
    from repro.core.optimized import DEFAULT_BLOCK_SIZE
    from repro.sparse import CSRMatrix

    pad = start % DEFAULT_BLOCK_SIZE
    sub = CSRMatrix(
        2,
        X.shape[0],
        np.array([0, pad, pad + cols.size], dtype=np.int64),
        np.concatenate([np.zeros(pad, dtype=cols.dtype), cols]),
        np.concatenate([np.zeros(pad, dtype=vals.dtype), vals]),
        check=False,
    )
    out = np.empty((1, X.shape[1]), dtype=X.dtype)
    fusedmm(sub, X[[r, r]], X, pattern=PATTERN, num_threads=1, out=out, row_offset=1)
    return out[0]


def _tails(spans, others) -> List[float]:
    """For each span inside which some ``others`` span ends: the time from
    the last such end to the span's own end, in ms.  Short, steady tails
    mean the span was released by the other's completion."""
    ends = np.sort(np.array([o.t1 for o in others]))
    out = []
    for s in spans:
        i = np.searchsorted(ends, s.t1, side="right") - 1
        if i >= 0 and ends[i] > s.t0:
            out.append((s.t1 - ends[i]) * 1000.0)
    return out


class ServeMutate:
    name = "serve-mutate"
    setup_repeats = 5

    def __init__(self, seed: int, *, tiny: bool = False, corrupt: bool = False, out_dir=None) -> None:
        from repro.graphs.features import random_features

        self.seed = int(seed)
        self.out_dir = out_dir
        self.corrupt = corrupt
        self.n = 2000 if tiny else 20000
        self.half = 32 if tiny else 320
        self.X = random_features(self.n, DIM, seed=self.seed + 1).astype(np.float32)
        self.bg = None
        self.reads: List[Tuple[bool, float, float, int, int, object]] = []
        self.writes: List[Tuple[bool, float, float, int, object]] = []
        self.batches: List[Tuple[int, np.ndarray, np.ndarray]] = []
        self.errors: List[str] = []
        self.acked = 0

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        from repro.graphs import rmat
        from repro.serve import ServeConfig
        from repro.serve.runner import BackgroundServer

        self.base = rmat(self.n, 8 * self.n, seed=self.seed)
        self.job_dir = self.out_dir / f"jobs-{self.name}"
        config = ServeConfig(
            port=0,
            models=(),
            processes=2,
            num_threads=1,
            dispatch_workers=1,
            job_dir=str(self.job_dir),
        )
        bg = BackgroundServer(config)
        bg.server.registry.register_graph(GRAPH, self.base)
        bg.start()
        self.bg = bg

    def teardown(self) -> None:
        if self.bg is not None:
            self.bg.stop()
            self.bg = None
            shutil.rmtree(self.job_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    def _reader(self, deadline: float, timed: bool, errors: List[str]) -> None:
        from repro.serve import ServeClient

        try:
            with ServeClient(self.bg.host, self.bg.port, timeout=60.0) as client:
                while time.perf_counter() < deadline:
                    lo = self.acked
                    t0 = time.perf_counter()
                    try:
                        result = client.kernel_npy(self.X, model=GRAPH, pattern=PATTERN)
                    except Exception as exc:  # noqa: BLE001 - a failed op
                        result = exc
                    t1 = time.perf_counter()
                    if isinstance(result, np.ndarray):
                        result = digest(result)
                    self.reads.append((timed, t0, t1, lo, self.acked + 1, result))
        except Exception as exc:  # noqa: BLE001 - reported by verify
            errors.append(f"reader: {type(exc).__name__}: {exc}")

    def _writer(self, deadline: float, timed: bool, errors: List[str]) -> None:
        from repro.bench.dynamic_bench import edge_batch
        from repro.serve import ServeClient

        graph = self.bg.server.registry.dynamic_graph(GRAPH)
        try:
            with ServeClient(self.bg.host, self.bg.port, timeout=60.0) as client:
                while time.perf_counter() < deadline:
                    # Deletes are sampled from the current matrix.  This is
                    # the only writer, so that is the version its last write
                    # produced; reading it costs nothing, where a replica
                    # kept in step would load the server's process.
                    insert, delete = edge_batch(self.rng, graph.matrix, self.half, self.half)
                    t0 = time.perf_counter()
                    try:
                        doc = client.mutate(GRAPH, insert=insert, delete=delete)
                        version = int(doc["version"])
                    except Exception as exc:  # noqa: BLE001 - a failed op
                        self.writes.append((timed, t0, time.perf_counter(), -1, exc))
                        break  # later batches would not match the versions
                    t1 = time.perf_counter()
                    self.acked = version
                    self.writes.append((timed, t0, t1, version, doc))
                    self.batches.append((version, insert, delete))
        except Exception as exc:  # noqa: BLE001 - reported by verify
            errors.append(f"writer: {type(exc).__name__}: {exc}")

    def _run(self, seconds: float, timed: bool) -> Window:
        errors: List[str] = []
        deadline = time.perf_counter() + seconds
        n_reads, n_writes = len(self.reads), len(self.writes)
        start = time.perf_counter()
        threads = [
            threading.Thread(target=self._reader, args=(deadline, timed, errors), daemon=True),
            threading.Thread(target=self._writer, args=(deadline, timed, errors), daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        self.errors.extend(errors)
        reads = self.reads[n_reads:]
        writes = self.writes[n_writes:]
        return Window(
            lat_ms=[(r[2] - r[1]) * 1000.0 for r in reads],
            ops=len(reads) + len(writes),
            seconds=elapsed,
            extra={"write_ms": [(w[2] - w[1]) * 1000.0 for w in writes]},
        )

    def warmup(self) -> None:
        self.rng = np.random.default_rng(self.seed + 2)
        self.base_version = self.bg.server.registry.dynamic_graph(GRAPH).version
        self.acked = self.base_version
        self._run(WARMUP_S, timed=False)

    def measure(self, seconds: float) -> Window:
        graph = self.bg.server.registry.dynamic_graph(GRAPH)
        self.stats_before = graph.stats()
        self.rt_before = self.bg.server.registry.runtime.stats()
        window = self._run(seconds, timed=True)
        self.stats_after = graph.stats()
        self.rt_after = self.bg.server.registry.runtime.stats()
        return window

    def finish(self) -> float:
        from repro.serve import ServeClient

        with ServeClient(self.bg.host, self.bg.port, timeout=60.0) as client:
            self.final_read = client.kernel_npy(self.X, model=GRAPH, pattern=PATTERN)
        self.final_matrix = self.bg.server.registry.graph(GRAPH)
        self.final_version = self.bg.server.registry.dynamic_graph(GRAPH).version
        self.delta_bytes = self.bg.server.registry.graph_memory()[GRAPH]["delta_bytes"]
        return peak_rss_mb()

    # ------------------------------------------------------------------ #
    def _edge_set_matches(self) -> bool:
        """Replay every acknowledged batch on a plain dict of edges and
        compare with the server's final matrix."""
        A, n = self.base, self.base.ncols
        rows = np.repeat(np.arange(A.nrows, dtype=np.int64), np.diff(A.indptr))
        edges = dict(zip((rows * n + A.indices).tolist(), A.data.tolist()))
        dtype = A.data.dtype
        for _, insert, delete in sorted(self.batches, key=lambda b: b[0]):
            for key in (delete[:, 0].astype(np.int64) * n + delete[:, 1].astype(np.int64)).tolist():
                edges.pop(key, None)
            keys = (insert[:, 0].astype(np.int64) * n + insert[:, 1].astype(np.int64)).tolist()
            edges.update(zip(keys, insert[:, 2].astype(dtype).tolist()))
        F = self.final_matrix
        frows = np.repeat(np.arange(F.nrows, dtype=np.int64), np.diff(F.indptr))
        fkeys = frows * n + F.indices
        order = sorted(edges)
        return bool(
            fkeys.size == len(order)
            and np.array_equal(fkeys, np.asarray(order, dtype=np.int64))
            and np.array_equal(F.data, np.asarray([edges[k] for k in order], dtype=dtype))
        )

    def _version_digests(self) -> Tuple[np.ndarray, Dict[int, bytes]]:
        """The kernel result of the last version and the digest of every
        version, on a replica that replays the acknowledged batches: the
        base kernel once, then only the rows a batch touched or moved
        across an edge-block boundary."""
        from repro.core.fused import fusedmm
        from repro.runtime.dynamic import DynamicGraph

        replica = DynamicGraph(self.base)
        Z = fusedmm(self.base, self.X, self.X, pattern=PATTERN, num_threads=1)
        known = {self.base_version: digest(Z)}
        straddling = _straddling_rows(self.base)
        for version, insert, delete in sorted(self.batches, key=lambda b: b[0]):
            replica.apply_edges(insert=insert, delete=delete)
            A = replica.matrix
            now = _straddling_rows(A)
            rows = np.concatenate([insert[:, 0], delete[:, 0], now, straddling])
            straddling = now
            for r in np.unique(rows.astype(np.int64)).tolist():
                lo, hi = A.indptr[r], A.indptr[r + 1]
                Z[r] = _row_kernel(self.X, r, A.indices[lo:hi], A.data[lo:hi], int(lo))
            known[version] = digest(Z)
        return Z, known

    def verify(self, attempted: int) -> Tuple[int, Dict[str, object]]:
        from repro.bench.dynamic_bench import rebuild_csr
        from repro.core.fused import fusedmm

        versions = [w[3] for w in self.writes if w[3] >= 0]
        gapless = versions == list(range(self.base_version + 1, self.base_version + 1 + len(versions)))
        gapless = gapless and self.final_version == self.base_version + len(versions)

        Z, known = self._version_digests()
        rebuilt = fusedmm(rebuild_csr(self.final_matrix), self.X, self.X, pattern=PATTERN, num_threads=1)
        if self.corrupt:
            rebuilt = rebuilt + 1.0
            known = {v: digest(np.full(1, v)) for v in known}
        final_ok = bool(
            np.array_equal(self.final_read, rebuilt)
            and np.array_equal(Z, rebuilt)
            and self._edge_set_matches()
        )

        failed = 0
        bad_reads = 0
        for timed, _t0, _t1, lo, hi, result in self.reads:
            ok = isinstance(result, bytes) and any(
                known.get(v) == result for v in range(lo, hi + 1)
            )
            if not ok:
                bad_reads += 1
                failed += int(timed)
        failed += sum(1 for w in self.writes if w[0] and w[3] < 0)
        if not (gapless and final_ok) or self.errors:
            failed = attempted
        return failed, {
            "versions_gapless": gapless,
            "final_state_bitwise": final_ok,
            "bad_reads": bad_reads,
            "writes": len(self.writes),
            "reads": len(self.reads),
            "client_errors": self.errors[:3],
        }

    # ------------------------------------------------------------------ #
    def layer_metrics(self, tracer: Tracer, t0: float, host, window: Window) -> Dict[str, float]:
        applies = tracer.named("runtime.dynamic.apply_edges", t0)
        sharded = tracer.named("runtime.submit_sharded", t0)
        apply_ms = median([s.ms for s in applies])
        sharded_ms = median([s.ms for s in sharded])
        write_tails = _tails(applies, sharded)
        read_tails = _tails(sharded, applies)
        write_p50 = window.p(50, "write_ms")
        touched = sum(
            int(w[4]["touched_rows"]) for w in self.writes if w[0] and w[3] >= 0 and w[1] >= t0
        )
        before, after = self.stats_before, self.stats_after
        workers = self.rt_after.get("workers") or {}
        return {
            "runtime.dynamic.apply_ms_p50": apply_ms,
            "sparse.delta.apply_ms_p50": median([s.ms for s in tracer.named("sparse.delta.apply", t0)]),
            "serve.write_wait_ms": write_p50 - apply_ms,
            "lockstep.write_after_read_frac": len(write_tails) / max(len(applies), 1),
            "lockstep.write_tail_ms_p50": median(write_tails),
            "lockstep.read_after_write_frac": len(read_tails) / max(len(sharded), 1),
            "runtime.dynamic.plans_refreshed": after["plans_refreshed"] - before["plans_refreshed"],
            "runtime.dynamic.compactions": after["compactions"] - before["compactions"],
            "runtime.dynamic.touched_rows": touched,
            "runtime.sharded_ms_p50": sharded_ms,
            "serve.read_self_ms": window.p(50) - sharded_ms,
            "runtime.workers.restarts": workers.get("restarts", 0),
            "graphs.delta_bytes": self.delta_bytes,
            "runtime.plan_hit_rate": plan_hit_rate(self.rt_before, self.rt_after),
        }
