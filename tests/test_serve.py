"""Tests for the async serving subsystem (:mod:`repro.serve`).

The load-bearing contract: **coalesced responses are bitwise identical to
the same requests executed serially** — asserted here at the coalescer
level (hypothesis, mixed patterns/dtypes, concurrent tasks) and over real
HTTP sockets.  Admission control (queue-full 429, deadline 504, draining
503) and graceful drain are exercised deterministically.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fused import fusedmm
from repro.errors import DeadlineError, DrainingError, QueueFullError, ShapeError
from repro.graphs import random_features
from repro.runtime import KernelRequest, KernelRuntime
from repro.serve import (
    Coalescer,
    KernelServer,
    ModelRegistry,
    ModelSpec,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServeHTTPError,
    array_from_npy,
    decode_array,
    encode_array,
    npy_bytes,
)
from repro.serve.protocol import HTTPRequest, read_http_request, write_http_response
from repro.serve.runner import BackgroundServer
from repro.sparse import random_csr

from _helpers import make_xy


def _mk_problem(n: int, d: int, seed: int, dtype=np.float32):
    A = random_csr(n, n, density=min(1.0, 4.0 / max(n, 1)), seed=seed)
    X, Y = make_xy(A, d, seed=seed)
    return A, X.astype(dtype), Y.astype(dtype)


# ---------------------------------------------------------------------- #
# Payload codecs + HTTP parsing
# ---------------------------------------------------------------------- #
class TestProtocol:
    def test_npy_round_trip_bitwise(self, rng):
        for dtype in (np.float32, np.float64, np.int64):
            arr = rng.normal(size=(7, 3)).astype(dtype)
            out = array_from_npy(npy_bytes(arr))
            assert out.dtype == arr.dtype
            np.testing.assert_array_equal(out, arr)

    def test_encode_decode_json_and_b64(self, rng):
        arr = rng.normal(size=(4, 2)).astype(np.float32)
        out = decode_array(encode_array(arr))
        np.testing.assert_array_equal(out, arr)
        out_b = decode_array(encode_array(arr, binary=True))
        assert out_b.dtype == arr.dtype
        np.testing.assert_array_equal(out_b, arr)
        np.testing.assert_array_equal(
            decode_array([[1.0, 2.0]], dtype=np.float32),
            np.asarray([[1.0, 2.0]], dtype=np.float32),
        )

    def test_decode_array_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_array("nope")
        with pytest.raises(ProtocolError):
            decode_array({"wrong": 1})
        with pytest.raises(ProtocolError):
            decode_array({"npy_b64": "!!notb64!!"})
        with pytest.raises(ProtocolError):
            array_from_npy(b"not an npy payload")

    def _parse(self, raw: bytes, **kwargs) -> HTTPRequest:
        async def _run():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_http_request(reader, **kwargs)

        return asyncio.run(_run())

    def test_parse_request_with_body_and_query(self):
        raw = (
            b"POST /v1/kernel?model=m&pattern=gcn HTTP/1.1\r\n"
            b"Content-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
        )
        req = self._parse(raw)
        assert req.method == "POST"
        assert req.path == "/v1/kernel"
        assert req.query == {"model": "m", "pattern": "gcn"}
        assert req.json() == {}
        assert req.keep_alive

    def test_parse_eof_and_malformed(self):
        assert self._parse(b"") is None
        with pytest.raises(ProtocolError):
            self._parse(b"BROKEN\r\n\r\n")
        with pytest.raises(ProtocolError):
            self._parse(b"GET / HTTP/1.1\r\nbadheader\r\n\r\n")

    def test_http_10_defaults_to_close(self):
        """HTTP/1.0 without ``Connection: keep-alive`` is one-shot: a 1.0
        client reads until EOF, so holding the connection open hangs it on
        a response the server considers complete."""
        req = self._parse(b"GET /healthz HTTP/1.0\r\n\r\n")
        assert req.version == "HTTP/1.0"
        assert not req.keep_alive
        req = self._parse(
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        )
        assert req.keep_alive
        # 1.1 keeps its defaults: persistent unless told otherwise.
        req = self._parse(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert req.version == "HTTP/1.1"
        assert req.keep_alive
        req = self._parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not req.keep_alive

    def test_parse_body_cap(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100
        with pytest.raises(ProtocolError) as exc:
            self._parse(raw, max_body_bytes=10)
        assert exc.value.status == 413

    def test_write_response_shape(self):
        class Writer:
            def __init__(self):
                self.blob = b""

            def write(self, data):
                self.blob += data

        w = Writer()
        write_http_response(w, 200, b'{"ok":1}', keep_alive=False)
        head, _, body = w.blob.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Content-Length: 8" in head
        assert b"Connection: close" in head
        assert body == b'{"ok":1}'


# ---------------------------------------------------------------------- #
# Coalescer: bitwise identity under concurrency
# ---------------------------------------------------------------------- #
class TestCoalescerIdentity:
    @settings(max_examples=10, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 6), min_size=2, max_size=10),
        patterns=st.lists(
            st.sampled_from(["sigmoid_embedding", "gcn", "fr_layout", "spmm"]),
            min_size=1,
            max_size=4,
        ),
        dtype=st.sampled_from([np.float32, np.float64]),
        max_batch=st.sampled_from([1, 3, 32]),
    )
    def test_concurrent_mixed_bitwise_identical_to_serial(
        self, seeds, patterns, dtype, max_batch
    ):
        """N concurrent client tasks with mixed patterns/dtypes receive
        exactly the bytes serial single-threaded execution produces."""
        runtime = KernelRuntime(num_threads=1)
        problems = []
        for i, seed in enumerate(seeds):
            pattern = patterns[i % len(patterns)]
            A, X, Y = _mk_problem(20 + 7 * seed, 4, seed, dtype)
            expected = fusedmm(A, X, Y, pattern=pattern)
            problems.append((A, X, Y, pattern, expected))

        async def _go():
            coalescer = Coalescer(
                runtime, max_batch=max_batch, max_wait_ms=2.0, idle_flush_ms=0.1
            )
            try:
                results = await asyncio.gather(
                    *(
                        coalescer.submit(
                            KernelRequest(A=A, X=X, Y=Y, pattern=pattern)
                        )
                        for A, X, Y, pattern, _ in problems
                    )
                )
                await coalescer.drain()
                return results, coalescer.stats.as_dict()
            finally:
                coalescer.close()

        results, stats = asyncio.run(_go())
        runtime.close()
        for (A, X, Y, pattern, expected), Z in zip(problems, results):
            np.testing.assert_array_equal(Z, expected)
            assert Z.dtype == expected.dtype
        # Every admitted request reaches exactly one terminal state.
        assert stats["submitted"] == (
            stats["completed"]
            + stats["failed"]
            + stats["cancelled"]
            + stats["rejected_queue_full"]
            + stats["rejected_draining"]
        )

    def test_windows_actually_form(self):
        runtime = KernelRuntime(num_threads=1)
        A, X, Y = _mk_problem(30, 4, 0)

        async def _go():
            coalescer = Coalescer(runtime, max_batch=16, max_wait_ms=50.0)
            try:
                await asyncio.gather(
                    *(
                        coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
                        for _ in range(8)
                    )
                )
                return coalescer.stats.as_dict()
            finally:
                coalescer.close()

        stats = asyncio.run(_go())
        runtime.close()
        assert stats["submitted"] == 8
        assert stats["completed"] == 8
        # All 8 arrived before any flush timer fired → far fewer windows
        # than requests, and occupancy reflects the coalescing.
        assert stats["batches"] < 8
        assert stats["mean_window_occupancy"] > 1.0
        assert stats["wait_ms_p99"] >= stats["wait_ms_p50"] >= 0.0

    def test_max_batch_flushes_immediately(self):
        runtime = KernelRuntime(num_threads=1)
        A, X, Y = _mk_problem(30, 4, 0)

        async def _go():
            coalescer = Coalescer(
                runtime, max_batch=2, max_wait_ms=10_000.0, idle_flush_ms=0.0
            )
            try:
                await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
                            for _ in range(4)
                        )
                    ),
                    timeout=30,
                )
                return coalescer.stats.as_dict()
            finally:
                coalescer.close()

        stats = asyncio.run(_go())
        runtime.close()
        assert stats["batches"] == 2
        assert stats["mean_window_occupancy"] == 2.0

    def test_large_jobs_route_around_the_window(self):
        runtime = KernelRuntime(num_threads=1)
        A = random_csr(300, 300, density=0.2, seed=3)  # nnz >> threshold
        X, Y = make_xy(A, 4, seed=3)
        expected = fusedmm(A, X, Y, pattern="sigmoid_embedding")

        async def _go():
            coalescer = Coalescer(
                runtime, max_batch=8, max_wait_ms=10_000.0, shard_min_nnz=64
            )
            try:
                # A window-bound request would hang for 10s; the large
                # lane must dispatch immediately.
                Z = await asyncio.wait_for(
                    coalescer.submit(KernelRequest(A=A, X=X, Y=Y)), timeout=30
                )
                return Z, coalescer.stats.as_dict()
            finally:
                coalescer.close()

        Z, stats = asyncio.run(_go())
        runtime.close()
        np.testing.assert_array_equal(Z, expected)
        assert stats["sharded_requests"] == 1
        assert stats["batches"] == 0

    def test_shape_errors_surface_without_poisoning_the_window(self):
        runtime = KernelRuntime(num_threads=1)
        A, X, Y = _mk_problem(30, 4, 0)
        bad_X = np.zeros((7, 4), dtype=np.float32)  # wrong row count

        async def _go():
            coalescer = Coalescer(runtime, max_batch=8, max_wait_ms=2.0)
            try:
                good = coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
                with pytest.raises(ShapeError):
                    await coalescer.submit(KernelRequest(A=A, X=bad_X, Y=Y))
                return await good
            finally:
                coalescer.close()

        Z = asyncio.run(_go())
        runtime.close()
        np.testing.assert_array_equal(Z, fusedmm(A, X, Y, pattern="sigmoid_embedding"))


# ---------------------------------------------------------------------- #
# Coalescer: admission control
# ---------------------------------------------------------------------- #
class TestAdmissionControl:
    def test_queue_full_rejects_with_429_error(self):
        runtime = KernelRuntime(num_threads=1)
        A, X, Y = _mk_problem(30, 4, 0)

        async def _go():
            coalescer = Coalescer(
                runtime,
                max_batch=64,
                max_wait_ms=10_000.0,
                idle_flush_ms=0.0,
                max_queue=2,
            )
            try:
                first = asyncio.ensure_future(
                    coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
                )
                second = asyncio.ensure_future(
                    coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
                )
                await asyncio.sleep(0)  # let both enter the window
                with pytest.raises(QueueFullError):
                    await coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
                stats = coalescer.stats.as_dict()
                await coalescer.drain()  # flushes the two queued requests
                await asyncio.gather(first, second)
                return stats
            finally:
                coalescer.close()

        stats = asyncio.run(_go())
        runtime.close()
        assert stats["rejected_queue_full"] == 1
        assert QueueFullError.http_status == 429

    def test_deadline_expired_while_queued(self):
        runtime = KernelRuntime(num_threads=1)
        A, X, Y = _mk_problem(30, 4, 0)

        async def _go():
            coalescer = Coalescer(
                runtime, max_batch=64, max_wait_ms=30.0, idle_flush_ms=0.0
            )
            try:
                with pytest.raises(DeadlineError):
                    # The window flushes after 30ms; a 1ms deadline is
                    # long gone by then.
                    await coalescer.submit(
                        KernelRequest(A=A, X=X, Y=Y), deadline_ms=1.0
                    )
                return coalescer.stats.as_dict()
            finally:
                coalescer.close()

        stats = asyncio.run(_go())
        runtime.close()
        assert stats["expired_deadline"] == 1
        assert stats["completed"] == 0
        assert DeadlineError.http_status == 504

    def test_large_single_flood_respects_admission_bound(self):
        """Large singles must count against ``max_queue`` at admission
        time: a burst submitted concurrently may not overshoot the bound
        just because the execution tasks haven't started yet."""
        runtime = KernelRuntime(num_threads=1)
        A = random_csr(300, 300, density=0.2, seed=5)  # nnz >= threshold
        X, Y = make_xy(A, 4, seed=5)

        async def _go():
            coalescer = Coalescer(
                runtime,
                max_batch=8,
                max_wait_ms=2.0,
                shard_min_nnz=64,
                max_queue=2,
            )
            try:
                # All six admission checks run before any execution task
                # gets loop time — exactly the burst that overshoots if
                # the slot is counted inside the task.
                tasks = [
                    asyncio.ensure_future(
                        coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
                    )
                    for _ in range(6)
                ]
                results = await asyncio.gather(*tasks, return_exceptions=True)
                await coalescer.drain()
                return results, coalescer.stats.as_dict()
            finally:
                coalescer.close()

        results, stats = asyncio.run(_go())
        runtime.close()
        rejected = [r for r in results if isinstance(r, QueueFullError)]
        completed = [r for r in results if isinstance(r, np.ndarray)]
        assert len(rejected) == 4
        assert len(completed) == 2
        assert stats["rejected_queue_full"] == 4
        expected = fusedmm(A, X, Y, pattern="sigmoid_embedding")
        for Z in completed:
            np.testing.assert_array_equal(Z, expected)

    def test_cancelled_while_queued_is_counted(self):
        """A client disconnecting while queued must land in ``cancelled``
        — neither silently skipped (stats drift) nor marked completed."""
        runtime = KernelRuntime(num_threads=1)
        A, X, Y = _mk_problem(30, 4, 0)

        async def _go():
            coalescer = Coalescer(
                runtime, max_batch=64, max_wait_ms=10_000.0, idle_flush_ms=0.0
            )
            try:
                keep = asyncio.ensure_future(
                    coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
                )
                doomed = [
                    asyncio.ensure_future(
                        coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
                    )
                    for _ in range(2)
                ]
                await asyncio.sleep(0)  # all three queued in the window
                for task in doomed:
                    task.cancel()
                await asyncio.gather(*doomed, return_exceptions=True)
                await coalescer.drain()
                await keep
                return coalescer.stats.as_dict()
            finally:
                coalescer.close()

        stats = asyncio.run(_go())
        runtime.close()
        assert stats["submitted"] == 3
        assert stats["completed"] == 1
        assert stats["cancelled"] == 2
        assert stats["submitted"] == (
            stats["completed"]
            + stats["failed"]
            + stats["cancelled"]
            + stats["rejected_queue_full"]
            + stats["rejected_draining"]
        )

    def test_drain_awaits_inflight_large_singles(self):
        """Graceful drain must wait for large-lane requests too, not just
        dispatched windows."""
        runtime = KernelRuntime(num_threads=1)
        A = random_csr(300, 300, density=0.2, seed=4)
        X, Y = make_xy(A, 4, seed=4)
        expected = fusedmm(A, X, Y, pattern="sigmoid_embedding")

        async def _go():
            coalescer = Coalescer(
                runtime, max_batch=8, max_wait_ms=2.0, shard_min_nnz=64
            )
            try:
                pending = asyncio.ensure_future(
                    coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
                )
                await asyncio.sleep(0)  # let the large lane dispatch
                finished = await asyncio.wait_for(coalescer.drain(), timeout=30)
                assert pending.done()  # drain returned only after the work
                return finished, await pending
            finally:
                coalescer.close()

        finished, Z = asyncio.run(_go())
        runtime.close()
        assert finished is True
        np.testing.assert_array_equal(Z, expected)

    def test_graceful_drain(self):
        runtime = KernelRuntime(num_threads=1)
        A, X, Y = _mk_problem(30, 4, 0)
        expected = fusedmm(A, X, Y, pattern="sigmoid_embedding")

        async def _go():
            coalescer = Coalescer(
                runtime, max_batch=64, max_wait_ms=10_000.0, idle_flush_ms=0.0
            )
            try:
                pending = [
                    asyncio.ensure_future(
                        coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
                    )
                    for _ in range(3)
                ]
                await asyncio.sleep(0)
                # Drain must flush the open window and finish the admitted
                # requests...
                finished = await asyncio.wait_for(coalescer.drain(), timeout=30)
                results = await asyncio.gather(*pending)
                # ...and reject everything arriving afterwards.
                with pytest.raises(DrainingError):
                    await coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
                return finished, results, coalescer.stats.as_dict()
            finally:
                coalescer.close()

        finished, results, stats = asyncio.run(_go())
        runtime.close()
        assert finished is True
        for Z in results:
            np.testing.assert_array_equal(Z, expected)
        assert stats["rejected_draining"] == 1
        assert DrainingError.http_status == 503


# ---------------------------------------------------------------------- #
# Awaiting the runtime from a coroutine (the coalescer's two calls)
# ---------------------------------------------------------------------- #
class TestAioBridge:
    def test_run_batch_async_matches_sync(self):
        runtime = KernelRuntime(num_threads=1)
        A, X, Y = _mk_problem(40, 4, 1)
        reqs = [KernelRequest(A=A, X=X, Y=Y) for _ in range(3)]
        expected = runtime.run_batch(reqs)

        async def _go():
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, runtime.run_batch, reqs)

        results = asyncio.run(_go())
        for Z, E in zip(results, expected):
            np.testing.assert_array_equal(Z, E)
        runtime.close()

    def test_wrap_runtime_future_completed(self):
        runtime = KernelRuntime(num_threads=1)
        A, X, Y = _mk_problem(40, 4, 1)
        done = runtime.submit_sharded(A, X, Y)
        done.result(timeout=30)

        async def _go():
            return await asyncio.wrap_future(done)

        Z = asyncio.run(_go())
        np.testing.assert_array_equal(Z, runtime.run(A, X, Y))
        runtime.close()

    def test_submit_sharded_async_fallback_without_workers(self):
        runtime = KernelRuntime(num_threads=1, processes=0)
        A, X, Y = _mk_problem(40, 4, 1)

        async def _go():
            return await asyncio.wrap_future(runtime.submit_sharded(A, X, Y))

        Z = asyncio.run(_go())
        np.testing.assert_array_equal(Z, runtime.run(A, X, Y))
        assert runtime.stats()["sharded_jobs"] == 0
        runtime.close()


# ---------------------------------------------------------------------- #
# Config + registry
# ---------------------------------------------------------------------- #
class TestConfigAndRegistry:
    def test_serve_config_validation(self):
        with pytest.raises(ShapeError):
            ServeConfig(max_batch=0)
        with pytest.raises(ShapeError):
            ServeConfig(max_queue=0)
        with pytest.raises(ShapeError):
            ServeConfig(max_wait_ms=-1)
        with pytest.raises(ShapeError):
            ServeConfig(
                models=(
                    ModelSpec("dup", "cora"),
                    ModelSpec("dup", "pubmed"),
                )
            )

    def test_model_spec_validation(self):
        with pytest.raises(Exception):
            ModelSpec(name="bad/slash", dataset="cora")
        with pytest.raises(Exception):
            ModelSpec(name="x", dataset="cora", app="unknown")

    def test_registry_loads_all_four_apps(self):
        config = ServeConfig(
            port=0,
            models=(
                ModelSpec("f2v", "cora", app="force2vec", dim=8, scale=0.05),
                ModelSpec("verse", "cora", app="verse", dim=8, scale=0.05),
                ModelSpec("gcn", "cora", app="gcn", dim=8, scale=0.05),
                ModelSpec("layout", "cora", app="fr_layout", dim=2, scale=0.05),
            ),
        )
        registry = ModelRegistry(config).load()
        try:
            assert registry.model_names() == ["f2v", "gcn", "layout", "verse"]
            for name in registry.model_names():
                model = registry.model(name)
                out = registry.embeddings(name)
                assert out.shape[0] == model.graph.num_vertices
                rows = registry.embeddings(name, np.asarray([0, 1]))
                np.testing.assert_array_equal(rows, out[:2])
            # Warm plans exist for the registered graphs.
            assert registry.runtime.cache_stats().size > 0
            with pytest.raises(Exception):
                registry.model("missing")
            with pytest.raises(Exception):
                registry.embeddings("f2v", np.asarray([10**9]))
        finally:
            registry.close()

    def test_registered_graph_requests_run_through_warm_plans(self):
        """Registering a graph plans the warm patterns but builds no block
        schedule; a request on it hits its warm plan, which keeps one."""
        registry = ModelRegistry(ServeConfig(port=0, models=()))
        try:
            A = random_csr(256, 256, density=8 / 256, seed=1)
            registry.register_graph("g", A)
            rt = registry.runtime
            fingerprint = registry.dynamic_graph("g").fingerprint
            plans = [plan for _, plan in rt._cache.entries_for(fingerprint)]
            assert plans and all(plan.schedule is None for plan in plans)
            X = random_features(256, 16, seed=1)
            backend = registry.config.kernel_backend
            hits = rt.cache_stats().hits
            request = KernelRequest(registry.graph("g"), X, backend=backend)
            (Z,) = rt.run_batch([request])
            assert np.array_equal(Z, fusedmm(A, X, X, backend=backend, num_threads=1))
            assert rt.cache_stats().hits == hits + 1
            (plan,) = [p for p in plans if p.resolved.name == "sigmoid_embedding"]
            assert (plan.schedule is not None) == (plan.kind == "generated")
        finally:
            registry.close()

    def test_warm_patterns_plan_each_plan_key_once(self):
        """``spmm`` shares ``gcn``'s plan key: registering a graph records
        no plan-cache hit, and an ``spmm`` request runs through the warm
        ``gcn`` plan."""
        registry = ModelRegistry(ServeConfig(port=0, models=()))
        try:
            A = random_csr(256, 256, density=8 / 256, seed=2)
            registry.register_graph("g", A)
            rt = registry.runtime
            assert rt.cache_stats().hits == 0
            fingerprint = registry.dynamic_graph("g").fingerprint
            entries = rt._cache.entries_for(fingerprint)
            assert len(entries) == 2
            X = random_features(256, 16, seed=2)
            backend = registry.config.kernel_backend
            request = KernelRequest(registry.graph("g"), X, pattern="spmm", backend=backend)
            (Z,) = rt.run_batch([request])
            ref = fusedmm(A, X, X, pattern="spmm", backend=backend, num_threads=1)
            assert np.array_equal(Z, ref)
            stats = rt.cache_stats()
            assert (stats.hits, stats.misses) == (1, 2)
            assert rt._cache.entries_for(fingerprint) == entries
        finally:
            registry.close()

    def test_apps_expose_serve_output(self):
        # The uniform lookup surface the registry reads; shapes per app.
        config = ServeConfig(
            port=0, models=(ModelSpec("m", "cora", app="force2vec", dim=4, scale=0.05),)
        )
        graph, app = config.models[0].build(config)
        out = app.serve_output()
        assert out.shape == (graph.num_vertices, 4)
        assert out.dtype == np.float32


# ---------------------------------------------------------------------- #
# HTTP end to end
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def live_server():
    config = ServeConfig(
        port=0,
        models=(ModelSpec("tiny", "cora", app="force2vec", dim=8, scale=0.05),),
        max_batch=8,
        max_wait_ms=2.0,
    )
    with BackgroundServer(config) as bg:
        yield bg


class TestHTTPEndToEnd:
    def test_healthz_and_statz(self, live_server):
        with ServeClient(live_server.host, live_server.port) as client:
            assert client.healthz()["status"] == "ok"
            stats = client.statz()
            assert stats["draining"] is False
            assert [m["name"] for m in stats["models"]] == ["tiny"]
            assert "coalescer" in stats and "runtime" in stats
            assert 0.0 <= stats["plan_cache_hit_rate"] <= 1.0

    def test_kernel_inline_graph_bitwise(self, live_server):
        A, X, Y = _mk_problem(50, 4, 7)
        expected = fusedmm(A, X, Y, pattern="sigmoid_embedding")
        with ServeClient(live_server.host, live_server.port) as client:
            for binary in (True, False):
                Z = client.kernel(
                    graph=A, X=X, Y=Y, pattern="sigmoid_embedding", binary=binary
                )
                if binary:
                    np.testing.assert_array_equal(Z, expected)  # bitwise
                else:
                    np.testing.assert_allclose(Z, expected, rtol=1e-6)

    def test_kernel_registered_graph_and_npy_fast_path(self, live_server):
        registry = live_server.server.registry
        A = registry.graph("tiny")
        X = random_features(A.nrows, 8, seed=9)
        expected = fusedmm(A, X, X, pattern="gcn")
        with ServeClient(live_server.host, live_server.port) as client:
            Z = client.kernel_npy(X, model="tiny", pattern="gcn")
            np.testing.assert_array_equal(Z, expected)

    def test_embed_lookup(self, live_server):
        with ServeClient(live_server.host, live_server.port) as client:
            rows = client.embed("tiny", [0, 3, 5])
            assert rows.shape == (3, 8)
            full = client.embed("tiny")
            np.testing.assert_array_equal(rows, full[[0, 3, 5]])

    def test_error_statuses(self, live_server):
        with ServeClient(live_server.host, live_server.port) as client:
            with pytest.raises(ServeHTTPError) as exc:
                client.embed("missing-model")
            assert exc.value.status == 404
            with pytest.raises(ServeHTTPError) as exc:
                client.kernel(model="tiny", X=np.zeros((3, 8)), pattern="nope")
            assert exc.value.status == 400
            with pytest.raises(ServeHTTPError) as exc:
                client.kernel(X=np.zeros((3, 8)))  # no model, no graph
            assert exc.value.status == 400
            conn, payload = client._request("GET", "/no/such/route")
            assert conn.status == 404
            # Malformed ids are a client error, not a 500.
            conn, payload = client._request("GET", "/v1/embed/tiny?ids=0,abc")
            assert conn.status == 400
            conn, payload = client._request(
                "POST",
                "/v1/embed/tiny",
                body=json.dumps({"ids": "abc"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            assert conn.status == 400

    def test_http_deadline_504(self):
        config = ServeConfig(
            port=0,
            models=(),
            max_batch=64,
            max_wait_ms=40.0,
            idle_flush_ms=0.0,
        )
        A, X, Y = _mk_problem(40, 4, 2)
        with BackgroundServer(config) as bg:
            with ServeClient(bg.host, bg.port) as client:
                with pytest.raises(ServeHTTPError) as exc:
                    client.kernel(graph=A, X=X, Y=Y, deadline_ms=1.0)
                assert exc.value.status == 504

    def test_http_queue_full_429(self):
        config = ServeConfig(
            port=0,
            models=(),
            max_batch=64,
            max_wait_ms=300.0,
            idle_flush_ms=0.0,
            max_queue=1,
        )
        A, X, Y = _mk_problem(40, 4, 2)
        statuses = []
        lock = threading.Lock()

        def _fire(bg):
            try:
                with ServeClient(bg.host, bg.port, timeout=30.0) as client:
                    client.kernel(graph=A, X=X, Y=Y)
                with lock:
                    statuses.append(200)
            except ServeHTTPError as exc:
                with lock:
                    statuses.append(exc.status)

        with BackgroundServer(config) as bg:
            threads = [
                threading.Thread(target=_fire, args=(bg,)) for _ in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert statuses.count(200) >= 1
        assert statuses.count(429) >= 1

    def test_concurrent_http_clients_bitwise_identical(self, live_server):
        problems = [_mk_problem(40 + 5 * i, 4, 20 + i) for i in range(4)]
        expected = [
            fusedmm(A, X, Y, pattern="sigmoid_embedding") for A, X, Y in problems
        ]
        mismatches = []

        def _client(cid):
            with ServeClient(live_server.host, live_server.port) as client:
                for r in range(6):
                    i = (cid + r) % len(problems)
                    A, X, Y = problems[i]
                    Z = client.kernel(graph=A, X=X, Y=Y, binary=True)
                    if not np.array_equal(Z, expected[i]):
                        mismatches.append((cid, r))

        threads = [
            threading.Thread(target=_client, args=(c,)) for c in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert mismatches == []

    def test_graceful_drain_closes_listener(self):
        config = ServeConfig(port=0, models=())
        bg = BackgroundServer(config).start()
        host, port = bg.host, bg.port
        with ServeClient(host, port) as client:
            assert client.healthz()["status"] == "ok"
        bg.stop()
        with pytest.raises(OSError):
            with ServeClient(host, port, timeout=2.0) as client:
                client.healthz()


# ---------------------------------------------------------------------- #
# End-to-end regressions for the serving bugfix sweep
# ---------------------------------------------------------------------- #
class TestServeRegressions:
    def test_explicit_zero_deadline_disables_server_default(self):
        """``deadline_ms: 0`` means *no deadline*, even when the server
        configures a default — an ``or``-chain collapses the explicit 0
        into "absent" and re-imposes the default on exactly the clients
        opting out."""
        config = ServeConfig(
            port=0,
            models=(),
            max_batch=64,
            max_wait_ms=150.0,
            idle_flush_ms=0.0,
            default_deadline_ms=25.0,
        )
        with BackgroundServer(config) as bg:
            A, X, Y = _mk_problem(30, 4, 13)
            expected = fusedmm(A, X, Y, pattern="sigmoid_embedding")
            with ServeClient(bg.host, bg.port, timeout=30.0) as client:
                # No client deadline: the 25ms server default applies and
                # expires inside the 150ms window wait.
                with pytest.raises(ServeHTTPError) as exc:
                    client.kernel(graph=A, X=X, Y=Y)
                assert exc.value.status == 504
                # Explicit 0 disables the default: same request, 200.
                Z = client.kernel(graph=A, X=X, Y=Y, deadline_ms=0)
                np.testing.assert_array_equal(Z, expected)
                # A real client deadline still wins over the default.
                with pytest.raises(ServeHTTPError) as exc:
                    client.kernel(graph=A, X=X, Y=Y, deadline_ms=1.0)
                assert exc.value.status == 504

    def test_http_10_connection_closed_after_response(self, live_server):
        """A 1.0 client without ``Connection: keep-alive`` reads to EOF;
        the server must close after the response instead of parking the
        connection in keep-alive."""
        import socket as socket_mod

        with socket_mod.create_connection(
            (live_server.host, live_server.port), timeout=10.0
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            blob = b""
            while True:  # EOF must arrive; a held-open socket times out
                chunk = sock.recv(4096)
                if not chunk:
                    break
                blob += chunk
        head, _, body = blob.partition(b"\r\n\r\n")
        assert b" 200 " in head.split(b"\r\n")[0]
        assert b"Connection: close" in head
        assert json.loads(body) == {"status": "ok"}


# ---------------------------------------------------------------------- #
# Observability wiring
# ---------------------------------------------------------------------- #
class TestStatsSurfacing:
    def test_runtime_stats_grow_coalescer_section(self):
        runtime = KernelRuntime(num_threads=1)
        assert "coalescer" not in runtime.stats()
        A, X, Y = _mk_problem(30, 4, 0)

        async def _go():
            coalescer = Coalescer(runtime, max_batch=4, max_wait_ms=2.0)
            try:
                await coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
                stats = runtime.stats()
                return stats
            finally:
                coalescer.close()

        stats = asyncio.run(_go())
        assert stats["coalescer"]["submitted"] == 1
        assert "mean_window_occupancy" in stats["coalescer"]
        assert "wait_ms_p99" in stats["coalescer"]
        # Detached again after close().
        assert "coalescer" not in runtime.stats()
        runtime.close()

    def test_attach_stats_section_replace_and_detach(self):
        runtime = KernelRuntime(num_threads=1)
        runtime.attach_stats_section("extra", lambda: {"x": 1})
        assert runtime.stats()["extra"] == {"x": 1}
        runtime.attach_stats_section("extra", lambda: {"x": 2})
        assert runtime.stats()["extra"] == {"x": 2}
        runtime.attach_stats_section("extra", None)
        assert "extra" not in runtime.stats()
        runtime.close()


# ---------------------------------------------------------------------- #
# CLI wiring
# ---------------------------------------------------------------------- #
class TestCLI:
    def test_parser_knows_serve_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--models"])
        assert args.func.__name__ == "_cmd_serve"
        assert args.models == []
        args = parser.parse_args(["bench", "serve", "--clients", "2"])
        assert args.func.__name__ == "_cmd_bench"
        assert args.bench_command == "serve"
        args = parser.parse_args(["runtime", "stats", "--serve"])
        assert args.serve is True

    def test_runtime_stats_serve_prints_coalescer_metrics(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "runtime",
                    "stats",
                    "--nodes",
                    "500",
                    "--epochs",
                    "2",
                    "--serve",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Coalescer" in out
        assert "mean_window_occupancy" in out
        assert "wait_ms_p99" in out


# ---------------------------------------------------------------------- #
# Serving + sharded tier (worker processes)
# ---------------------------------------------------------------------- #
def test_coalescer_sharded_route_bitwise_with_workers():
    """A large request through the worker-pool lane returns exactly the
    serial kernel's bytes."""
    runtime = KernelRuntime(num_threads=1, processes=2, shard_min_nnz=64)
    try:
        A = random_csr(400, 400, density=0.1, seed=5)
        X, Y = make_xy(A, 4, seed=5)
        expected = fusedmm(A, X, Y, pattern="sigmoid_embedding")

        async def _go():
            coalescer = Coalescer(runtime, max_batch=4, shard_min_nnz=64)
            try:
                return await coalescer.submit(KernelRequest(A=A, X=X, Y=Y))
            finally:
                coalescer.close()

        Z = asyncio.run(_go())
        np.testing.assert_array_equal(Z, expected)
    finally:
        runtime.close()


def test_bench_serve_rows_shape():
    """The load generator produces trend-gateable rows (tiny run)."""
    from repro.bench.serve_bench import bench_serve_throughput

    rows = bench_serve_throughput(
        clients=2, requests_per_client=3, nodes=48, dim=4, num_graphs=2
    )
    assert [r["mode"] for r in rows] == ["serial", "coalesced"]
    for row in rows:
        assert row["bitwise_identical"] is True
        assert row["rps"] > 0
    assert "speedup_vs_serial" in rows[1]


def test_statz_document_is_json_serialisable():
    config = ServeConfig(port=0, models=())
    server = KernelServer(config)

    async def _go():
        await server.start()
        try:
            return server.statz()
        finally:
            await server.shutdown()

    doc = asyncio.run(_go())
    blob = json.loads(json.dumps(doc))
    assert blob["requests_served"] == 0
    assert blob["config"]["max_batch"] == config.max_batch
