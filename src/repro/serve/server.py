"""The asyncio HTTP serving front-end (``repro serve``).

:class:`KernelServer` glues the pieces of :mod:`repro.serve` together:
the :class:`~repro.serve.registry.ModelRegistry` (warm graphs, models and
plans), the :class:`~repro.serve.coalescer.Coalescer` (micro-batching +
admission control), the handcrafted HTTP/1.1 layer of
:mod:`repro.serve.protocol` and the :class:`~repro.serve.ops.OpTable`
both front-ends share.  The HTTP side is a route codec: each route of
:data:`~repro.serve.protocol.HTTP_ROUTES` names an op, whose meta and
arrays decode from the path, query string and body.

Endpoints
---------
``GET  /healthz``
    ``200 {"status": "ok"}`` while serving, ``503`` once draining.
``GET  /statz``
    Coalescer stats (batches formed, mean window occupancy, p50/p99
    queue wait), runtime stats (plan-cache hit rate, scheduling
    counters, shard tier), model listing, uptime and config.
``POST /v1/kernel``
    One FusedMM execution.  JSON envelope::

        {"pattern": "sigmoid_embedding",      # any registered pattern
         "model": "cora-f2v",                 # a registered graph…
         "graph": {"shape": [n, n], "indptr": [...],
                   "indices": [...], "data": [...]},   # …or inline CSR
         "x": [[...]] | {"npy_b64": "..."},   # operands (y optional)
         "backend": "auto", "deadline_ms": 50,
         "response": "json" | "npy"}

    Alternatively ``Content-Type: application/x-npy`` with the raw
    ``.npy`` X operand as the body and ``model``/``pattern`` in the query
    string — the zero-copy fast path.  ``response: "npy"`` (or
    ``Accept: application/x-npy``) returns the result as raw ``.npy``.
``POST /v1/embed/<model>`` / ``GET /v1/embed/<model>?ids=0,5,7``
    Rows of a registered model's servable output matrix (embeddings,
    positions or class probabilities).
``POST /v1/graph/<name>/edges``
    Live edge updates against a registered graph::

        {"insert": [[u, v, weight], ...],   # upsert; weight optional→1.0
         "delete": [[u, v], ...]}           # applied before inserts

    Returns the new version + fingerprint and per-batch counters.  The
    graph's version advances atomically: requests admitted before the
    swap keep computing on the version they resolved.

Status mapping (:func:`~repro.serve.ops.error_result`): admission queue
full → 429, draining → 503, deadline expired → 504, malformed
payloads/unknown names → 400/404, oversized bodies → 413.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, Optional, Tuple

import numpy as np

from ..jobs import JobManager
from .coalescer import Coalescer
from .config import ServeConfig
from .ops import Listener, OpTable, Result, error_result
from .protocol import (
    JSON_ARRAY_KEYS,
    HTTPRequest,
    ProtocolError,
    array_from_npy,
    decode_array,
    encode_array,
    npy_bytes,
    read_http_request,
    route,
    write_http_response,
)
from .registry import ModelRegistry

__all__ = ["KernelServer"]

#: Grace period (seconds) for in-flight work on shutdown.
DRAIN_TIMEOUT_S = 10.0
#: Requeue attempts for crashed or faulted training jobs before ``failed``.
JOB_RETRIES = 3

_JSON = "application/json"
_NPY = "application/x-npy"
_CSR_FIELDS = (("indptr", np.int64), ("indices", np.int64), ("data", np.float32))


def _json_body(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _decode(request: HTTPRequest) -> Tuple[str, dict, Dict[str, np.ndarray]]:
    """``(op, meta, arrays)`` of one request.  The route names the op and
    its path parameters; meta is the query string overlaid by the JSON
    body's fields, and operands decode into arrays."""
    op, params = route(request.method, request.path)
    arrays: Dict[str, np.ndarray] = {}
    ctype = request.headers.get("content-type", _JSON).split(";")[0].strip()
    if op == "kernel" and ctype == _NPY:  # raw npy X, the rest in the query
        arrays["x"] = array_from_npy(request.body)
        body: dict = {}
    else:
        body = request.json() if request.method == "POST" else {}
    if op == "train":
        return op, body, arrays  # the body *is* the job spec
    query: Dict[str, object] = dict(request.query)
    if "ids" in query:
        query["ids"] = [tok for tok in request.query["ids"].split(",") if tok]
    meta = {**query, **{k: v for k, v in body.items() if v is not None}, **params}
    # Absent and 0 differ (an explicit 0 disables the server default), so
    # the header is a fallback only when no other source set a value.
    if meta.get("deadline_ms") is None and "x-deadline-ms" in request.headers:
        meta["deadline_ms"] = request.headers["x-deadline-ms"]
    for name in ("x", "y"):
        if name in meta:
            arrays[name] = decode_array(meta.pop(name), dtype=np.float32)
    graph = meta.pop("graph", None)
    if graph is not None:
        if not isinstance(graph, dict):
            raise ProtocolError("'graph' must be an object with CSR fields")
        meta["graph_shape"] = graph.get("shape")
        for name, dtype in _CSR_FIELDS:
            if name in graph:
                arrays[name] = decode_array(graph[name], dtype=dtype)
    return op, meta, arrays


class KernelServer(Listener):
    """Asyncio HTTP server coalescing kernel traffic onto one runtime.

    Typical lifecycle::

        server = KernelServer(ServeConfig(port=8571))
        server.run()          # load registry, serve until SIGINT, drain

    or, embedded in an existing loop / the tests::

        await server.start()          # registry.load() + listener up
        ...
        await server.shutdown()       # drain + close

    ``port=0`` binds an ephemeral port; :attr:`port` reports the real one
    once started.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        super().__init__()
        self.config = config or ServeConfig()
        self.registry = ModelRegistry(self.config)
        self.coalescer: Optional[Coalescer] = None
        self.wire: Optional["WireServer"] = None
        #: training-job supervisor (``/v1/train``); built on :meth:`start`
        self.jobs: Optional[JobManager] = None
        self._started = time.monotonic()
        #: the request handlers both front-ends share
        self.ops = OpTable(self)
        #: Shared fault-injection counter for HTTP and wire requests
        #: (``ServeConfig.fault_spec``) — ``None`` in normal operation.
        self.fault_injector = None
        if self.config.fault_spec:
            from ..resilience import FaultInjector, FaultPlan

            self.fault_injector = FaultInjector(
                FaultPlan.from_spec(self.config.fault_spec)
            )

    # ------------------------------------------------------------------ #
    @property
    def wire_port(self) -> Optional[int]:
        """The bound wire port, or ``None`` when wire serving is off."""
        return None if self.wire is None else self.wire.port

    @property
    def draining(self) -> bool:
        return self.coalescer is not None and self.coalescer.draining

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "KernelServer":
        """Load the registry (warm everything) and open the listener."""
        if not self.registry.loaded:
            self.registry.load()
        self.coalescer = Coalescer(
            self.registry.runtime,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            idle_flush_ms=self.config.idle_flush_ms,
            max_queue=self.config.max_queue,
            shard_min_nnz=self.config.shard_min_nnz,
            dispatch_workers=self.config.dispatch_workers,
        )
        if self.jobs is None:
            from ..resilience import RetryPolicy

            self.jobs = JobManager(
                self.config.job_dir,
                max_active=self.config.max_jobs,
                max_queue=self.config.max_job_queue,
                retry=RetryPolicy(
                    base_delay=0.05,
                    max_delay=1.0,
                    multiplier=2.0,
                    jitter=0.0,
                    max_attempts=JOB_RETRIES,
                    seed=0,
                ),
            )
            # Requeue anything a previous process left unfinished; each
            # resumes from its newest durable checkpoint.
            self.jobs.recover()
            self.registry.runtime.attach_stats_section("jobs", self.jobs.stats)
        await self._listen()
        if self.config.wire_port is not None:
            from .wire import WireServer

            self.wire = WireServer(self)
            await self.wire.start()
        self._started = time.monotonic()
        return self

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, close."""
        await self.stop_accepting()
        if self.wire is not None:
            await self.wire.stop_accepting()
        if self.jobs is not None:
            # Jobs checkpoint at their next epoch boundary and stay
            # resumable on disk; recover() requeues them next start.
            await asyncio.to_thread(self.jobs.close)
            self.registry.runtime.attach_stats_section("jobs", None)
            self.jobs = None
        if self.coalescer is not None:
            # Drain with wire connections still open: frames pipelined
            # before the drain finish and flush normally, frames arriving
            # during it get 503 error frames instead of a dead socket.
            await self.coalescer.drain(timeout=DRAIN_TIMEOUT_S)
        if self.wire is not None:
            # Cutting wire read loops outright would drop request frames a
            # client pipelined that still sit unread on the socket, and every
            # received frame is answered (503 once draining): connections get
            # the drain grace to finish, then the rest is cut.
            await self.wire.close_connections(timeout=DRAIN_TIMEOUT_S)
            self.wire = None
        if self.coalescer is not None:
            self.coalescer.close()
            self.coalescer = None
        # Idle keep-alive connections are parked in read(); in-flight work
        # is already drained, so cutting them now loses nothing.
        await self.close_connections()
        self.registry.close()

    def run(self) -> None:
        """Blocking entry point: start, serve, drain on SIGINT/SIGTERM."""

        async def _main() -> None:
            await self.start()
            loop = asyncio.get_running_loop()
            stop = loop.create_future()

            def _request_stop() -> None:
                if not stop.done():
                    stop.set_result(None)

            import contextlib
            import signal

            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError):
                    loop.add_signal_handler(sig, _request_stop)
            wire_note = (
                f", wire on port {self.wire_port}" if self.wire else ""
            )
            print(
                f"repro serve: listening on http://{self.config.host}:{self.port}"
                f"{wire_note} "
                f"(models: {', '.join(self.registry.model_names()) or 'none'})",
                flush=True,
            )
            await stop
            print("repro serve: draining...", flush=True)
            await self.shutdown()
            print("repro serve: drained, bye", flush=True)

        asyncio.run(_main())

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        while True:
            try:
                request = await read_http_request(
                    reader, max_body_bytes=self.config.max_body_bytes
                )
            except ProtocolError as exc:
                status, meta, _ = error_result(exc)
                write_http_response(writer, status, _json_body(meta), keep_alive=False)
                await writer.drain()
                break
            if request is None:
                break
            fault = await self.ops.fault()
            if fault == "drop_frame":
                # A sever mid-status-line: the client sees a BadStatusLine,
                # never a parseable response.
                writer.write(b"HTTP/1.1 2")
                await writer.drain()
            if fault is not None:  # crash / disconnect: sever unanswered
                break
            status, body, ctype = await self._dispatch(request)
            write_http_response(
                writer,
                status,
                body,
                content_type=ctype,
                keep_alive=request.keep_alive,
            )
            await writer.drain()
            if not request.keep_alive:
                break

    async def _dispatch(self, request: HTTPRequest) -> Tuple[int, bytes, str]:
        """The route codec: one request through the op table; returns
        ``(status, body, content_type)``."""
        status, meta, arrays = await self.ops.answer("http", self._call(request))
        if arrays:
            return status, npy_bytes(arrays["z"]), _NPY
        return status, _json_body(meta), _JSON

    async def _call(self, request: HTTPRequest) -> Result:
        op, fields, arrays = _decode(request)
        accept = request.headers.get("accept", "")
        wants_npy = fields.get("response") == "npy" or accept.startswith(_NPY)
        status, meta, arrays = await self.ops.run(op, fields, arrays)
        if arrays and not wants_npy:
            meta = {**meta, JSON_ARRAY_KEYS[op]: encode_array(arrays["z"])}
            arrays = {}
        return status, meta, arrays

    # ------------------------------------------------------------------ #
    def statz(self) -> Dict[str, object]:
        """The ``/statz`` document (also used by tests and the CLI)."""
        runtime_stats = self.registry.runtime.stats()
        coalescer = runtime_stats.pop("coalescer", None)
        if coalescer is None and self.coalescer is not None:
            coalescer = self.coalescer.stats.as_dict()
        cache = runtime_stats.get("plan_cache") or {}
        hits = cache.get("hits", 0)
        misses = cache.get("misses", 0)
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "requests_served": self.ops.answered["http"],
            "draining": self.draining,
            "queued": 0 if self.coalescer is None else self.coalescer.queued,
            "plan_cache_hit_rate": (
                round(hits / (hits + misses), 4) if (hits + misses) else 0.0
            ),
            "coalescer": coalescer,
            "jobs": None if self.jobs is None else self.jobs.stats(),
            "wire": None if self.wire is None else self.wire.describe(),
            "runtime": runtime_stats,
            "models": self.registry.describe(),
            "registry_load_seconds": round(self.registry.load_seconds, 3),
            "config": self.config.describe(),
        }
