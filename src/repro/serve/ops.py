"""The request layer both serving front-ends share.

A request is ``(op, meta, arrays)``: an op name, a JSON-able ``meta``
dict and named NumPy ``arrays``.  :class:`OpTable` answers it with
``(status, meta, arrays)``.  The HTTP front-end (:mod:`.server`) is a
route codec onto this table and the wire front-end (:mod:`.wire`) a frame
codec, so the request handlers, inline-CSR decoding, deadline resolution,
the exception → status mapping (:func:`error_result`), the request
counters and fault injection exist once.  :class:`Listener` is the
connection bookkeeping both front-ends share.

Ops (:data:`OPS`): ``healthz``, ``statz``,
``kernel`` (``model`` or an inline CSR as ``graph_shape`` + ``indptr``/
``indices``/``data``; operands ``x``/``y``; ``pattern``, ``backend``,
``deadline_ms``), ``embed`` (``model``, ``ids``), ``mutate`` (``model``,
``insert``, ``delete``), ``train`` (the meta *is* the job spec), ``jobs``,
``job``, ``cancel_job`` and ``job_result`` (``job_id``).  A result array
is always named ``z``.  ``ids``, ``insert`` and ``delete`` may ride as
arrays (wire npy blobs) or as meta lists (HTTP JSON); both reach the same
validation.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Awaitable, Dict, Optional, Tuple

import numpy as np

from ..errors import DatasetError, JobNotFoundError, ReproError, ServeError
from ..framing import ProtocolError
from ..jobs import JobSpec
from ..runtime import KernelRequest
from ..sparse import CSRMatrix
from .config import resolve_deadline_ms

__all__ = ["OPS", "Listener", "OpTable", "Result", "error_result"]

Result = Tuple[int, Dict[str, object], Dict[str, np.ndarray]]

#: The op names, one :class:`OpTable` method each.
OPS = frozenset(
    "healthz statz kernel embed mutate train jobs job cancel_job job_result".split()
)


def error_result(exc: Exception) -> Result:
    """The one exception → status mapping both transports answer with:
    protocol and serving errors carry their own status, unknown names are
    404, other validation errors 400, anything else 500."""
    if isinstance(exc, ProtocolError):
        status, message = exc.status, str(exc)
    elif isinstance(exc, ServeError):
        status, message = exc.http_status, str(exc)
    elif isinstance(exc, (DatasetError, JobNotFoundError)):
        # KeyError reprs its message; unwrap for a clean error body.
        status, message = 404, str(exc.args[0] if exc.args else exc)
    elif isinstance(exc, ReproError):
        status, message = 400, str(exc)
    else:
        status, message = 500, f"internal error: {exc}"
    return status, {"error": message, "status": status}, {}


def _operand(meta: dict, arrays: Dict[str, np.ndarray], name: str):
    """An operand that rides as an npy array (wire) or a JSON list (HTTP)."""
    return arrays[name] if name in arrays else meta.get(name)


def _required(meta: dict, name: str, op: str) -> str:
    value = meta.get(name)
    if value is None or value == "":
        raise ProtocolError(f"{op} request needs {name!r}")
    return str(value)


class OpTable:
    """Executes ops against one :class:`~repro.serve.KernelServer`'s
    registry, coalescer and job manager, and counts what it answers."""

    def __init__(self, server) -> None:
        self._server = server
        #: answered requests per transport, errors included
        self.answered = {"http": 0, "wire": 0}
        #: the error answers among them
        self.errors = {"http": 0, "wire": 0}

    async def answer(self, transport: str, request: Awaitable[Result]) -> Result:
        """Await one decoded request (a codec coroutine that ends in
        :meth:`run`); a failure anywhere in it becomes its error result."""
        try:
            result = await request
        except Exception as exc:
            result = error_result(exc)
        self.answered[transport] += 1
        if result[0] >= 400:
            self.errors[transport] += 1
        return result

    async def run(self, op: str, meta: dict, arrays: Dict[str, np.ndarray]) -> Result:
        if op not in OPS:
            raise ProtocolError(f"unknown op {op!r}", status=404)
        return await getattr(self, op)(meta, arrays)

    async def fault(self) -> Optional[str]:
        """Step the fault plan (``ServeConfig.fault_spec``) for one request.
        A ``delay`` is slept through here; the kind of a fault that severs
        the connection (``drop_frame``, ``crash``, ``disconnect``) is
        returned for the codec to act on."""
        injector = self._server.fault_injector
        fault = None if injector is None else injector.step()
        if fault is None:
            return None
        if fault.kind == "delay":
            await asyncio.sleep(fault.arg)
            return None
        return fault.kind

    # ------------------------------------------------------------------ #
    async def healthz(self, meta, arrays) -> Result:
        if self._server.draining:
            return 503, {"status": "draining"}, {}
        return 200, {"status": "ok"}, {}

    async def statz(self, meta, arrays) -> Result:
        return 200, self._server.statz(), {}

    async def kernel(self, meta, arrays) -> Result:
        coalescer = self._server.coalescer
        if coalescer is None:
            raise ProtocolError("server not started", status=503)
        A = self._adjacency(meta, arrays)
        raw_deadline = meta.get("deadline_ms")
        try:
            deadline_ms = resolve_deadline_ms(
                raw_deadline, self._server.config.default_deadline_ms
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid deadline_ms: {raw_deadline!r}") from exc
        pattern = str(meta.get("pattern") or "sigmoid_embedding")
        request = KernelRequest(
            A=A,
            X=arrays.get("x"),
            Y=arrays.get("y"),
            pattern=pattern,
            backend=str(meta.get("backend") or "auto"),
        )
        Z = await coalescer.submit(request, deadline_ms=deadline_ms)
        return 200, {"shape": list(Z.shape), "pattern": pattern}, {"z": Z}

    def _adjacency(self, meta, arrays) -> CSRMatrix:
        """A registered graph by ``model`` name, or the inline CSR."""
        model = meta.get("model")
        if model is not None:
            return self._server.registry.graph(str(model))
        if "indptr" not in arrays or "indices" not in arrays:
            raise ProtocolError(
                "kernel request needs 'model' (a registered graph) or an "
                "inline graph"
            )
        try:
            indptr = arrays["indptr"].astype(np.int64, copy=False)
            indices = arrays["indices"].astype(np.int64, copy=False)
            data = arrays.get("data")
            if data is None or (data.size == 0 and indices.size):
                data = np.ones(indices.shape[0], dtype=np.float32)
            shape = meta.get("graph_shape")
            nrows = int(shape[0]) if shape else indptr.shape[0] - 1
            ncols = int(shape[1]) if shape else nrows
            return CSRMatrix(
                nrows, ncols, indptr, indices, data.astype(np.float32, copy=False)
            )
        except ReproError:
            raise
        except Exception as exc:
            raise ProtocolError(f"malformed inline graph: {exc}") from exc

    async def embed(self, meta, arrays) -> Result:
        model = _required(meta, "model", "embed")
        ids = _operand(meta, arrays, "ids")
        try:
            ids = None if ids is None else np.asarray(ids, dtype=np.int64)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid ids: {exc}") from exc
        rows = self._server.registry.embeddings(model, ids)
        return 200, {"model": model, "shape": list(rows.shape)}, {"z": rows}

    async def mutate(self, meta, arrays) -> Result:
        """Apply one edge batch.  The splice + plan refresh runs on a worker
        thread (serialised by the graph's write lock) so reads, pinned to
        the version they resolved at admission, keep flowing."""
        model = _required(meta, "model", "mutate")
        insert = _operand(meta, arrays, "insert")
        delete = _operand(meta, arrays, "delete")
        if insert is None and delete is None:
            raise ProtocolError(
                "mutation needs 'insert' ([[u, v, w], ...]) and/or "
                "'delete' ([[u, v], ...])"
            )
        result = await asyncio.to_thread(
            self._server.registry.mutate_graph, model, insert, delete
        )
        return 200, {"graph": model, **result.as_dict()}, {}

    # ------------------------------------------------------------------ #
    def _jobs(self):
        if self._server.jobs is None:
            raise ProtocolError("server not started", status=503)
        return self._server.jobs

    async def train(self, meta, arrays) -> Result:
        job_id = self._jobs().submit(JobSpec.from_dict(meta))
        return 202, {"job_id": job_id, "state": "pending"}, {}

    async def jobs(self, meta, arrays) -> Result:
        return 200, {"jobs": self._jobs().list_jobs()}, {}

    async def job(self, meta, arrays) -> Result:
        return 200, self._jobs().status(_required(meta, "job_id", "job")), {}

    async def cancel_job(self, meta, arrays) -> Result:
        return 200, self._jobs().cancel(_required(meta, "job_id", "job")), {}

    async def job_result(self, meta, arrays) -> Result:
        job_id = _required(meta, "job_id", "job")
        rows = self._jobs().result(job_id)
        return 200, {"job_id": job_id, "shape": list(rows.shape)}, {"z": rows}


#: a peer that hung up, or shutdown cutting the connection
_HUNG_UP = (ConnectionResetError, BrokenPipeError, asyncio.CancelledError)


class Listener:
    """A TCP listener on ``config.host`` and the ``config`` port named by
    :attr:`port_field`; it tracks its connection handlers, so shutdown can
    wait for or cut them.  Subclasses set ``config`` and implement
    ``_handle_connection(reader, writer)``; the writer is closed when it
    returns."""

    port_field = "port"

    def __init__(self) -> None:
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: "set[asyncio.Task]" = set()

    @property
    def port(self) -> int:
        """The bound port (the configured one before :meth:`_listen`)."""
        if self._server is None or not self._server.sockets:
            return getattr(self.config, self.port_field) or 0
        return self._server.sockets[0].getsockname()[1]

    async def _listen(self) -> None:
        self._server = await asyncio.start_server(
            self._accept,
            host=self.config.host,
            port=getattr(self.config, self.port_field),
        )

    async def stop_accepting(self) -> None:
        """Close the listener; existing connections keep draining."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def close_connections(self, timeout: Optional[float] = None) -> None:
        """Give open connections ``timeout`` seconds to finish on their
        own, then cut whatever is still connected."""
        if self._connections and timeout:
            await asyncio.wait(set(self._connections), timeout=timeout)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def _accept(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        try:
            await self._handle_connection(reader, writer)
        except _HUNG_UP:
            pass
        finally:
            writer.close()
            with contextlib.suppress(*_HUNG_UP):  # teardown races
                await writer.wait_closed()
