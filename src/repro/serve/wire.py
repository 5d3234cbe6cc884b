"""Length-prefixed binary wire protocol for the serving front-end.

The HTTP/1.1 front-end is the compatibility surface; on 1 CPU its parse +
JSON framing dominates small requests, so the transport — not the kernel
— bounds small-request throughput.  This module adds the transport-light
alternative: a framed binary protocol over raw asyncio sockets that
shares the :class:`~repro.serve.coalescer.Coalescer` and
:class:`~repro.serve.registry.ModelRegistry` with the HTTP server, so
responses stay bitwise identical to serial execution regardless of which
front door a request used.

Frame layout (network byte order)::

    magic      2 bytes   b"RW"
    version    1 byte    WIRE_VERSION (1)
    opcode     1 byte    OP_*
    request_id 8 bytes   client-assigned; echoed on the response
    length     4 bytes   payload byte count
    payload    <length>  opcode-specific container (below)

Payload container: ``meta_len:u32 | meta JSON | (blob_len:u32 | npy blob)``
repeated once per name in ``meta["arrays"]`` — arrays ride as NumPy
``.npy`` blobs (bitwise-faithful dtypes, no float→decimal round trip),
everything scalar rides in the small JSON meta block.

Connection protocol:

* On connect the server sends one ``OP_HELLO`` frame (request-id 0)
  whose meta carries the **credit grant**: the number of outstanding
  (unanswered) requests this connection may pipeline.  Each request
  consumes a credit; each response (result or error) replenishes it.
  Exceeding the grant is a protocol error — the server answers with a
  status-400 error frame and closes.  Credits bound per-connection
  memory without touching the global admission queue.
* Clients **pipeline**: many request-ids may be outstanding and
  responses arrive in *completion* order, not submission order.
* Errors mirror the HTTP status mapping (429 queue full, 503 draining,
  504 deadline expired, 400/404 malformed or unknown names) as
  ``OP_ERROR`` frames carrying ``{"status": ..., "error": ...}``.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Dict, Optional, Tuple

import numpy as np

from ..framing import (
    FRAME_HEADER,
    FrameCodec,
    ProtocolError,
    decode_payload,
    encode_payload,
    error_from_meta,
)
from .connect import Client, kernel_request
from .ops import Listener, Result, error_result

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WIRE_CODEC",
    "OP_HELLO",
    "OP_KERNEL",
    "OP_EMBED",
    "OP_STATZ",
    "OP_TRAIN",
    "OP_JOB",
    "OP_MUTATE",
    "OP_RESULT",
    "OP_ERROR",
    "FRAME_HEADER",
    "pack_frame",
    "unpack_header",
    "encode_payload",
    "decode_payload",
    "WireServer",
    "WireClient",
]

WIRE_MAGIC = b"RW"
WIRE_VERSION = 1

OP_HELLO = 0x01
OP_KERNEL = 0x10
OP_EMBED = 0x11
OP_STATZ = 0x12
OP_TRAIN = 0x13
OP_JOB = 0x14
OP_MUTATE = 0x15
OP_RESULT = 0x20
OP_ERROR = 0x21

#: The frame codec of this protocol.  Mechanics (header layout, payload
#: container, blocking/async readers) live in :mod:`repro.framing` and are
#: shared with the distributed worker transport; only the magic/version
#: stamp differs.
WIRE_CODEC = FrameCodec(WIRE_MAGIC, WIRE_VERSION)


# ---------------------------------------------------------------------- #
# Frame codec (module-level aliases kept for compatibility)
# ---------------------------------------------------------------------- #
pack_frame = WIRE_CODEC.pack_frame
unpack_header = WIRE_CODEC.unpack_header
_read_frame = WIRE_CODEC.read_frame_async


#: request opcode -> op; ``OP_JOB`` frames name theirs in ``meta["action"]``
_FRAME_OPS = {
    OP_KERNEL: "kernel",
    OP_EMBED: "embed",
    OP_STATZ: "statz",
    OP_TRAIN: "train",
    OP_MUTATE: "mutate",
}
_JOB_ACTIONS = {
    "status": "job",
    "list": "jobs",
    "cancel": "cancel_job",
    "result": "job_result",
}
_REQUEST_OPS = (*_FRAME_OPS, OP_JOB)
#: op -> (opcode, job action): how a client frames each op
_OP_FRAMES = {
    **{op: (opcode, None) for opcode, op in _FRAME_OPS.items()},
    **{op: (OP_JOB, action) for action, op in _JOB_ACTIONS.items()},
}
#: ops whose result document the wire nests under one meta key
_NESTED = {"statz": "statz", "job": "job", "cancel_job": "job"}


def _frame_op(opcode: int, meta: dict) -> str:
    if opcode != OP_JOB:
        return _FRAME_OPS[opcode]
    action = str(meta.get("action", "status"))
    if action not in _JOB_ACTIONS:
        raise ProtocolError(f"unknown job action {action!r}")
    return _JOB_ACTIONS[action]


# ---------------------------------------------------------------------- #
# Server
# ---------------------------------------------------------------------- #
class WireServer(Listener):
    """The binary-protocol listener beside a ``KernelServer``.

    Owns no kernel state: it is a frame codec onto the owner's
    :class:`~repro.serve.ops.OpTable`, the same op table HTTP requests
    reach, so both transports answer identical requests with identical
    statuses and bitwise-identical results.  The owning server
    starts/stops it.
    """

    port_field = "wire_port"

    def __init__(self, owner) -> None:
        super().__init__()
        self._owner = owner
        self.config = owner.config
        self.protocol_errors = 0
        self.connections_accepted = 0

    # ------------------------------------------------------------------ #
    async def start(self) -> "WireServer":
        assert self.config.wire_port is not None, "wire_port not configured"
        await self._listen()
        return self

    def describe(self) -> Dict[str, object]:
        """The ``wire`` block of ``/statz``."""
        return {
            "port": self.port,
            "credits": self.config.wire_credits,
            "connections_accepted": self.connections_accepted,
            "frames_served": self._owner.ops.answered["wire"],
            "errors_sent": self._owner.ops.errors["wire"],
            "protocol_errors": self.protocol_errors,
        }

    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        self.connections_accepted += 1
        write_lock = asyncio.Lock()
        outstanding: "set[asyncio.Task]" = set()

        async def send(opcode: int, request_id: int, payload: bytes) -> None:
            # Responses come from concurrently completing tasks; the lock
            # keeps frames from interleaving mid-write.
            async with write_lock:
                writer.write(pack_frame(opcode, request_id, payload))
                await writer.drain()

        try:
            await send(
                OP_HELLO,
                0,
                encode_payload(
                    {
                        "version": WIRE_VERSION,
                        "credits": self.config.wire_credits,
                        "max_payload": self.config.max_body_bytes,
                    }
                ),
            )
            while True:
                frame = await _read_frame(
                    reader, max_payload=self.config.max_body_bytes
                )
                if frame is None:
                    break
                opcode, request_id, payload = frame
                if opcode not in _REQUEST_OPS:
                    raise ProtocolError(f"unexpected opcode 0x{opcode:02x}")
                if len(outstanding) >= self.config.wire_credits:
                    # The client wrote past its grant: protocol misuse,
                    # not load — deliberately 400, never 429, so flow
                    # control violations stay distinguishable from
                    # admission-control shedding.
                    raise ProtocolError(
                        f"credit limit exceeded ({self.config.wire_credits} "
                        "outstanding requests allowed)"
                    )
                fault = await self._owner.ops.fault()
                if fault == "drop_frame":
                    # Mid-frame cut: half a response, then sever.
                    blob = pack_frame(
                        OP_RESULT, request_id, encode_payload({"status": 200})
                    )
                    async with write_lock:
                        writer.write(blob[: max(1, len(blob) // 2)])
                        await writer.drain()
                if fault is not None:  # crash / disconnect: sever unanswered
                    break
                job = asyncio.ensure_future(
                    self._serve_frame(send, opcode, request_id, payload)
                )
                outstanding.add(job)
                job.add_done_callback(outstanding.discard)
        except ProtocolError as exc:
            self.protocol_errors += 1
            try:
                await send(OP_ERROR, 0, encode_payload(error_result(exc)[1]))
            except (ConnectionError, RuntimeError, OSError):
                pass
        finally:
            # Clean EOF: let pipelined requests already admitted finish
            # and flush their responses before tearing the socket down.
            if outstanding:
                await asyncio.gather(*outstanding, return_exceptions=True)

    async def _serve_frame(
        self, send, opcode: int, request_id: int, payload: bytes
    ) -> None:
        """Decode → op table → respond for one request frame."""
        status, meta, arrays = await self._owner.ops.answer(
            "wire", self._call(opcode, payload)
        )
        reply = OP_ERROR if status >= 400 else OP_RESULT
        if reply == OP_RESULT:
            meta = {"status": 200, **meta}
        try:
            await send(reply, request_id, encode_payload(meta, arrays))
        except (ConnectionError, RuntimeError, OSError):
            # The client hung up before its response; nothing to tell it.
            pass

    async def _call(self, opcode: int, payload: bytes) -> Result:
        meta, arrays = decode_payload(payload)
        meta.pop("arrays", None)  # payload-container bookkeeping
        op = _frame_op(opcode, meta)
        if op == "kernel":
            status, meta, arrays = await self._handle_kernel(meta, arrays)
        else:
            status, meta, arrays = await self._owner.ops.run(op, meta, arrays)
        nest = _NESTED.get(op)
        return status, ({nest: meta} if nest else meta), arrays

    async def _handle_kernel(self, meta: dict, arrays: Dict[str, np.ndarray]) -> Result:
        """Kernel frames, the hot path, reach the op table here; the
        per-layer benchmark (``perfbench/layers.py``) times this method."""
        return await self._owner.ops.run("kernel", meta, arrays)


# ---------------------------------------------------------------------- #
# Client
# ---------------------------------------------------------------------- #
class WireClient(Client):
    """Blocking wire-protocol client with explicit pipelining.

    One-shot use goes through the shared
    :class:`~repro.serve.connect.Client` methods::

        with WireClient(port=wire_port) as client:
            Z = client.kernel(model="cora-f2v", x=X)

    Pipelined use separates submission from collection — up to
    :attr:`credits` requests may be outstanding::

        ids = [client.send_kernel(model="m", x=x) for x in chunk]
        for _ in ids:
            rid, value = client.recv()   # completion order

    ``recv`` returns ``(request_id, ndarray)`` for results and
    ``(request_id, ServeError)`` for error frames — pipelined callers
    need per-request failures, not an exception that aborts the batch.

    ``retry=`` arms the shared retry loop on the one-shot methods.
    Explicit pipelining (``send_kernel``/``recv``) is never retried
    implicitly, and a one-shot call with other requests still pending
    raises instead of reconnecting: a reconnect would silently drop the
    other outstanding responses.
    """

    transport_errors = (ProtocolError, OSError)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._next_id = 1
        self._pending: "set[int]" = set()
        self._ready: Dict[int, object] = {}
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._dial()

    def _dial(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._sock.settimeout(self.timeout)
        self._rfile = self._sock.makefile("rb")
        opcode, _, payload = self._read_frame()
        if opcode != OP_HELLO:
            raise ProtocolError(
                f"expected HELLO frame, got opcode 0x{opcode:02x}"
            )
        meta, _ = decode_payload(payload)
        #: the server's per-connection pipelining grant
        self.credits = int(meta.get("credits", 1))
        self.max_payload = int(meta.get("max_payload", 64 * 1024 * 1024))

    def _reset(self) -> bool:
        if len(self._pending) > 1:
            return False
        # The dead connection's outstanding id can never be answered.
        self._pending.clear()
        return super()._reset()

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        rfile, sock, self._rfile, self._sock = self._rfile, self._sock, None, None
        try:
            if rfile is not None:
                rfile.close()
        finally:
            if sock is not None:
                sock.close()

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------ #
    def _read_frame(self) -> Tuple[int, int, bytes]:
        frame = WIRE_CODEC.read_frame(self._rfile)
        if frame is None:
            # A response is always owed when this is called, so even a
            # frame-boundary EOF is the server hanging up on us.
            raise ConnectionError(
                "connection closed while waiting for a response frame"
            )
        return frame

    def _send(self, op: str, meta: dict, arrays: Dict[str, np.ndarray]) -> int:
        if self._sock is None:
            self._dial()
        if len(self._pending) >= self.credits:
            raise RuntimeError(
                f"out of credits: {self.credits} requests already "
                "outstanding; recv() before sending more"
            )
        opcode, action = _OP_FRAMES[op]
        if action is not None:
            meta = {**meta, "action": action}
        request_id = self._next_id
        self._next_id += 1
        self._sock.sendall(
            pack_frame(opcode, request_id, encode_payload(meta, arrays))
        )
        self._pending.add(request_id)
        return request_id

    def send_kernel(self, **request) -> int:
        """Pipeline one kernel request (the keywords of
        :func:`~repro.serve.connect.kernel_request`); returns its id."""
        return self._send("kernel", *kernel_request(**request))

    def recv(self) -> Tuple[int, object]:
        """The next response in completion order.

        Returns ``(request_id, ndarray)`` for kernel/embed results,
        ``(request_id, dict)`` for meta-only results (statz), or
        ``(request_id, ServeError)`` for error frames.  A status-400
        error frame with request-id 0 (a connection-level protocol
        violation) is raised immediately — the server has already hung
        up.
        """
        opcode, request_id, payload = self._read_frame()
        meta, arrays = decode_payload(payload)
        if opcode == OP_RESULT:
            self._pending.discard(request_id)
            return request_id, arrays["z"] if "z" in arrays else meta
        if opcode == OP_ERROR:
            error = error_from_meta(meta)
            if request_id == 0:
                # Connection-level failure, not a per-request one.
                raise error
            self._pending.discard(request_id)
            return request_id, error
        raise ProtocolError(f"unexpected response opcode 0x{opcode:02x}")

    def _wait_for(self, request_id: int) -> object:
        if request_id in self._ready:
            return self._ready.pop(request_id)
        while True:
            rid, value = self.recv()
            if rid == request_id:
                return value
            self._ready[rid] = value

    def call(self, op, meta, arrays, *, binary: bool = True):
        """One request and its response (frames always carry npy, so
        ``binary`` changes nothing here)."""
        value = self._wait_for(self._send(op, meta, arrays))
        if isinstance(value, Exception):
            raise value
        if isinstance(value, dict):
            nest = _NESTED.get(op)
            if nest is not None:
                return value[nest]
            return {k: v for k, v in value.items() if k != "status"}
        return value
