"""Shared length-prefixed framing + payload codecs for every binary transport.

Two subsystems speak framed binary protocols: the serving front-end's wire
protocol (:mod:`repro.serve.wire`, magic ``b"RW"``) and the distributed
worker transport (:mod:`repro.runtime.remote`, magic ``b"RK"``).  Both use
the exact same mechanics — a fixed header, a JSON-meta + raw-npy-blob
payload container, typed-error payloads — so the mechanics live here once
and each protocol instantiates a :class:`FrameCodec` with its own magic.

Frame layout (network byte order)::

    magic      2 bytes   protocol magic (b"RW" wire, b"RK" worker)
    version    1 byte    protocol version
    opcode     1 byte    protocol-specific OP_*
    request_id 8 bytes   sender-assigned; echoed on the response
    length     4 bytes   payload byte count
    payload    <length>  payload container (below)

Payload container: ``meta_len:u32 | meta JSON | (blob_len:u32 | npy blob)``
repeated once per name in ``meta["arrays"]`` — arrays ride as NumPy
``.npy`` blobs (bitwise-faithful dtypes, no float→decimal round trip),
everything scalar rides in the small JSON meta block.

Errors cross either protocol as ``{"status": ..., "error": ...}`` meta;
:func:`error_from_meta` rehydrates the typed
:class:`~repro.errors.ServeError` on the receiving side.

This module sits below both :mod:`repro.runtime` and :mod:`repro.serve`
in the layering — it must never import from either.
"""

from __future__ import annotations

import asyncio
import io
import json
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ReproError, serve_error_for_status

__all__ = [
    "ProtocolError",
    "FrameEOFError",
    "FRAME_HEADER",
    "FrameCodec",
    "npy_bytes",
    "array_from_npy",
    "encode_payload",
    "payload_parts",
    "decode_payload",
    "error_payload",
    "error_from_meta",
]

#: magic(2s) | version(B) | opcode(B) | request_id(Q) | payload length(I)
FRAME_HEADER = struct.Struct("!2sBBQI")
_U32 = struct.Struct("!I")


class ProtocolError(ValueError):
    """Malformed input from the peer; carries the status to answer with."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class FrameEOFError(ProtocolError, ConnectionError):
    """The peer hung up mid-frame on a blocking read.

    Doubly typed on purpose: blocking clients historically surfaced a
    :class:`ConnectionError` for any EOF, while frame-aware callers (the
    remote worker controller) treat a mid-frame cut as a protocol-level
    partition — both ``except`` clauses keep working.
    """


# ---------------------------------------------------------------------- #
# npy array blobs
# ---------------------------------------------------------------------- #
def npy_bytes(array: np.ndarray) -> bytes:
    """``array`` serialised in NumPy ``.npy`` format."""
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(array), allow_pickle=False)
    return buf.getvalue()


def _npy_parts(array: np.ndarray, start: int) -> Tuple[bytes, np.ndarray]:
    """``array`` in ``.npy`` format 1.0 as ``(header, data)``, the data a
    byte view of the array (no copy).

    The header is padded so the data begins on a 64-byte boundary of the
    payload when the blob begins at payload offset ``start``: a reader
    that views the data in place gets an aligned array.
    """
    array = np.ascontiguousarray(array)
    if array.dtype.hasobject:
        raise ValueError("object arrays cannot be framed")
    d = np.lib.format.header_data_from_array_1_0(array)
    text = "{" + "".join(f"'{k}': {d[k]!r}, " for k in sorted(d)) + "}"
    # magic (6) + version (2) + header length (2) + text + padding + "\n"
    text += " " * (-(start + 10 + len(text) + 1) % 64) + "\n"
    head = np.lib.format.magic(1, 0) + struct.pack("<H", len(text))
    return head + text.encode("latin1"), array.reshape(-1).view(np.uint8)


def array_from_npy(blob: bytes) -> np.ndarray:
    """Parse a ``.npy`` blob (no pickles accepted)."""
    try:
        return np.load(io.BytesIO(blob), allow_pickle=False)
    except Exception as exc:
        raise ProtocolError(f"invalid npy payload: {exc}") from exc


def _npy_view(blob: memoryview) -> np.ndarray:
    """A read-only array over a version 1.0 ``.npy`` blob's own memory
    (a copy when the data is not aligned for its dtype)."""
    head = io.BytesIO(blob[: min(len(blob), 10 + 0xFFFF)].tobytes())
    try:
        if np.lib.format.read_magic(head) != (1, 0):
            raise ValueError("only npy format 1.0 is framed without a copy")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(head)
    except Exception as exc:
        raise ProtocolError(f"invalid npy payload: {exc}") from exc
    count = int(np.prod(shape, dtype=np.int64))
    offset = head.tell()
    if dtype.hasobject or len(blob) - offset != count * dtype.itemsize:
        raise ProtocolError("invalid npy payload: data does not match its header")
    flat = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    if not flat.flags.aligned:
        flat = flat.copy()
    return flat.reshape(shape, order="F" if fortran_order else "C")


# ---------------------------------------------------------------------- #
# Payload container (magic-independent)
# ---------------------------------------------------------------------- #
def payload_parts(
    meta: dict, arrays: Optional[Dict[str, np.ndarray]] = None
) -> List[object]:
    """One payload container as a list of buffers whose concatenation is
    :func:`encode_payload`'s bytes; array data stays in the arrays (a
    scatter-gather send ships it without a copy)."""
    arrays = arrays or {}
    meta = dict(meta)
    meta["arrays"] = list(arrays)
    meta_blob = json.dumps(meta).encode("utf-8")
    parts: List[object] = [_U32.pack(len(meta_blob)), meta_blob]
    size = 4 + len(meta_blob)
    for name in arrays:
        head, data = _npy_parts(arrays[name], size + 4)
        parts += [_U32.pack(len(head) + data.nbytes), head, data]
        size += 4 + len(head) + data.nbytes
    return parts


def encode_payload(
    meta: dict, arrays: Optional[Dict[str, np.ndarray]] = None
) -> bytes:
    """Serialise one payload container (meta JSON + named npy blobs)."""
    return b"".join(payload_parts(meta, arrays))


def decode_payload(
    blob: bytes, *, copy: bool = True
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Parse one payload container → ``(meta, {name: array})``.

    Strict: truncated length prefixes, blobs running past the payload or
    trailing garbage are all :class:`ProtocolError` — a framing bug must
    not silently decode to a partial request.  ``copy=False`` returns
    read-only arrays over ``blob``'s own memory instead of copies.
    """
    view = memoryview(blob)

    def take(n: int, what: str) -> memoryview:
        nonlocal offset
        if offset + n > len(view):
            raise ProtocolError(f"truncated payload while reading {what}")
        piece = view[offset : offset + n]
        offset += n
        return piece

    offset = 0
    (meta_len,) = _U32.unpack(take(4, "meta length"))
    try:
        meta = json.loads(take(meta_len, "meta JSON").tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid payload meta: {exc}") from exc
    if not isinstance(meta, dict):
        raise ProtocolError("payload meta must be a JSON object")
    names = meta.get("arrays", [])
    if not isinstance(names, list):
        raise ProtocolError("meta 'arrays' must be a list of names")
    arrays: Dict[str, np.ndarray] = {}
    for name in names:
        (blob_len,) = _U32.unpack(take(4, f"length of array {name!r}"))
        piece = take(blob_len, f"array {name!r}")
        arrays[str(name)] = array_from_npy(piece) if copy else _npy_view(piece)
    if offset != len(view):
        raise ProtocolError(
            f"{len(view) - offset} trailing bytes after payload arrays"
        )
    return meta, arrays


def error_payload(status: int, message: str) -> bytes:
    """The standard error payload both protocols answer failures with."""
    return encode_payload({"status": status, "error": message})


def error_from_meta(meta: dict) -> ReproError:
    """Rehydrate the typed serving error an error payload describes."""
    return serve_error_for_status(
        int(meta.get("status", 500)), str(meta.get("error", ""))
    )


# ---------------------------------------------------------------------- #
# Frame codec (per-protocol magic + version)
# ---------------------------------------------------------------------- #
class FrameCodec:
    """Frame pack/unpack/read for one protocol's magic and version.

    One instance per protocol (module-level constant); both async readers
    (asyncio stream servers) and blocking readers (socket clients, the
    worker agent) are provided so the two sides of a connection can never
    drift in their framing.
    """

    header = FRAME_HEADER

    def __init__(self, magic: bytes, version: int) -> None:
        if len(magic) != 2:
            raise ValueError(f"frame magic must be 2 bytes, got {magic!r}")
        self.magic = magic
        self.version = version

    # ------------------------------------------------------------------ #
    def pack_header(self, opcode: int, request_id: int, length: int) -> bytes:
        """The fixed header of a frame carrying ``length`` payload bytes."""
        return self.header.pack(self.magic, self.version, opcode, request_id, length)

    def pack_frame(self, opcode: int, request_id: int, payload: bytes) -> bytes:
        """One serialised frame: fixed header + payload."""
        return self.pack_header(opcode, request_id, len(payload)) + payload

    def unpack_header(self, blob: bytes) -> Tuple[int, int, int]:
        """Parse a header → ``(opcode, request_id, payload_length)``.

        Raises :class:`ProtocolError` on bad magic or version — the caller
        cannot trust anything after a framing failure, so it must close.
        """
        magic, version, opcode, request_id, length = self.header.unpack(blob)
        if magic != self.magic:
            raise ProtocolError(f"bad frame magic {magic!r}")
        if version != self.version:
            raise ProtocolError(
                f"unsupported wire version {version} (speaking {self.version})"
            )
        return opcode, request_id, length

    # ------------------------------------------------------------------ #
    async def read_frame_async(
        self, reader: asyncio.StreamReader, *, max_payload: int
    ) -> Optional[Tuple[int, int, bytes]]:
        """One frame off an asyncio reader; ``None`` on clean EOF.

        EOF mid-frame (header or payload) is a :class:`ProtocolError` —
        only a frame boundary is a legal place to hang up.
        """
        try:
            header = await reader.readexactly(self.header.size)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise ProtocolError("truncated frame header") from exc
        opcode, request_id, length = self.unpack_header(header)
        if length > max_payload:
            raise ProtocolError(
                f"frame payload of {length} bytes exceeds the {max_payload} cap",
                status=413,
            )
        try:
            payload = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError("truncated frame payload") from exc
        return opcode, request_id, payload

    def read_frame(
        self, rfile, *, max_payload: Optional[int] = None
    ) -> Optional[Tuple[int, int, bytes]]:
        """One frame off a blocking binary file; ``None`` on clean EOF.

        Mirrors :meth:`read_frame_async` exactly: mid-frame EOF raises
        :class:`ProtocolError` so a peer dying between frames (legal) and
        one dying mid-frame (a partition or crash) stay distinguishable.
        ``socket.timeout`` from the underlying socket propagates — the
        caller owns liveness policy.
        """
        header = _read_exact(rfile, self.header.size, "frame header", eof_ok=True)
        if header is None:
            return None
        opcode, request_id, length = self.unpack_header(header)
        if max_payload is not None and length > max_payload:
            raise ProtocolError(
                f"frame payload of {length} bytes exceeds the {max_payload} cap",
                status=413,
            )
        payload = (
            _read_exact(rfile, length, "frame payload") if length else b""
        )
        return opcode, request_id, payload


def _read_exact(rfile, n: int, what: str, *, eof_ok: bool = False):
    """Read exactly ``n`` bytes from a blocking binary file.

    Clean EOF before the first byte returns ``None`` when ``eof_ok``;
    EOF anywhere else raises :class:`ProtocolError`.
    """
    chunks = []
    remaining = n
    while remaining:
        chunk = rfile.read(remaining)
        if not chunk:
            if eof_ok and remaining == n:
                return None
            raise FrameEOFError(f"connection closed while reading {what}")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
