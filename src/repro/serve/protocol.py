"""Minimal HTTP/1.1 protocol + payload codecs for the serving front-end.

The serving subsystem deliberately avoids web frameworks (no new hard
dependencies): the front-end speaks a small, strict subset of HTTP/1.1
handcrafted on :mod:`asyncio` streams —

* request line + headers (8 KiB cap), ``Content-Length`` bodies only (no
  chunked uploads), keep-alive by default, ``Connection: close`` honoured;
* responses always carry ``Content-Length`` and close cleanly on protocol
  errors.

Payloads travel in two interchangeable encodings:

* **JSON** — arrays as nested lists (small payloads, debuggability);
* **binary npy** — NumPy's ``.npy`` serialisation, either raw in the body
  (``Content-Type: application/x-npy``) or base64-embedded inside a JSON
  envelope (``{"npy_b64": "..."}``) for mixed payloads.  Binary is the
  fast path: no float→decimal→float round trip, bitwise-faithful dtypes.

Everything here is transport mechanics — no kernel or scheduling logic.
"""

from __future__ import annotations

import asyncio
import base64
import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from ..framing import ProtocolError, array_from_npy, npy_bytes

__all__ = [
    "HTTPRequest",
    "ProtocolError",
    "read_http_request",
    "write_http_response",
    "npy_bytes",
    "array_from_npy",
    "encode_array",
    "decode_array",
    "route",
    "HTTP_ROUTES",
    "JSON_ARRAY_KEYS",
    "STATUS_REASONS",
]

MAX_HEADER_BYTES = 8192

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


#: op -> (methods, path template) of the HTTP route carrying it; ``None``
#: accepts any method, and clients send the first one listed.
HTTP_ROUTES: Dict[str, Tuple[Optional[Tuple[str, ...]], str]] = {
    "healthz": (None, "/healthz"),
    "statz": (None, "/statz"),
    "kernel": (("POST",), "/v1/kernel"),
    "embed": (("POST", "GET"), "/v1/embed/{model}"),
    "mutate": (("POST",), "/v1/graph/{model}/edges"),
    "train": (("POST",), "/v1/train"),
    "jobs": (("GET",), "/v1/jobs"),
    "job": (("GET",), "/v1/jobs/{job_id}"),
    "cancel_job": (("DELETE",), "/v1/jobs/{job_id}"),
    "job_result": (("GET",), "/v1/jobs/{job_id}/result"),
}

#: The JSON field an op's ``z`` result array travels in.
JSON_ARRAY_KEYS = {"kernel": "z", "embed": "embeddings", "job_result": "result"}

_ROUTE_PATTERNS = [
    (op, methods, re.compile(re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", path) + r"\Z"))
    for op, (methods, path) in HTTP_ROUTES.items()
]


def route(method: str, path: str) -> Tuple[str, Dict[str, str]]:
    """``(op, path parameters)`` of one request; 404 for an unknown path,
    405 for a known path with the wrong method."""
    allowed: List[str] = []
    for op, methods, pattern in _ROUTE_PATTERNS:
        match = pattern.match(path)
        if match is None:
            continue
        if methods is None or method in methods:
            return op, match.groupdict()
        allowed += methods
    if allowed:
        raise ProtocolError(f"{' or '.join(allowed)} required", status=405)
    raise ProtocolError(f"no route for {path}", status=404)


@dataclass
class HTTPRequest:
    """One parsed request (headers lower-cased, query decoded)."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            # 1.0 connections are one-shot unless explicitly negotiated;
            # holding them open leaves clients that read until EOF
            # hanging on a response the server considers complete.
            return connection == "keep-alive"
        return connection != "close"

    def json(self) -> dict:
        """The body parsed as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError("JSON body must be an object")
        return payload


async def read_http_request(
    reader, *, max_body_bytes: int = 64 * 1024 * 1024
) -> Optional[HTTPRequest]:
    """Parse one request off ``reader``; ``None`` on clean EOF.

    Raises :class:`ProtocolError` on malformed input (the caller answers
    with the error's status and closes the connection).
    """
    try:
        header_blob = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("truncated request header") from exc
    except asyncio.LimitOverrunError as exc:  # pragma: no cover - huge header
        raise ProtocolError("request header too large", status=413) from exc
    if len(header_blob) > MAX_HEADER_BYTES:
        raise ProtocolError("request header too large", status=413)

    lines = header_blob.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise ProtocolError("invalid Content-Length") from exc
        if length < 0:
            raise ProtocolError("invalid Content-Length")
        if length > max_body_bytes:
            raise ProtocolError(
                f"body of {length} bytes exceeds the {max_body_bytes} byte cap",
                status=413,
            )
        body = await reader.readexactly(length) if length else b""
    elif headers.get("transfer-encoding"):
        raise ProtocolError("chunked uploads are not supported")

    return HTTPRequest(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
        version=version.upper(),
    )


def write_http_response(
    writer,
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """Serialise one response onto ``writer`` (caller awaits ``drain``)."""
    reason = STATUS_REASONS.get(status, "Unknown")
    headers = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    writer.write("\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + body)


# ---------------------------------------------------------------------- #
# Array payload codecs
# ---------------------------------------------------------------------- #
# ``ProtocolError``, ``npy_bytes`` and ``array_from_npy`` moved to
# :mod:`repro.framing` (shared with the binary wire protocol and the
# distributed worker transport); re-exported here for compatibility.


def encode_array(array: np.ndarray, *, binary: bool = False):
    """JSON-envelope encoding of one array.

    ``binary=True`` → ``{"npy_b64": ...}`` (bitwise-faithful);
    otherwise nested lists plus the dtype string.
    """
    if binary:
        return {"npy_b64": base64.b64encode(npy_bytes(array)).decode("ascii")}
    return {"data": np.asarray(array).tolist(), "dtype": array.dtype.name}


def decode_array(obj, *, dtype=None) -> np.ndarray:
    """Decode an operand from any of the accepted JSON spellings.

    Accepts a bare nested list, ``{"data": ..., "dtype": ...}``, or
    ``{"npy_b64": "..."}``.  ``dtype`` is the default when the payload
    does not carry one.  Anything undecodable is a 400 ProtocolError.
    """
    if isinstance(obj, dict):
        if "npy_b64" in obj:
            try:
                blob = base64.b64decode(obj["npy_b64"], validate=True)
            except Exception as exc:
                raise ProtocolError(f"invalid base64 npy field: {exc}") from exc
            return array_from_npy(blob)
        if "data" not in obj:
            raise ProtocolError(
                "array object must carry 'data' (+optional 'dtype') or 'npy_b64'"
            )
        obj, dtype = obj["data"], obj.get("dtype", dtype)
    elif not isinstance(obj, list):
        raise ProtocolError(f"cannot decode array from {type(obj).__name__}")
    try:
        return np.asarray(obj, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed array: {exc}") from exc
