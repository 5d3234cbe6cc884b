"""Blocking HTTP client for the serving front-end (bench, smoke, tests).

A deliberately thin wrapper over :mod:`http.client` — stdlib only, one
persistent keep-alive connection per instance, so N closed-loop benchmark
clients are N sockets hammering the coalescer exactly the way real
traffic would.  Not thread-safe: give each client thread its own
instance.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Dict, Optional
from urllib.parse import urlencode

import numpy as np

from ..errors import SERVE_STATUS_ERRORS, ServeError
from .connect import DEFAULT_HTTP_PORT, Client
from .protocol import (
    HTTP_ROUTES,
    JSON_ARRAY_KEYS,
    array_from_npy,
    decode_array,
    encode_array,
    npy_bytes,
)

__all__ = [
    "ServeClient",
    "ServeHTTPError",
    "http_error_for_status",
    "wait_until_healthy",
]

_JSON = "application/json"
_NPY = "application/x-npy"


class ServeHTTPError(ServeError):
    """A non-2xx response; carries the status and decoded error message.

    A :class:`~repro.errors.ServeError`, so both transports raise out of
    one hierarchy: ``except ServeError`` catches HTTP and wire failures
    alike, while ``.status`` keeps the transport-level detail.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.http_status = status


# Admission-control statuses raise the same typed errors over HTTP that the
# wire client reconstructs from error frames — catchable either way: as the
# transport's ServeHTTPError or as the typed QueueFullError/DeadlineError/
# DrainingError the server actually raised.
_TYPED_HTTP_ERRORS = {
    status: type(f"{cls.__name__[:-5]}HTTPError", (ServeHTTPError, cls), {})
    for status, cls in SERVE_STATUS_ERRORS.items()
}


def http_error_for_status(status: int, message: str) -> ServeHTTPError:
    """The typed exception for one non-2xx HTTP response."""
    return _TYPED_HTTP_ERRORS.get(status, ServeHTTPError)(status, message)


def _error_message(payload: bytes) -> str:
    try:
        return str(json.loads(payload).get("error", payload.decode("utf-8", "replace")))
    except Exception:
        return payload.decode("utf-8", "replace")


def _json_request(meta: dict, arrays: Dict[str, np.ndarray], binary: bool) -> dict:
    """A POST body: the meta fields plus the arrays — operands as
    :func:`encode_array` envelopes (an inline graph as one CSR object),
    ids and edge batches as plain JSON lists."""
    doc = dict(meta)
    if "indptr" in arrays:
        doc["graph"] = {"shape": doc.pop("graph_shape", None)}
    for name, array in arrays.items():
        if name in ("x", "y"):
            doc[name] = encode_array(array, binary=binary)
        elif name in ("indptr", "indices", "data"):
            doc["graph"][name] = encode_array(array, binary=binary)
        else:
            doc[name] = array.tolist()
    return doc


class ServeClient(Client):
    """One keep-alive connection to a ``repro serve`` instance.

    The shared :class:`~repro.serve.connect.Client` methods map onto the
    HTTP routes of :data:`~repro.serve.protocol.HTTP_ROUTES`; ``retry=``
    arms the shared retry loop.  Without a policy a stale keep-alive
    socket still gets one resend on a fresh connection (never for
    ``train``/``mutate``).
    """

    transport_errors = (http.client.HTTPException, OSError)
    default_port = DEFAULT_HTTP_PORT
    _conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _exchange(self, method: str, path: str, body=None, headers=None):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        self._conn.request(method, path, body=body, headers=headers or {})
        response = self._conn.getresponse()
        return response, response.read()

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ):
        """One exchange; ``(response, payload)`` whatever the status."""
        try:
            return self._exchange(method, path, body, headers)
        except (http.client.HTTPException, OSError):
            # Keep-alive connection went stale (server restarted, drain
            # closed it): retry once on a fresh socket.
            self.close()
            return self._exchange(method, path, body, headers)

    def call(self, op, meta, arrays, *, binary: bool = True, raw: bool = False):
        """One request on its route.  ``binary`` asks for npy result
        arrays and ships operands as base64 npy (else nested lists);
        ``raw`` sends ``x`` as the raw ``.npy`` body with the rest of
        ``meta`` in the query string — the zero-copy kernel fast path."""
        methods, template = HTTP_ROUTES[op]
        method = "GET" if methods is None else methods[0]
        path = template.format(**meta)
        headers = {"Accept": _NPY} if binary else {}
        body = None
        if raw:
            path += "?" + urlencode(meta)
            body = npy_bytes(arrays["x"])
            headers["Content-Type"] = _NPY
        elif method == "POST":
            body = json.dumps(_json_request(meta, arrays, binary)).encode("utf-8")
            headers["Content-Type"] = _JSON
        # A stale-socket resend could apply train/mutate twice.
        send = self._exchange if op in self.NEVER_RETRIED else self._request
        response, payload = send(method, path, body, headers)
        if response.status >= 300:
            raise http_error_for_status(response.status, _error_message(payload))
        if (response.getheader("Content-Type") or "").startswith(_NPY):
            return array_from_npy(payload)
        doc = json.loads(payload)
        key = JSON_ARRAY_KEYS.get(op)
        return decode_array(doc[key]) if key else doc

    # ------------------------------------------------------------------ #
    def healthz(self) -> Dict[str, object]:
        return self._call("healthz", {})

    def kernel_npy(
        self,
        X: np.ndarray,
        *,
        model: str,
        pattern: str = "sigmoid_embedding",
        backend: str = "auto",
    ) -> np.ndarray:
        """The raw-npy fast path: ``X`` as the body, the rest in the query."""
        meta = {"model": model, "pattern": pattern, "backend": backend}
        return self._call("kernel", meta, {"x": np.asarray(X)}, raw=True)


def wait_until_healthy(
    host: str, port: int, *, timeout: float = 30.0, interval: float = 0.1
) -> bool:
    """Poll ``/healthz`` until it answers 200 or ``timeout`` passes."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with ServeClient(host, port, timeout=2.0) as client:
                if client.healthz().get("status") == "ok":
                    return True
        except (OSError, ServeHTTPError, socket.timeout):
            pass
        time.sleep(interval)
    return False
