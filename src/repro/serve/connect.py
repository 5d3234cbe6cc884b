"""One client API for both serving transports.

The serving subsystem speaks two protocols — HTTP/1.1
(:class:`~repro.serve.client.ServeClient`) and the length-prefixed binary
wire protocol (:class:`~repro.serve.wire.WireClient`).  Both derive from
:class:`Client`: one method layer (``kernel``, ``embed``, ``statz``,
``mutate``, ``train``, ``job``, ``jobs``, ``cancel_job``, ``job_result``)
that builds each request as ``(op, meta, arrays)`` — the shape of the
server's op table (:mod:`repro.serve.ops`) — over a per-transport
:meth:`Client.call`, plus one retry loop.  Failures raise out of the same
:class:`~repro.errors.ServeError` hierarchy, so code that talks to a
server should not care which transport carries the bytes.

:func:`connect` makes that choice a URL::

    from repro.serve import connect

    with connect("http://127.0.0.1:8571") as client:
        Z = client.kernel(model="cora-f2v", x=X)

    with connect("wire://127.0.0.1:8572") as client:   # same calls
        Z = client.kernel(model="cora-f2v", x=X)
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple, Type
from urllib.parse import urlsplit

import numpy as np

from ..errors import ServeError
from ..resilience import RetryPolicy

__all__ = ["Client", "connect", "DEFAULT_HTTP_PORT", "CLIENT_SCHEMES"]

#: Default port of the HTTP front-end (mirrors ``ServeConfig.port``).
DEFAULT_HTTP_PORT = 8571

#: URL schemes ``connect`` understands, mapped to the transport they pick.
CLIENT_SCHEMES = ("http", "wire")


def kernel_request(
    *,
    model: Optional[str] = None,
    graph=None,
    x: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
    X: Optional[np.ndarray] = None,
    Y: Optional[np.ndarray] = None,
    pattern: str = "sigmoid_embedding",
    backend: str = "auto",
    deadline_ms: Optional[float] = None,
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """``(meta, arrays)`` of one kernel request against a registered
    ``model`` or an inline CSR ``graph``.  Operands accept both spellings
    (``x=``/``X=``, ``y=``/``Y=``) so call sites port across transports."""
    meta: Dict[str, object] = {"pattern": pattern, "backend": backend}
    arrays: Dict[str, np.ndarray] = {}
    if deadline_ms is not None:
        meta["deadline_ms"] = deadline_ms
    if model is not None:
        meta["model"] = model
    elif graph is not None:
        meta["graph_shape"] = [graph.nrows, graph.ncols]
        for name in ("indptr", "indices", "data"):
            arrays[name] = np.asarray(getattr(graph, name))
    for name, value in (("x", x if X is None else X), ("y", y if Y is None else Y)):
        if value is not None:
            arrays[name] = np.asarray(value)
    return meta, arrays


class Client:
    """The transport-independent client surface.

    Subclasses implement :meth:`call` (one request, one response, no
    retries) and :meth:`close`; connection setup, the retry loop and the
    methods below are shared.  ``retry=`` arms opt-in retries under a
    :class:`~repro.resilience.RetryPolicy`: transport failures and the
    transient admission statuses (429 queue-full, 503 draining) are
    retried before the error propagates.  ``train`` and ``mutate`` are
    never retried — a resend after an ambiguous failure could start the
    job or apply the batch twice.
    """

    #: ops a resend could apply twice
    NEVER_RETRIED = frozenset({"train", "mutate"})
    #: admission statuses worth retrying: the request was shed at the
    #: door, never executed
    RETRYABLE_STATUSES = frozenset({429, 503})
    #: this transport's connection-level failures
    transport_errors: Tuple[Type[BaseException], ...] = (OSError,)
    #: the port a client without one dials
    default_port = 0

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        *,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.port = self.default_port if port is None else port
        self.timeout = timeout
        self.retry = retry
        self.retries_attempted = 0

    def call(self, op: str, meta: dict, arrays: Dict[str, np.ndarray], **options):
        """Send one request and wait for it: the op's ``z`` array, or its
        result document.  Error statuses raise
        :class:`~repro.errors.ServeError` subclasses."""
        raise NotImplementedError

    def _reset(self) -> bool:
        """Drop a connection a transport failure broke, so the next call
        redials; ``False`` when reconnecting would lose other responses."""
        self.close()
        return True

    def close(self) -> None:
        """Release the underlying connection."""
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _call(self, op: str, meta: dict, arrays=None, **options):
        """:meth:`call` under the retry policy."""
        state = None
        if self.retry is not None and op not in self.NEVER_RETRIED:
            state = self.retry.start()
        while True:
            try:
                return self.call(op, meta, arrays or {}, **options)
            except (ServeError,) + self.transport_errors as exc:
                retry = state is not None and (
                    exc.http_status in self.RETRYABLE_STATUSES
                    if isinstance(exc, ServeError)
                    else self._reset()
                )
                delay = state.next_delay() if retry else None
                if delay is None:
                    raise
            self.retries_attempted += 1
            time.sleep(delay)

    # ------------------------------------------------------------------ #
    def kernel(self, *, binary: bool = True, **request) -> np.ndarray:
        """``Z = FusedMM(A, X, Y)``; ``request`` takes the keywords of
        :func:`kernel_request`.  ``binary=False`` ships nested-list JSON
        end to end over HTTP (wire frames always carry npy)."""
        return self._call("kernel", *kernel_request(**request), binary=binary)

    def embed(self, model: str, ids=None, *, binary: bool = True) -> np.ndarray:
        """Rows of a registered model's servable output matrix."""
        arrays = {} if ids is None else {"ids": np.asarray(ids, dtype=np.int64)}
        return self._call("embed", {"model": model}, arrays, binary=binary)

    def statz(self) -> Dict[str, object]:
        """The server's stats snapshot."""
        return self._call("statz", {})

    def models(self) -> List[str]:
        return [m["name"] for m in self.statz().get("models", [])]

    def mutate(self, model: str, insert=None, delete=None) -> Dict[str, object]:
        """Apply one edge batch to a registered graph and return the
        mutation document (new version, fingerprint, counters).
        ``insert`` rows are ``(u, v[, weight])`` (weight defaults to 1.0),
        ``delete`` rows ``(u, v)``, applied first.  Never retried."""
        arrays = {
            name: np.asarray(edges, dtype=np.float64)
            for name, edges in (("insert", insert), ("delete", delete))
            if edges is not None
        }
        return self._call("mutate", {"model": model}, arrays)

    def train(self, **spec) -> Dict[str, object]:
        """Submit a training job (a :class:`~repro.jobs.JobSpec`
        document); returns ``{"job_id": ..., "state": ...}``.  Never
        retried."""
        return self._call("train", spec)

    def job(self, job_id: str) -> Dict[str, object]:
        """Status + per-epoch progress of one training job."""
        return self._call("job", {"job_id": job_id})

    def jobs(self) -> List[Dict[str, object]]:
        """Summaries of every known training job."""
        return list(self._call("jobs", {})["jobs"])

    def cancel_job(self, job_id: str) -> Dict[str, object]:
        """Request cancellation of one training job; returns its document."""
        return self._call("cancel_job", {"job_id": job_id})

    def job_result(self, job_id: str) -> np.ndarray:
        """The completed job's output matrix (bitwise-faithful)."""
        return self._call("job_result", {"job_id": job_id})


def connect(url: str, *, timeout: float = 30.0, retry=None) -> Client:
    """Open a client for ``url``, choosing the transport by scheme.

    ``http://host:port`` returns a
    :class:`~repro.serve.client.ServeClient` (port defaults to
    :data:`DEFAULT_HTTP_PORT`); ``wire://host:port`` returns a
    :class:`~repro.serve.wire.WireClient` (port required — the wire
    listener is configured per deployment via ``ServeConfig.wire_port``).
    Raises :class:`ValueError` for unknown schemes or a missing wire
    port.

    ``retry=`` (a :class:`~repro.resilience.RetryPolicy`) arms opt-in
    retries on connection failures and transient 429/503 shedding for
    either transport (never for ``train``/``mutate``, see :class:`Client`).
    """
    parsed = urlsplit(url)
    if parsed.scheme not in CLIENT_SCHEMES:
        raise ValueError(
            f"unsupported client URL scheme {parsed.scheme!r} in {url!r}; "
            f"expected one of {CLIENT_SCHEMES}"
        )
    if parsed.scheme == "http":
        from .client import ServeClient as transport
    elif parsed.port is None:
        raise ValueError(
            f"wire:// URLs must carry an explicit port (got {url!r}); the "
            "wire listener has no fixed default — see ServeConfig.wire_port"
        )
    else:
        from .wire import WireClient as transport
    host = parsed.hostname or "127.0.0.1"
    return transport(host, parsed.port, timeout=timeout, retry=retry)
