"""Async serving subsystem: request coalescing + micro-batching front-end.

This package turns the batch-oriented kernel runtime into a network
service (the ROADMAP's "async serving beyond futures" tier):

``config``     :class:`ServeConfig` / :class:`ModelSpec` — one knob
               surface for windows, admission control, runtime and the
               pre-loaded model set (consumed by all four apps)
``coalescer``  :class:`Coalescer` — micro-batching of concurrent requests
               into time/size-bounded windows over ``run_batch``, large
               singles routed through ``submit_sharded``, bounded-queue
               admission, deadlines, graceful drain
``registry``   :class:`ModelRegistry` — named graphs + trained app models
               with plans/worker agents warm before the first
               request
``server``     :class:`KernelServer` — handcrafted asyncio HTTP/1.1
               front-end, a route codec onto the op table
               (``/v1/kernel``, ``/v1/embed/<model>``,
               ``/v1/graph/<name>/edges``, ``/v1/train``,
               ``/v1/jobs/<id>``, ``/healthz``,
               ``/statz``) with JSON and binary npy payloads; owns the
               :class:`~repro.jobs.JobManager` behind the training-job
               endpoints
``ops``        :class:`~repro.serve.ops.OpTable` — the transport-neutral
               op table both front-ends decode into: ``(op, meta,
               arrays)`` → ``(status, meta, arrays)``, one error mapper
``client``     :class:`ServeClient` — stdlib blocking HTTP client
``connect``    :class:`Client` — the method layer and retry loop both
               clients share over a per-transport ``call``;
               :func:`connect` picks the transport from a URL
               (``http://`` / ``wire://``)
``wire``       :class:`WireServer` / :class:`WireClient` — length-prefixed
               binary framing over raw sockets with pipelining and
               credit-based flow control; a frame codec onto the same
               op table as the HTTP front-end
``runner``     :class:`BackgroundServer` — an in-process server on its own
               loop thread (benchmarks, tests)
``protocol``   wire parsing and array payload codecs

Correctness contract: coalesced responses are **bitwise identical** to the
same requests executed serially — the coalescer only ever rides the
runtime paths that already guarantee it (``run_batch``, sharded plans).

Example
-------
>>> from repro.serve import KernelServer, ServeConfig, ModelSpec
>>> config = ServeConfig(port=0, models=(ModelSpec("m", "cora", scale=0.1),))
>>> KernelServer(config).run()  # doctest: +SKIP
"""

from .client import ServeClient, ServeHTTPError, wait_until_healthy
from .coalescer import Coalescer, CoalescerStats
from .config import DEFAULT_MODELS, ModelSpec, ServeConfig
from .connect import Client, connect
from .protocol import (
    HTTPRequest,
    ProtocolError,
    array_from_npy,
    decode_array,
    encode_array,
    npy_bytes,
)
from .registry import ModelRegistry, RegisteredModel
from .runner import BackgroundServer
from .server import KernelServer
from .wire import WireClient, WireServer

__all__ = [
    "ServeConfig",
    "ModelSpec",
    "DEFAULT_MODELS",
    "Coalescer",
    "CoalescerStats",
    "ModelRegistry",
    "RegisteredModel",
    "KernelServer",
    "WireServer",
    "WireClient",
    "BackgroundServer",
    "ServeClient",
    "ServeHTTPError",
    "Client",
    "connect",
    "wait_until_healthy",
    "HTTPRequest",
    "ProtocolError",
    "npy_bytes",
    "array_from_npy",
    "encode_array",
    "decode_array",
]
