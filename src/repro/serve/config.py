"""Configuration of the serving subsystem.

:class:`ServeConfig` is the single knob surface for everything between a
client socket and a kernel invocation: the coalescer's window geometry
(``max_batch``, ``max_wait_ms``), admission control (``max_queue``,
``default_deadline_ms``), the runtime the windows dispatch into
(threads / worker processes / shard threshold) and the model registry
(which named graphs and app models are pre-loaded and kept warm).

The four applications consume the same config: :class:`ModelSpec.build`
builds a Force2Vec / VERSE / GCN / FR-layout instance through
:func:`repro.apps.build_app` with the serve-level runtime knobs, so one
``ServeConfig`` describes the whole deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, Optional, Tuple

from ..apps import APP_KINDS, build_app
from ..errors import BackendError, ShapeError
from ..runtime import RuntimeOptions

__all__ = [
    "ModelSpec",
    "ServeConfig",
    "DEFAULT_MODELS",
    "resolve_deadline_ms",
]


def resolve_deadline_ms(
    explicit: Optional[object], default: float = 0.0
) -> Optional[float]:
    """Resolve one request's effective deadline in milliseconds.

    ``explicit`` is the client-supplied value (``None`` = the request did
    not carry one) and ``default`` the server-wide fallback.  "Absent" and
    "zero" are different statements: an explicit ``0`` *disables* the
    deadline even when the server configures a default — a falsy-chain
    (``explicit or default``) silently re-imposes the default on exactly
    the clients trying to opt out.  Returns the positive deadline, or
    ``None`` for "no deadline".  Raises :class:`ValueError` (or
    :class:`TypeError`) on non-numeric, negative or non-finite input.
    """
    raw = default if explicit is None else explicit
    value = float(raw)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"deadline_ms must be finite and >= 0, got {raw!r}")
    return value if value > 0 else None


@dataclass(frozen=True)
class ModelSpec:
    """One named, pre-loaded model of the registry.

    ``name`` is the handle clients use (``/v1/embed/<name>``,
    ``"model": "<name>"`` in ``/v1/kernel`` payloads).  ``dataset`` names a
    graph from :func:`repro.graphs.list_datasets`; ``app`` selects which
    application trains the servable output matrix (embeddings, positions
    or class probabilities).  ``train_epochs`` is deliberately tiny by
    default — serving wants warm plans and a servable matrix, not a
    converged model; redeploy with more epochs when quality matters.
    """

    name: str
    dataset: str
    app: str = "force2vec"
    dim: int = 32
    scale: float = 0.25
    train_epochs: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ShapeError(
                f"model name must be non-empty and slash-free: {self.name!r}"
            )
        if self.app not in APP_KINDS:
            raise BackendError(
                f"unknown app kind {self.app!r}; expected one of {APP_KINDS}"
            )
        if self.dim <= 0 or self.train_epochs < 0 or self.scale <= 0:
            raise ShapeError(
                "dim and scale must be positive, train_epochs non-negative"
            )

    def build(self, config: "ServeConfig"):
        """Build the app behind this model through
        :func:`repro.apps.build_app` with the serve-level runtime knobs and
        train it for ``train_epochs`` epochs (GCN for at least one).

        Returns ``(graph, app_instance)``; the app's plans are warm and its
        servable output matrix is available via ``serve_output()``.
        """
        graph, app = build_app(
            self.app,
            self.dataset,
            scale=self.scale,
            dim=self.dim,
            epochs=self.train_epochs,
            seed=self.seed,
            **{f.name: getattr(config, f.name) for f in fields(RuntimeOptions)},
        )
        epochs = max(self.train_epochs, 1) if self.app == "gcn" else self.train_epochs
        for epoch in range(epochs):
            app.train_epoch(epoch)
        return graph, app


#: Default registry: one embedding model per application on the two
#: smallest synthetic datasets — enough to serve real lookups and keep the
#: kernel plans warm without meaningful startup cost.
DEFAULT_MODELS: Tuple[ModelSpec, ...] = (
    ModelSpec(name="cora-f2v", dataset="cora", app="force2vec"),
    ModelSpec(name="cora-gcn", dataset="cora", app="gcn"),
    ModelSpec(name="pubmed-verse", dataset="pubmed", app="verse", scale=0.1),
    ModelSpec(name="cora-layout", dataset="cora", app="fr_layout", dim=2),
)


@dataclass
class ServeConfig(RuntimeOptions):
    """Everything the serving subsystem needs to come up.

    Coalescing
    ----------
    ``max_batch``
        Upper bound on requests coalesced into one dispatch window.
        ``1`` disables micro-batching (every request dispatches alone —
        the baseline the serve benchmark compares against).
    ``max_wait_ms``
        How long an open window waits for more requests before it
        dispatches anyway.  The tail-latency cost of batching: a lone
        request is delayed at most this long.

    Admission control
    -----------------
    ``max_queue``
        Bound on requests admitted but not yet dispatched; beyond it the
        server answers ``429`` so overload sheds load instead of growing
        latency without bound.
    ``default_deadline_ms``
        Deadline applied to requests that don't carry their own
        (``0`` = none).  Requests whose deadline expires while queued are
        answered ``504`` without running the kernel.

    Runtime
    -------
    ``num_threads`` / ``processes`` / ``shard_min_nnz`` / ``kernel_backend``
    (inherited from :class:`~repro.runtime.RuntimeOptions`, the same knob
    surface the app configs use) configure the
    :class:`~repro.runtime.KernelRuntime` the coalescer dispatches into;
    single jobs at or above ``shard_min_nnz`` route through
    ``submit_sharded`` instead of a window.  ``remote_port`` additionally
    opens the distributed controller: ``repro worker`` hosts that register
    there are admitted into the sharded tier next to the local worker
    processes.
    """

    host: str = "127.0.0.1"
    port: int = 8571
    #: binary wire-protocol listener (``None`` = HTTP only; 0 = ephemeral)
    wire_port: Optional[int] = None
    #: per-connection credit grant for the wire protocol: the number of
    #: outstanding (unanswered) frames one connection may pipeline; bounds
    #: per-connection memory without touching the global admission queue
    wire_credits: int = 32
    max_batch: int = 32
    max_wait_ms: float = 2.0
    #: early flush this long after the *last* arrival (bursty traffic
    #: coalesces without paying the full window wait); 0 disables
    idle_flush_ms: float = 0.25
    max_queue: int = 256
    default_deadline_ms: float = 0.0
    #: dispatcher threads executing flushed windows / large singles
    dispatch_workers: int = 2
    #: reject request bodies larger than this many bytes (413)
    max_body_bytes: int = 64 * 1024 * 1024
    #: distributed-controller listener for ``repro worker`` hosts
    #: (``None`` = local-only; 0 = ephemeral port)
    remote_port: Optional[int] = None
    #: shared secret worker hosts must present to register; ``None``
    #: admits any peer — loopback/trusted-network only.  Never reported
    #: by ``describe()``/``/statz``.
    remote_token: Optional[str] = None
    #: consecutive missed heartbeat pings before the distributed
    #: controller evicts an idle worker host (see ``repro serve
    #: --heartbeat-strikes``)
    heartbeat_strikes: int = 3
    #: fault-injection schedule applied to incoming requests
    #: (:meth:`repro.resilience.FaultPlan.from_spec` grammar) — the chaos
    #: harness's hook; leave ``None`` in production
    fault_spec: Optional[str] = None
    #: durable root for training jobs (``/v1/train``); each job gets its
    #: own subdirectory with checkpoints + supervision record, and
    #: unfinished jobs found there are requeued at startup.  ``None``
    #: uses a temporary directory — jobs then survive faults within the
    #: process but not a restart.
    job_dir: Optional[str] = None
    #: concurrently *running* training jobs
    max_jobs: int = 2
    #: admitted-but-not-running jobs; beyond ``max_jobs + max_job_queue``
    #: submissions are answered 429
    max_job_queue: int = 8
    models: Tuple[ModelSpec, ...] = field(default_factory=lambda: DEFAULT_MODELS)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_batch < 1:
            raise ShapeError(f"max_batch must be >= 1, got {self.max_batch}")
        if (
            self.max_wait_ms < 0
            or self.default_deadline_ms < 0
            or self.idle_flush_ms < 0
        ):
            raise ShapeError(
                "max_wait_ms, idle_flush_ms and default_deadline_ms must be >= 0"
            )
        if self.max_queue < 1:
            raise ShapeError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.dispatch_workers < 1:
            raise ShapeError(
                f"dispatch_workers must be >= 1, got {self.dispatch_workers}"
            )
        if self.wire_credits < 1:
            raise ShapeError(
                f"wire_credits must be >= 1, got {self.wire_credits}"
            )
        if self.wire_port is not None and self.wire_port < 0:
            raise ShapeError(f"wire_port must be >= 0, got {self.wire_port}")
        if self.remote_port is not None and self.remote_port < 0:
            raise ShapeError(f"remote_port must be >= 0, got {self.remote_port}")
        if self.heartbeat_strikes < 1:
            raise ShapeError(
                f"heartbeat_strikes must be >= 1, got {self.heartbeat_strikes}"
            )
        if self.max_jobs < 1 or self.max_job_queue < 0:
            raise ShapeError(
                f"max_jobs must be >= 1 and max_job_queue >= 0, got "
                f"{self.max_jobs}/{self.max_job_queue}"
            )
        names = [m.name for m in self.models]
        if len(set(names)) != len(names):
            raise ShapeError(f"duplicate model names in ServeConfig: {names}")

    def describe(self) -> Dict[str, object]:
        """JSON-able summary (the ``config`` block of ``/statz``)."""
        return {
            "wire_port": self.wire_port,
            "wire_credits": self.wire_credits,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "idle_flush_ms": self.idle_flush_ms,
            "max_queue": self.max_queue,
            "default_deadline_ms": self.default_deadline_ms,
            "dispatch_workers": self.dispatch_workers,
            "num_threads": self.num_threads,
            "processes": self.processes,
            "shard_min_nnz": self.shard_min_nnz,
            "kernel_backend": self.kernel_backend,
            "remote_port": self.remote_port,
            "heartbeat_strikes": self.heartbeat_strikes,
            "job_dir": None if self.job_dir is None else str(self.job_dir),
            "max_jobs": self.max_jobs,
            "max_job_queue": self.max_job_queue,
            "models": [m.name for m in self.models],
        }
