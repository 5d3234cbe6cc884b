"""Sharded kernel execution: worker agents + the in-runtime controller.

Shards of a planned kernel call run on worker agents, each its own
process; an agent is either a local slot the runtime started or a host
that dialled in over TCP.  Three pieces:

* :class:`WorkerAgent` — the agent loop.  A local slot runs it in a
  child process of the runtime, over one end of a
  :func:`socket.socketpair`; ``repro worker`` runs it on any machine,
  dialling the controller over TCP.  Either way it registers its
  capacity, then serves a tiny command protocol over one framed
  connection (the ``b"RK"`` codec of :mod:`repro.runtime.codec`): cache a
  CSR once per ``(agent, fingerprint)``, execute row-ranges against it,
  answer heartbeats.
* :class:`RemoteController` — lives inside
  :class:`~repro.runtime.runtime.KernelRuntime`.  It starts the local
  slots, admits dial-in registrations (only when a port is configured),
  routes contiguous shard groups to agents by nnz/slot balance
  (:func:`~repro.runtime.shard.route_shards`), ships matrices lazily (a
  new graph version as its changed rows) and detects lost agents
  (heartbeat/timeout, EOF, mid-frame cuts).  **One failure rule:** a lost
  agent's groups are retried on the surviving agents; when none survive
  they are returned to the runtime, which finishes them in-parent, so a
  dropped agent never hangs or corrupts a batch.  A lost local slot is
  restarted under the same name.
* The determinism contract: agents execute through the same
  :func:`~repro.runtime.codec.execute_parts` call the parent's fallback
  and hedges make — the plan's own partitions against the full CSR with
  ``out=``/``row_offset=`` — so sharded results are **bitwise identical**
  to sequential in-process execution for any shard count and any mix of
  local and dial-in agents (asserted at 1/2/4 shards in the tests and
  the CI distributed-smoke job).

Wire conversation (one frame per line; all frames carry a request id the
reply echoes)::

    agent → controller   REGISTER {name, slots, threads, pid[, token]}
    controller → agent   WELCOME  {host_id} | ERROR {status: 403, ...}
    controller → agent   PING | LOAD {key, drop} (+csr blobs) | DROP {key}
                         | LOAD_DELTA {key, base_key, drop} (+row blobs)
                         | RUN {key, spec, parts, y_same_as_x} (+x/+y)
                         | EXIT
    agent → controller   RESULT {...} (+z block for RUN) | ERROR {status,
                         error[, missing_key]}

Every exchange is strictly request/reply under a per-agent lock, so one
slow agent never desynchronises another agent's framing.

Security model: both sides enforce a per-frame payload cap (a forged
length field can never drive an unbounded allocation), and the controller
can require a shared-secret ``token`` in REGISTER — set it whenever the
listener binds anything beyond the loopback default.  A runtime without a
``remote_port`` opens no listening socket at all.
"""

from __future__ import annotations

import hmac
import multiprocessing
import os
import signal
import socket
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor, wait as _futures_wait
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import WorkerError
from ..framing import (
    ProtocolError,
    decode_payload,
    encode_payload,
    error_payload,
    payload_parts,
)
from ..resilience import (
    Fault,
    FaultInjector,
    FaultPlan,
    HealthTracker,
    RetryPolicy,
    seed_from_name,
)
from ..sparse import CSRMatrix
from .codec import (
    OP_DROP,
    OP_ERROR,
    OP_EXIT,
    OP_LOAD,
    OP_LOAD_DELTA,
    OP_PING,
    OP_REGISTER,
    OP_RESULT,
    OP_RUN,
    OP_WELCOME,
    WORKER_CODEC,
    WORKER_MAX_PAYLOAD,
    decode_csr,
    encode_csr,
    encode_csr_delta,
    execute_parts,
    scatter_rows,
    spec_from_meta,
    splice_csr_delta,
)
from .fingerprint import fingerprint_covers
from .shard import ShardAssignment, ShardPlan, route_shards

__all__ = [
    "WorkerAgent",
    "RemoteController",
    "REPRO_WORKER_FAULT_PLAN",
]

#: Environment variable read by ``repro worker``: a
#: :meth:`repro.resilience.FaultPlan.from_spec` schedule applied to RUN
#: frames (e.g. ``"delay@2:0.5,drop_frame@4,crash@7+"``).  Chaos-harness
#: hook — never set it in production.
REPRO_WORKER_FAULT_PLAN = "REPRO_WORKER_FAULT_PLAN"

#: Reply window for heartbeat pings (seconds) — deliberately much shorter
#: than the run timeout: an idle host that cannot answer a ping within
#: this window is slow or partitioned, not busy.  One missed ping is a
#: *strike*, not an eviction — see ``heartbeat_strikes``.
_PING_TIMEOUT = 5.0
#: Straggler hedging: a dispatched chunk outstanding longer than
#: ``_HEDGE_FACTOR`` × its nnz × the ``_HEDGE_QUANTILE`` of observed
#: seconds-per-nnz (at least ``_HEDGE_MIN_S``) is re-executed in-parent,
#: once ``_HEDGE_MIN_SAMPLES`` RUNs have been timed.
_HEDGE_QUANTILE = 0.9
_HEDGE_FACTOR = 4.0
_HEDGE_MIN_S = 0.25
_HEDGE_MIN_SAMPLES = 3
#: nnz-scaled RUN reply window: ``_TIMEOUT_SLACK`` × the predicted time,
#: at least ``_MIN_RUN_TIMEOUT_S`` and at most the ``timeout`` cap.
_MIN_RUN_TIMEOUT_S = 5.0
_TIMEOUT_SLACK = 8.0


def _recv_reply(rfile, max_payload: int) -> Tuple[int, int, bytes]:
    """One reply frame off a blocking connection; EOF is a connection loss."""
    frame = WORKER_CODEC.read_frame(rfile, max_payload=max_payload)
    if frame is None:
        raise ConnectionError("peer closed the connection")
    return frame


def _send_frame(
    sock: socket.socket, opcode: int, request_id: int, meta: dict, arrays=None
) -> None:
    """Send one frame as a scatter-gather write: operand and output arrays
    go from their own memory to the socket, never copied into a frame."""
    parts = [memoryview(p).cast("B") for p in payload_parts(meta, arrays)]
    header = WORKER_CODEC.pack_header(opcode, request_id, sum(map(len, parts)))
    parts.insert(0, memoryview(header))
    while parts:
        sent = sock.sendmsg(parts)
        while parts and sent >= len(parts[0]):
            sent -= len(parts.pop(0))
        if sent:
            parts[0] = parts[0][sent:]


# ---------------------------------------------------------------------- #
# Worker host process
# ---------------------------------------------------------------------- #
class WorkerAgent:
    """One worker agent: registers with a controller and executes row-ranges.

    Parameters
    ----------
    host, port:
        The controller's listening address (unused when :meth:`serve` is
        handed a connected socket, as a local slot is).
    name:
        Advertised host name (defaults to ``hostname:pid``).
    threads:
        Kernel threads per RUN on this host.  Results stay bitwise
        identical for any value — the runtime's determinism contract
        covers thread counts — so agents on big machines run ``threads >
        1`` while the runtime's local slots run single-threaded.
    slots:
        Routing weight the controller balances nnz against (defaults to
        ``threads``).
    matrix_cache:
        LRU bound on CSRs kept resident.  Every LOAD reply names the keys
        it evicted, so the controller's view of what an agent holds stays
        exact.
    token:
        Shared secret presented in REGISTER.  Must match the
        controller's token when the controller requires one; without a
        token the transport is unauthenticated and should only ever run
        on loopback or a trusted network.
    max_payload:
        Per-frame payload cap (bytes) enforced on every read, so a
        forged length field from a bad peer cannot drive an unbounded
        allocation.  Must be at least as large as the controller's —
        both sides default to :data:`~repro.runtime.codec.WORKER_MAX_PAYLOAD`.
    fault_plan:
        :class:`~repro.resilience.FaultPlan` applied to RUN frames:
        ``crash`` (drop without replying, stay down, and ``os._exit(1)``
        when ``exit_on_crash`` — the ``repro worker`` behaviour, so the
        whole host dies exactly as a kill would), ``disconnect``
        (sever, then reconnect through :meth:`run_forever` — a flapping
        host), ``delay`` (sleep ``arg`` seconds before executing — a
        straggler), ``drop_frame`` (send half of the RESULT frame, then
        sever — a mid-frame network cut).  The step counter spans
        reconnects, so one plan describes the host's whole lifetime.
    fault_log:
        Callback ``(fault, step)`` observing every fired fault (the CLI
        prints them to stderr so the chaos harness can assert coverage).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        name: Optional[str] = None,
        threads: int = 1,
        slots: Optional[int] = None,
        matrix_cache: int = 16,
        connect_timeout: float = 10.0,
        token: Optional[str] = None,
        max_payload: int = WORKER_MAX_PAYLOAD,
        exit_on_crash: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        fault_log=None,
    ) -> None:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.controller_address = (host, int(port))
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.threads = int(threads)
        self.slots = int(slots if slots is not None else threads)
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        self.matrix_cache = int(matrix_cache)
        self.connect_timeout = connect_timeout
        self.token = token
        self.max_payload = int(max_payload)
        self.last_error: Optional[str] = None
        self.exit_on_crash = exit_on_crash
        self.fault_plan = fault_plan
        self._injector = FaultInjector(fault_plan, log=fault_log)
        self.runs_executed = 0
        self.delta_loads = 0
        self.reconnects = 0
        self._registered = False
        self._sock: Optional[socket.socket] = None
        self._stop = threading.Event()
        self._matrices: "OrderedDict[str, CSRMatrix]" = OrderedDict()
        self._configs: Dict[tuple, object] = {}

    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Break the serve loop from another thread (tests, signals)."""
        self._stop.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def serve(self, sock: Optional[socket.socket] = None) -> str:
        """Dial the controller (or take the connected ``sock``) and serve
        until EXIT or disconnect.

        Returns the reason the loop ended: ``"exit"`` (controller said
        so), ``"disconnected"`` (controller went away or desynchronised
        the framing), ``"rejected"`` (controller refused the
        registration — bad token; details in :attr:`last_error`),
        ``"quarantined"`` (controller's circuit breaker is holding this
        host name out — retryable, the eventual retry is the probe),
        ``"stopped"`` (:meth:`stop`), or ``"crashed"`` (fault injection
        fired).
        """
        self._registered = False
        # Warm the JIT kernel cache before taking traffic (a no-op without
        # numba), so the first RUN never pays compilation latency.
        try:
            from ..core.jit import warmup

            warmup()
        except Exception:
            pass
        if sock is None:
            sock = socket.create_connection(
                self.controller_address, timeout=self.connect_timeout
            )
        sock.settimeout(self.connect_timeout)
        # Keep the timeout armed through the registration handshake: a
        # connection that completed in a dying listener's accept backlog
        # never gets a WELCOME, and an unbounded wait would wedge the
        # agent there forever.  Cleared once admitted — an idle worker
        # legitimately blocks between RUNs.
        self._sock = sock
        rfile = sock.makefile("rb")
        try:
            register_meta = {
                "name": self.name,
                "slots": self.slots,
                "threads": self.threads,
                "pid": os.getpid(),
            }
            if self.token is not None:
                register_meta["token"] = self.token
            sock.sendall(
                WORKER_CODEC.pack_frame(
                    OP_REGISTER, 0, encode_payload(register_meta)
                )
            )
            opcode, _, payload = _recv_reply(rfile, self.max_payload)
            if opcode == OP_ERROR:
                meta, _ = decode_payload(payload)
                self.last_error = str(meta.get("error", "registration rejected"))
                # 503 = quarantined (transient, the breaker will probe us
                # back in); anything else (403 bad token) is terminal.
                if int(meta.get("status", 0)) == 503:
                    return "quarantined"
                return "rejected"
            if opcode != OP_WELCOME:
                raise ProtocolError(
                    f"expected WELCOME, got opcode 0x{opcode:02x}"
                )
            sock.settimeout(None)
            self._registered = True
            return self._serve_loop(sock, rfile)
        except (ProtocolError, ConnectionError, OSError):
            # ProtocolError (bad magic/version, oversized frame, garbage
            # payload) means the stream is untrustworthy: treat it as a
            # disconnect — never let it kill the worker process.
            return "stopped" if self._stop.is_set() else "disconnected"
        finally:
            self._sock = None
            try:
                rfile.close()
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def run_forever(
        self,
        reconnect_delay: float = 1.0,
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> str:
        """Serve, reconnecting after controller restarts, until stopped.

        Reconnects back off exponentially with jitter under ``retry``
        (default: a :class:`~repro.resilience.RetryPolicy` with
        ``reconnect_delay`` as the base, seeded from the host name so a
        restarted fleet de-correlates instead of thundering back in
        lockstep).  A session that actually registered resets the
        backoff — only consecutive failures escalate.

        Returns the terminal reason (:meth:`serve`'s vocabulary); a
        rejected registration is terminal — retrying a bad token would
        just hammer the controller — while ``"quarantined"`` keeps
        backing off (the eventual reconnect is the breaker's probe).
        """
        policy = retry or RetryPolicy(
            base_delay=reconnect_delay,
            max_delay=max(30.0, reconnect_delay),
            seed=seed_from_name(self.name),
        )
        state = None
        while not self._stop.is_set():
            try:
                reason = self.serve()
            except (ProtocolError, ConnectionError):
                reason = "disconnected"
            if reason in ("exit", "stopped", "crashed", "rejected"):
                return reason
            # Matrices and configs survive a reconnect, but the controller
            # tracks loaded keys per connection and will re-ship; dropping
            # our cache keeps both sides' views consistent.
            self._matrices.clear()
            if self._registered:
                state = None  # healthy session: next failure starts fresh
            if state is None:
                state = policy.start(salt=self.reconnects)
            self.reconnects += 1
            if not state.sleep(interrupt=self._stop):
                return "stopped" if self._stop.is_set() else reason
        return "stopped"

    # ------------------------------------------------------------------ #
    def _serve_loop(self, sock: socket.socket, rfile) -> str:
        def reply(opcode, request_id, meta, arrays=None):
            _send_frame(sock, opcode, request_id, meta, arrays)

        while not self._stop.is_set():
            frame = WORKER_CODEC.read_frame(rfile, max_payload=self.max_payload)
            if frame is None:
                return "disconnected"
            opcode, request_id, payload = frame
            try:
                meta, arrays = decode_payload(payload, copy=False)
                if opcode == OP_EXIT:
                    reply(OP_RESULT, request_id, {})
                    return "exit"
                elif opcode == OP_PING:
                    reply(OP_RESULT, request_id, {})
                elif opcode == OP_LOAD:
                    key = str(meta["key"])
                    if key not in self._matrices:
                        self._matrices[key] = decode_csr(meta, arrays)
                    reply(OP_RESULT, request_id, {"evicted": self._keep(key, meta)})
                elif opcode == OP_LOAD_DELTA:
                    key = str(meta["key"])
                    base_key = str(meta["base_key"])
                    if key not in self._matrices:
                        base = self._matrices.get(base_key)
                        if base is None:
                            # Base evicted (or never shipped to this
                            # connection): ask for a full re-ship of the
                            # *new* key rather than guessing.
                            reply(
                                OP_ERROR,
                                request_id,
                                {
                                    "status": 404,
                                    "error": (
                                        f"delta base {base_key!r} not loaded"
                                    ),
                                    "missing_key": base_key,
                                },
                            )
                            continue
                        self._matrices[key] = splice_csr_delta(base, arrays)
                        self.delta_loads += 1
                    reply(OP_RESULT, request_id, {"evicted": self._keep(key, meta)})
                elif opcode == OP_DROP:
                    self._matrices.pop(str(meta["key"]), None)
                    reply(OP_RESULT, request_id, {})
                elif opcode == OP_RUN:
                    fault = self._injector.step()
                    if fault is not None:
                        outcome = self._inject_fault(fault, sock)
                        if outcome is not None:
                            return outcome
                    key = str(meta["key"])
                    A = self._matrices.get(key)
                    if A is None:
                        # Evicted (or a pre-reconnect key): tell the
                        # controller to re-ship instead of guessing.
                        reply(
                            OP_ERROR,
                            request_id,
                            {
                                "status": 404,
                                "error": f"matrix {key!r} not loaded",
                                "missing_key": key,
                            },
                        )
                        continue
                    self._matrices.move_to_end(key)
                    Z_block, w0, w1 = self._execute(A, meta, arrays)
                    reply(
                        OP_RESULT,
                        request_id,
                        {"w0": w0, "w1": w1},
                        {"z": Z_block},
                    )
                    self.runs_executed += 1
                else:
                    reply(
                        OP_ERROR,
                        request_id,
                        {
                            "status": 400,
                            "error": f"unexpected opcode 0x{opcode:02x}",
                        },
                    )
            except (ConnectionError, OSError):
                raise
            except Exception as exc:
                import traceback

                try:
                    reply(
                        OP_ERROR,
                        request_id,
                        {
                            "status": 500,
                            "error": (
                                f"{exc}\n{traceback.format_exc()}"
                            ),
                        },
                    )
                except (ConnectionError, OSError):
                    return "disconnected"
        return "stopped"

    def _keep(self, key: str, meta: dict) -> List[str]:
        """Mark the just-loaded ``key`` most recently used and drop the
        keys ``meta["drop"]`` names; returns every key dropped, those and
        the ones the LRU bound evicted."""
        evicted = [
            k
            for k in meta.get("drop", ())
            if k != key and self._matrices.pop(k, None) is not None
        ]
        self._matrices.move_to_end(key)
        while len(self._matrices) > self.matrix_cache:
            evicted.append(self._matrices.popitem(last=False)[0])
        return evicted

    def _inject_fault(
        self, fault: Fault, sock: socket.socket
    ) -> Optional[str]:
        """Fire one scheduled fault; returns the serve-loop outcome, or
        ``None`` when the RUN should still execute (``delay``)."""
        if fault.kind == "delay":
            # Straggler: stall, then answer normally (and correctly).
            self._stop.wait(fault.arg)
            return None
        if fault.kind == "drop_frame":
            # Mid-frame network cut: ship half of a RESULT frame, sever.
            frame = WORKER_CODEC.pack_frame(
                OP_RESULT, 0, encode_payload({"w0": 0, "w1": 0})
            )
            try:
                sock.sendall(frame[: max(1, len(frame) // 2)])
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return "disconnected"
        # crash / disconnect: drop the connection without replying.
        if fault.kind == "crash" and self.exit_on_crash:  # pragma: no cover
            os._exit(1)
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        return "crashed" if fault.kind == "crash" else "disconnected"

    def _execute(
        self, A: CSRMatrix, meta: dict, arrays: Dict[str, np.ndarray]
    ) -> Tuple[np.ndarray, int, int]:
        """Execute one RUN frame's row-ranges; returns the output block."""
        X = arrays.get("x")
        Y = X if meta.get("y_same_as_x") else arrays.get("y")
        block, w0 = execute_parts(
            spec_from_meta(meta["spec"]),
            A,
            X,
            Y,
            meta["parts"],
            configs=self._configs,
            num_threads=self.threads,
        )
        return block, w0, w0 + block.shape[0]


def _local_agent_main(sock: socket.socket, name: str) -> None:  # pragma: no cover
    """A local shard slot: one single-threaded agent on a socketpair end.

    Ctrl-C belongs to the parent, which dismisses its agents with EXIT;
    when the parent is gone the socket reads EOF and the agent returns.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    WorkerAgent(name=name).serve(sock)


# ---------------------------------------------------------------------- #
# Controller (runtime side)
# ---------------------------------------------------------------------- #
class _RemoteHost:
    """Controller-side record of one registered agent.

    ``process`` is the child process of a local slot, ``None`` for a
    host that dialled in.
    """

    def __init__(
        self,
        host_id,
        name,
        slots,
        threads,
        sock,
        rfile,
        address,
        process=None,
    ):
        self.host_id = host_id
        self.name = name
        self.slots = max(int(slots), 1)
        self.threads = int(threads)
        self.sock = sock
        self.rfile = rfile
        self.address = address
        self.process = process
        self.lock = threading.Lock()
        self.loaded: set = set()
        self.alive = True
        self.runs = 0
        self.strikes = 0
        self._next_id = 1

    def next_request_id(self) -> int:
        rid = self._next_id
        self._next_id += 1
        return rid

    def close(self) -> None:
        try:
            self.rfile.close()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def _contiguous_chunks(
    group: Sequence[ShardAssignment],
) -> List[List[ShardAssignment]]:
    """Split a routed group at row-contiguity breaks.

    First-round groups are contiguous by construction
    (:func:`~repro.runtime.shard.route_shards`), but a retry round can
    hand one survivor the groups of several non-adjacent lost hosts.
    Executing each contiguous chunk as its own RUN keeps the returned
    blocks tight — no zero-filled gap rows shipped over the wire.
    """
    chunks: List[List[ShardAssignment]] = [[group[0]]]
    for a in group[1:]:
        if a.parts[0].start == chunks[-1][-1].parts[-1].stop:
            chunks[-1].append(a)
        else:
            chunks.append([a])
    return chunks


class _ChunkJob:
    """One contiguous chunk of a dispatch round — the unit of hedging.

    The chunk's row ranges may be completed by its host *or* by an
    in-parent hedge; ``lock`` serialises the two so exactly one writes
    ``Z`` and claims ``winner`` (both compute bitwise-identical bytes,
    the lock just makes "first completion wins" observable).
    """

    __slots__ = (
        "assignments",
        "parts",
        "nnz",
        "lock",
        "done",
        "winner",
        "started_at",
        "hedged",
    )

    def __init__(self, assignments: Sequence[ShardAssignment]) -> None:
        self.assignments = list(assignments)
        self.parts = [
            [int(p.start), int(p.stop), int(p.nnz)]
            for a in assignments
            for p in a.parts
        ]
        self.nnz = sum(a.nnz for a in assignments)
        self.lock = threading.Lock()
        self.done = False
        self.winner: Optional[str] = None
        self.started_at: Optional[float] = None
        self.hedged = False


class RemoteController:
    """Runs the local shard slots, admits dial-in hosts and routes shard
    groups across every live agent.

    Owned by :class:`~repro.runtime.runtime.KernelRuntime` (created when
    ``processes=`` or ``remote_port=`` is set).  One failure rule covers
    every agent, local or dial-in:

    * an agent that drops mid-exchange (EOF, reset, mid-frame cut) or
      times out is declared **lost** — its shard group is re-routed
      across the surviving agents and the matrix is re-shipped where
      needed;
    * when no agent survives, the unfinished assignments are *returned*
      to the caller, which executes them in-parent — the batch completes
      either way, it never hangs and never returns a partial ``Z``;
    * an agent-side kernel *exception* (as opposed to a death) is
      deterministic and propagates as :class:`~repro.errors.WorkerError`
      without retry.

    A lost local slot is restarted under its name once the call that lost
    it returns (or at the next heartbeat), counted in ``restarts``.  A
    chunk that straggles past its throughput-derived deadline is
    speculatively re-executed in-parent and the first completion wins —
    bitwise-safe because both sides compute identical row ranges (counters
    ``hedges``/``hedge_wins``).  A dial-in host lost repeatedly is held
    out by the :class:`~repro.resilience.HealthTracker` circuit breaker
    (``health``).

    Parameters
    ----------
    host, port:
        Listening address for dial-in registrations (``port=0`` binds an
        ephemeral port, readable as ``port``; ``port=None`` opens no
        listener).
    processes:
        Local shard slots: child processes running a single-threaded
        :class:`WorkerAgent` over a :func:`socket.socketpair`, started
        and registered before the constructor returns.
    heartbeat_s, heartbeat_strikes:
        Ping cadence for idle agents and the consecutive missed pings
        after which one is evicted.
    timeout:
        Worst-case reply ceiling of one exchange; RUN replies get a
        shorter nnz-scaled window once throughput has been observed.
    token:
        Shared secret every dial-in REGISTER must carry (``None`` admits
        any peer).
    max_payload:
        Largest frame payload accepted from an agent.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: Optional[int] = 0,
        processes: int = 0,
        heartbeat_s: float = 2.0,
        heartbeat_strikes: int = 3,
        timeout: float = 60.0,
        token: Optional[str] = None,
        max_payload: int = WORKER_MAX_PAYLOAD,
    ) -> None:
        if heartbeat_strikes < 1:
            raise ValueError(
                f"heartbeat_strikes must be >= 1, got {heartbeat_strikes}"
            )
        if processes < 0:
            raise ValueError(f"processes must be >= 0, got {processes}")
        self.heartbeat_s = heartbeat_s
        self.heartbeat_strikes = int(heartbeat_strikes)
        self.timeout = timeout
        #: Shared secret every dial-in REGISTER must carry (constant-time
        #: compared).  ``None`` admits any peer — acceptable on the
        #: loopback default bind, mandatory to set when binding a
        #: cross-machine interface.
        self.token = token
        self.max_payload = int(max_payload)
        #: Circuit breaker keyed by host *name*: a flapper re-registers
        #: under a fresh host_id but the same name, so the breaker still
        #: recognises it and holds it out after K losses in the window.
        self.health = HealthTracker()
        #: Observed seconds-per-nnz of completed RUNs — feeds both the
        #: nnz-scaled per-RUN reply timeouts and the hedge deadlines.
        self._nnz_samples: "deque[float]" = deque(maxlen=128)
        self._samples_lock = threading.Lock()
        self._hedge_configs: Dict[tuple, object] = {}
        self._hedge_exec = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-remote-hedge"
        )
        self.host = host
        self._hosts: "OrderedDict[int, _RemoteHost]" = OrderedDict()
        self._hosts_lock = threading.Lock()
        self._hosts_changed = threading.Condition(self._hosts_lock)
        self._next_host_id = 1
        self._closed = threading.Event()
        self.hosts_admitted = 0
        self.hosts_lost = 0
        self.batches = 0
        self.retries = 0
        self.parent_fallbacks = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.hedge_errors = 0
        self.registrations_rejected = 0
        self.delta_ships = 0
        self.delta_fallbacks = 0
        #: Dynamic-graph delta sources: ship key → (base ship key, splice
        #: payload).  Small LRU — a delta is only useful while its version
        #: is the one being executed.
        self._delta_sources: "OrderedDict[str, Tuple[str, dict, Dict[str, np.ndarray]]]" = (
            OrderedDict()
        )
        self._delta_lock = threading.Lock()
        self.processes = int(processes)
        self.restarts = 0
        self._procs: List[Optional[multiprocessing.process.BaseProcess]] = [
            None
        ] * self.processes
        self._spawn_lock = threading.Lock()
        # Local slots first: a child forked before the listener exists
        # does not inherit its descriptor.
        with self._spawn_lock:
            self._start_local(range(self.processes))
        self._listener: Optional[socket.socket] = None
        self.port: Optional[int] = None
        self._accept_thread: Optional[threading.Thread] = None
        if port is not None:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, int(port)))
            self._listener.listen(16)
            self.port = self._listener.getsockname()[1]
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-remote-accept", daemon=True
            )
            self._accept_thread.start()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-remote-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    # ------------------------------------------------------------------ #
    # Agent admission + liveness
    # ------------------------------------------------------------------ #
    def _admit(self, sock: socket.socket, address, *, process=None) -> bool:
        """The one registration handshake: read REGISTER, answer WELCOME.

        A dial-in host (``process=None``) must also pass the token and
        quarantine checks; a local slot has no peer to check.  Any
        failure severs ``sock`` and returns ``False``.
        """
        try:
            sock.settimeout(self.timeout)
            rfile = sock.makefile("rb")
            frame = WORKER_CODEC.read_frame(rfile, max_payload=self.max_payload)
            if frame is None:
                raise ConnectionError("agent hung up before registering")
            opcode, _, payload = frame
            if opcode != OP_REGISTER:
                raise ProtocolError(
                    f"expected REGISTER, got opcode 0x{opcode:02x}"
                )
            meta, _ = decode_payload(payload)
            peer_name = str(meta.get("name", ""))
            if process is None:
                if self.token is not None and not hmac.compare_digest(
                    str(meta.get("token") or ""), self.token
                ):
                    sock.sendall(
                        WORKER_CODEC.pack_frame(
                            OP_ERROR,
                            0,
                            error_payload(
                                403,
                                "registration rejected: bad or missing "
                                "token (start the worker with --token)",
                            ),
                        )
                    )
                    raise ConnectionError("agent rejected: bad token")
                if peer_name and not self.health.allow(peer_name):
                    # Circuit open: a flapping host does not get back in
                    # just by reconnecting.  503 tells the agent this is
                    # transient (back off and retry — the retry that
                    # lands after the quarantine period is the probe).
                    self.registrations_rejected += 1
                    sock.sendall(
                        WORKER_CODEC.pack_frame(
                            OP_ERROR,
                            0,
                            error_payload(
                                503,
                                f"host {peer_name!r} is quarantined after "
                                "repeated failures; retry later",
                            ),
                        )
                    )
                    raise ConnectionError("agent rejected: quarantined")
            with self._hosts_lock:
                if self._closed.is_set():
                    # close() ran while this handshake was in flight; its
                    # record sweep is done, so admitting now would
                    # welcome the agent into a dead controller.  Sever
                    # instead (the except arm).
                    raise ConnectionError("controller shutting down")
                host_id = self._next_host_id
                self._next_host_id += 1
                record = _RemoteHost(
                    host_id=host_id,
                    name=peer_name or f"host-{host_id}",
                    slots=int(meta.get("slots", 1)),
                    threads=int(meta.get("threads", 1)),
                    sock=sock,
                    rfile=rfile,
                    address=address,
                    process=process,
                )
                # Held until WELCOME is out, so no exchange can reach the
                # agent before it.
                record.lock.acquire()
                self._hosts[host_id] = record
                self.hosts_admitted += 1
                self._hosts_changed.notify_all()
        except (ProtocolError, ConnectionError, OSError, socket.timeout):
            # The makefile() reader may still hold an io-ref on the
            # socket, so close() alone would leave the fd (and the peer's
            # connection) open; shutdown() severs it for real.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
            return False
        try:
            sock.sendall(
                WORKER_CODEC.pack_frame(
                    OP_WELCOME, 0, encode_payload({"host_id": host_id})
                )
            )
        except OSError:
            self._mark_lost(record, "WELCOME not delivered")
            return False
        finally:
            record.lock.release()
        return True

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, address = self._listener.accept()
            except OSError:
                return
            if self._closed.is_set():
                # Accepted while shutting down (including the wake-up
                # connection ``close()`` makes).  Never admit: a WELCOME
                # from a dying controller would wedge the agent in a
                # serve loop nobody drives.  Sever so it retries and
                # lands on the replacement controller instead.
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()
                return
            self._admit(sock, address)

    @staticmethod
    def _local_name(slot: int) -> str:
        return f"local-{slot}"

    def _start_local(self, slots) -> None:
        """Start and admit the local agents of ``slots`` (caller holds
        ``_spawn_lock``).

        Every child is started before the first handshake is read, so
        they boot concurrently; admission then blocks on each REGISTER
        frame in turn — no polling.
        """
        ctx = multiprocessing.get_context()
        started = []
        for slot in slots:
            parent_end, child_end = socket.socketpair()
            # Room for a whole operand or output block: a send completes
            # without waiting for the peer to be scheduled and drain it
            # (the kernel caps the request at its wmem_max).
            for end in (parent_end, child_end):
                end.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4 << 20)
            proc = ctx.Process(
                target=_local_agent_main,
                args=(child_end, self._local_name(slot)),
                name=f"repro-shard-{slot}",
                daemon=True,
            )
            proc.start()
            child_end.close()
            self._procs[slot] = proc
            started.append((slot, parent_end, proc))
        for slot, parent_end, proc in started:
            if not self._admit(parent_end, self._local_name(slot), process=proc):
                proc.kill()
                proc.join(timeout=5.0)

    def _respawn_local(self) -> None:
        """Restart every local slot whose agent was lost, under its name.

        A loss may be a hung agent, not a dead one, so the old process is
        killed before its replacement starts.
        """
        if not self.processes:
            return
        with self._spawn_lock:
            if self._closed.is_set():
                return
            live = {h.name for h in self.live_hosts() if h.process is not None}
            lost = [
                slot
                for slot in range(self.processes)
                if self._local_name(slot) not in live
            ]
            if not lost:
                return
            for slot in lost:
                proc = self._procs[slot]
                if proc is not None:
                    proc.kill()
                    proc.join(timeout=5.0)
            self.restarts += len(lost)
            self._start_local(lost)

    def _heartbeat_loop(self) -> None:
        while not self._closed.wait(self.heartbeat_s):
            for record in self.live_hosts():
                if not record.lock.acquire(blocking=False):
                    continue  # mid-exchange; that path handles failures
                try:
                    self._request(
                        record,
                        OP_PING,
                        {},
                        None,
                        reply_timeout=_PING_TIMEOUT,
                    )
                except socket.timeout:
                    # Slow, not provably gone (a GC pause, a CPU spike):
                    # one strike.  The host's eventual late reply is
                    # skipped as stale by ``_request``, so a recovered
                    # host resynchronises instead of being evicted.
                    record.strikes += 1
                    if record.strikes >= self.heartbeat_strikes:
                        self._mark_lost(
                            record,
                            f"missed {record.strikes} heartbeats",
                        )
                except (ProtocolError, ConnectionError, OSError):
                    # EOF/reset/desync: the connection is gone for real —
                    # no strike count rescues a dead socket.
                    self._mark_lost(record, "heartbeat connection failure")
                else:
                    record.strikes = 0
                finally:
                    record.lock.release()
            self._respawn_local()

    def _mark_lost(self, record: _RemoteHost, why: str) -> None:
        with self._hosts_lock:
            if not record.alive:
                return
            record.alive = False
            self._hosts.pop(record.host_id, None)
            self.hosts_lost += 1
            self._hosts_changed.notify_all()
        record.close()
        if record.process is None:
            self.health.record_failure(record.name)

    def live_hosts(self) -> List[_RemoteHost]:
        """Every live agent, local slots and dial-in hosts alike."""
        with self._hosts_lock:
            return [h for h in self._hosts.values() if h.alive]

    def dialin_slots(self) -> int:
        """Slot count of the live hosts that dialled in."""
        return sum(h.slots for h in self.live_hosts() if h.process is None)

    def wait_for_hosts(self, count: int, timeout: float = 30.0) -> int:
        """Block until ``count`` dial-in hosts registered (or the timeout
        hits); returns how many are live.  Local slots are registered
        before the constructor returns and are not counted."""

        def dialled() -> int:
            return sum(
                1 for h in self._hosts.values() if h.alive and h.process is None
            )

        with self._hosts_changed:
            self._hosts_changed.wait_for(lambda: dialled() >= count, timeout)
            return dialled()

    # ------------------------------------------------------------------ #
    # Per-host request/reply
    # ------------------------------------------------------------------ #
    def _request(
        self,
        record: _RemoteHost,
        opcode: int,
        meta: dict,
        arrays,
        *,
        reply_timeout: Optional[float] = None,
    ) -> Tuple[dict, Dict[str, np.ndarray]]:
        """One exchange with ``record`` (caller holds ``record.lock``).

        Connection-level failures raise ``ConnectionError``/``OSError``;
        agent-reported errors raise :class:`WorkerError` (or return the
        error meta for the caller when it carries ``missing_key``).
        """
        rid = record.next_request_id()
        record.sock.settimeout(
            self.timeout if reply_timeout is None else reply_timeout
        )
        _send_frame(record.sock, opcode, rid, meta, arrays)
        while True:
            reply_op, reply_id, payload = _recv_reply(
                record.rfile, self.max_payload
            )
            if reply_id != rid:
                if reply_id < rid:
                    # A late reply to an exchange that timed out earlier
                    # (e.g. a heartbeat strike).  Request ids are
                    # monotonic per host, so it cannot belong to any
                    # future exchange: skip it and keep reading.
                    continue
                # A reply from the *future* means the framing is
                # desynchronised beyond repair; drop the host.
                raise ConnectionError(
                    f"out-of-order reply {reply_id} (expected {rid})"
                )
            reply_meta, reply_arrays = decode_payload(payload, copy=False)
            if reply_op == OP_RESULT:
                return reply_meta, reply_arrays
            if reply_op == OP_ERROR:
                if reply_meta.get("missing_key"):
                    return reply_meta, reply_arrays
                raise WorkerError(
                    f"remote worker {record.name!r} failed:\n"
                    f"{reply_meta.get('error', '')}"
                )
            raise ConnectionError(
                f"unexpected reply opcode 0x{reply_op:02x}"
            )

    def _ensure_loaded(self, record: _RemoteHost, key: str, A: CSRMatrix) -> None:
        """Make ``key`` (the matrix ``A``) resident on ``record``.

        An agent keeps one version of a graph: the ship of a new version
        (its changed rows or a full LOAD) also drops the agent's other
        versions of that lineage, once the new one is in place.
        """
        if key in record.loaded:
            return
        lineage = key.partition("@")[0]
        drop = [
            k for k in record.loaded if k != key and fingerprint_covers(lineage, k)
        ]
        if not self._try_delta_ship(record, key, drop):
            meta, arrays = encode_csr(A)
            meta.update(key=key, drop=drop)
            reply_meta, _ = self._request(record, OP_LOAD, meta, arrays)
            record.loaded.difference_update(reply_meta.get("evicted", ()))
        record.loaded.add(key)

    def _try_delta_ship(
        self, record: _RemoteHost, key: str, drop: List[str]
    ) -> bool:
        """Ship ``key`` as a dirty-row delta when possible.

        Requires a registered delta source for ``key`` and the base version
        still resident on that agent.  Any miss — evicted base, agent-side
        error — returns ``False`` and the caller performs a full ship;
        a transport failure propagates like any other exchange.
        """
        with self._delta_lock:
            source = self._delta_sources.get(key)
        if source is None:
            return False
        base_key, meta, arrays = source
        if base_key not in record.loaded:
            self.delta_fallbacks += 1
            return False
        meta = {**meta, "drop": drop}
        reply_meta, _ = self._request(record, OP_LOAD_DELTA, meta, arrays)
        if reply_meta.get("missing_key"):
            # The agent evicted the base after our bookkeeping said it
            # was resident: keep both views consistent and full-ship.
            record.loaded.discard(base_key)
            self.delta_fallbacks += 1
            return False
        record.loaded.difference_update(reply_meta.get("evicted", ()))
        self.delta_ships += 1
        return True

    # ------------------------------------------------------------------ #
    # Dynamic-graph surface
    # ------------------------------------------------------------------ #
    def register_delta(
        self,
        key: str,
        base_key: str,
        rows: np.ndarray,
        counts: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        """Record that ``key`` can be shipped as a splice over ``base_key``.

        The next :meth:`_ensure_loaded` of ``key`` on an agent that still
        holds ``base_key`` sends only the dirty rows (the LOAD_DELTA
        opcode); everything else falls back to a full ship.
        """
        meta, arrays = encode_csr_delta(base_key, rows, counts, indices, data)
        meta["key"] = str(key)
        with self._delta_lock:
            self._delta_sources[str(key)] = (str(base_key), meta, arrays)
            while len(self._delta_sources) > 8:
                self._delta_sources.popitem(last=False)

    def drop_matrix(self, fingerprint: str) -> int:
        """Unship every key of ``fingerprint``'s lineage from every live
        host (and forget its delta sources); returns keys dropped.

        Best-effort per host: a host that fails the exchange is marked
        lost through the normal machinery, never retried here.
        """
        dropped = 0
        with self._delta_lock:
            for key in [
                k
                for k in self._delta_sources
                if fingerprint_covers(fingerprint, k)
                or fingerprint_covers(fingerprint, self._delta_sources[k][0])
            ]:
                del self._delta_sources[key]
        for record in self.live_hosts():
            with record.lock:
                if not record.alive:
                    continue
                doomed = [
                    key
                    for key in record.loaded
                    if fingerprint_covers(fingerprint, key)
                ]
                for key in doomed:
                    try:
                        self._request(
                            record, OP_DROP, {"key": key}, None,
                            reply_timeout=_PING_TIMEOUT,
                        )
                    except (
                        WorkerError,
                        ProtocolError,
                        ConnectionError,
                        OSError,
                        socket.timeout,
                    ):
                        self._mark_lost(record, f"drop of {key!r} failed")
                        break
                    record.loaded.discard(key)
                    dropped += 1
        return dropped

    def _sec_per_nnz(self, quantile: float) -> Optional[float]:
        """A quantile of the observed seconds-per-nnz throughput samples."""
        with self._samples_lock:
            if len(self._nnz_samples) < _HEDGE_MIN_SAMPLES:
                return None
            samples = sorted(self._nnz_samples)
        return samples[min(len(samples) - 1, int(quantile * len(samples)))]

    def _run_timeout(self, nnz: int) -> float:
        """Reply window for a RUN shipping ``nnz`` — scaled by observed
        throughput so stragglers on small jobs are detected in seconds,
        not after the fixed 60 s worst-case cap."""
        rate = self._sec_per_nnz(0.9)
        if rate is None:
            return self.timeout
        predicted = rate * max(nnz, 1) * _TIMEOUT_SLACK
        return min(self.timeout, max(_MIN_RUN_TIMEOUT_S, predicted))

    def _hedge_deadline_s(self, nnz: int) -> Optional[float]:
        """How long a chunk may stay outstanding before it is hedged
        (``None`` while the throughput history is cold)."""
        rate = self._sec_per_nnz(_HEDGE_QUANTILE)
        if rate is None:
            return None
        predicted = rate * max(nnz, 1) * _HEDGE_FACTOR
        return min(self.timeout, max(_HEDGE_MIN_S, predicted))

    def _run_group(
        self,
        record: _RemoteHost,
        key: str,
        A: CSRMatrix,
        spec_meta: dict,
        job: _ChunkJob,
        X: Optional[np.ndarray],
        Y: Optional[np.ndarray],
        Z: np.ndarray,
    ) -> None:
        """Execute one contiguous chunk on ``record``, writing into ``Z``."""
        parts = job.parts
        meta = {
            "key": key,
            "spec": spec_meta,
            "parts": parts,
            "y_same_as_x": bool(X is not None and Y is X),
        }
        arrays: Dict[str, np.ndarray] = {}
        if X is not None:
            arrays["x"] = np.asarray(X)
        if Y is not None and Y is not X:
            arrays["y"] = np.asarray(Y)
        run_timeout = self._run_timeout(job.nnz)
        with record.lock:
            if not record.alive:
                raise ConnectionError(f"host {record.name!r} already lost")
            self._ensure_loaded(record, key, A)
            started = time.monotonic()
            reply_meta, reply_arrays = self._request(
                record, OP_RUN, meta, arrays, reply_timeout=run_timeout
            )
            if reply_meta.get("missing_key"):
                # Evicted agent-side between our LOAD bookkeeping and the
                # RUN (LRU pressure): re-ship once and retry.
                record.loaded.discard(key)
                self._ensure_loaded(record, key, A)
                started = time.monotonic()
                reply_meta, reply_arrays = self._request(
                    record, OP_RUN, meta, arrays, reply_timeout=run_timeout
                )
                if reply_meta.get("missing_key"):
                    raise WorkerError(
                        f"remote worker {record.name!r} cannot hold matrix "
                        f"{key!r} (matrix_cache too small?)"
                    )
            elapsed = time.monotonic() - started
            record.runs += 1
        with self._samples_lock:
            self._nnz_samples.append(elapsed / max(job.nnz, 1))
        self.health.record_success(record.name)
        w0, w1 = int(reply_meta["w0"]), int(reply_meta["w1"])
        block = reply_arrays["z"]
        if block.shape != (w1 - w0, Z.shape[1]):
            raise WorkerError(
                f"remote worker {record.name!r} returned a "
                f"{block.shape} block for rows [{w0}, {w1})"
            )
        # A retry-routed group may span a row gap (zero-filled in the
        # block), so only covered rows are written.  The chunk lock makes
        # "first completion wins" exact when a hedge raced us — both sides
        # compute identical bytes, but only the winner writes and claims
        # the chunk.
        with job.lock:
            if job.done:
                return
            scatter_rows(Z, block, w0, parts)
            job.done = True
            job.winner = record.name

    def _hedge_job(
        self,
        job: _ChunkJob,
        A: CSRMatrix,
        spec_meta: dict,
        X: Optional[np.ndarray],
        Y: Optional[np.ndarray],
        Z: np.ndarray,
    ) -> None:
        """Speculatively execute ``job`` in-parent (tail-at-scale hedging).

        Runs through the same :func:`~repro.runtime.codec.execute_parts`
        call the agents make, so the hedge's bytes are identical to the
        straggler's eventual reply — whichever completes first wins the
        chunk.
        Best-effort: a hedge failure leaves the chunk to the primary
        path and the retry rounds.
        """
        try:
            block, w0 = execute_parts(
                spec_from_meta(spec_meta),
                A,
                X,
                Y,
                job.parts,
                configs=self._hedge_configs,
            )
            with job.lock:
                if job.done:
                    return
                scatter_rows(Z, block, w0, job.parts)
                job.done = True
                job.winner = "parent-hedge"
            self.hedge_wins += 1
        except Exception:
            self.hedge_errors += 1

    # ------------------------------------------------------------------ #
    # Batch dispatch
    # ------------------------------------------------------------------ #
    def run_assignments(
        self,
        key: str,
        A: CSRMatrix,
        spec_meta: dict,
        assignments: Sequence[ShardAssignment],
        X: Optional[np.ndarray],
        Y: Optional[np.ndarray],
        Z: np.ndarray,
    ) -> List[ShardAssignment]:
        """Execute ``assignments`` across live agents, writing into ``Z``.

        Groups are routed by slot weight, dispatched concurrently (one
        thread per agent), and re-routed across survivors when an agent
        is lost mid-batch.  Returns the assignments that could **not** be
        completed because no live agent remained — the caller executes
        those in-parent, so the batch always completes.  Local slots lost
        on the way are restarted before this returns.
        """
        remaining = [a for a in assignments if a.parts]
        if not remaining:
            return []
        self.batches += 1
        try:
            first_round = True
            while remaining:
                hosts = self.live_hosts()
                if not hosts:
                    self.parent_fallbacks += 1
                    return remaining
                if not first_round:
                    self.retries += 1
                first_round = False
                # Retry rounds rebuild ``remaining`` from thread-completion
                # order; re-sort by row start so the routed groups stay
                # row-ordered and route_shards' contiguity reasoning holds.
                remaining.sort(key=lambda a: a.parts[0].start)
                plan = ShardPlan(
                    num_shards=len(remaining),
                    assignments=tuple(remaining),
                    total_nnz=sum(a.nnz for a in remaining),
                )
                groups = route_shards(plan, [h.slots for h in hosts])
                busy = [
                    (record, group)
                    for record, group in zip(hosts, groups)
                    if group
                ]
                # One RUN per contiguous chunk: a merged retry group may
                # span row gaps that other hosts' finished work fills.  Each
                # chunk is a _ChunkJob — the unit the hedger can steal.
                host_jobs = [
                    (record, [_ChunkJob(c) for c in _contiguous_chunks(group)])
                    for record, group in busy
                ]
                all_jobs = [job for _, jobs in host_jobs for job in jobs]
                failed_jobs: List[_ChunkJob] = []
                failed_lock = threading.Lock()

                def dispatch(record: _RemoteHost, jobs: List[_ChunkJob]):
                    for index, job in enumerate(jobs):
                        if job.done:
                            continue  # a hedge already completed this chunk
                        job.started_at = time.monotonic()
                        try:
                            self._run_group(
                                record, key, A, spec_meta, job, X, Y, Z
                            )
                        except (
                            ProtocolError,
                            ConnectionError,
                            OSError,
                            socket.timeout,
                        ) as exc:
                            self._mark_lost(record, str(exc))
                            with failed_lock:
                                failed_jobs.extend(jobs[index:])
                            return

                hedge_futures: List = []
                try:
                    with ThreadPoolExecutor(
                        max_workers=len(host_jobs),
                        thread_name_prefix="repro-remote-dispatch",
                    ) as pool:
                        pending = {
                            pool.submit(dispatch, record, jobs)
                            for record, jobs in host_jobs
                        }
                        while pending:
                            done, pending = _futures_wait(pending, timeout=0.05)
                            for fut in done:
                                fut.result()
                            if pending:
                                self._maybe_hedge(
                                    all_jobs, A, spec_meta, X, Y, Z,
                                    hedge_futures,
                                )
                finally:
                    # Never leave a hedge thread writing into Z after this
                    # call returns (or raises): the caller may reuse the
                    # buffer.  Hedges are short local computes.
                    for fut in hedge_futures:
                        try:
                            fut.result()
                        except Exception:  # pragma: no cover - defensive
                            pass
                # A chunk whose host died may still have been rescued by a
                # hedge; only genuinely incomplete chunks go to the retry
                # round.
                remaining = [
                    a
                    for job in failed_jobs
                    if not job.done
                    for a in job.assignments
                ]
            return []
        finally:
            self._respawn_local()

    def _maybe_hedge(
        self,
        jobs: Sequence[_ChunkJob],
        A: CSRMatrix,
        spec_meta: dict,
        X: Optional[np.ndarray],
        Y: Optional[np.ndarray],
        Z: np.ndarray,
        hedge_futures: List,
    ) -> None:
        """Hedge every started, unfinished chunk past its deadline."""
        now = time.monotonic()
        for job in jobs:
            if job.done or job.hedged or job.started_at is None:
                continue
            deadline = self._hedge_deadline_s(job.nnz)
            if deadline is None or now - job.started_at < deadline:
                continue
            job.hedged = True
            self.hedges += 1
            hedge_futures.append(
                self._hedge_exec.submit(
                    self._hedge_job, job, A, spec_meta, X, Y, Z
                )
            )

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Controller accounting for ``KernelRuntime.stats()`` and logs."""
        hosts = self.live_hosts()
        return {
            "port": self.port,
            "hosts": [
                {
                    "name": h.name,
                    "slots": h.slots,
                    "threads": h.threads,
                    "runs": h.runs,
                    "loaded_matrices": len(h.loaded),
                    "local": h.process is not None,
                }
                for h in hosts
            ],
            "total_slots": sum(h.slots for h in hosts),
            "hosts_admitted": self.hosts_admitted,
            "hosts_lost": self.hosts_lost,
            "batches": self.batches,
            "retries": self.retries,
            "parent_fallbacks": self.parent_fallbacks,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "hedge_errors": self.hedge_errors,
            "registrations_rejected": self.registrations_rejected,
            "delta_ships": self.delta_ships,
            "delta_fallbacks": self.delta_fallbacks,
            **self.health.stats(),
        }

    def local_stats(self) -> Dict[str, object]:
        """The local slots: configured, alive, restarted, and the distinct
        matrices they hold."""
        local = [h for h in self.live_hosts() if h.process is not None]
        return {
            "processes": self.processes,
            "alive": sum(1 for h in local if h.process.is_alive()),
            "restarts": self.restarts,
            "registered_matrices": len(set().union(*(h.loaded for h in local))),
        }

    def close(self, *, notify: bool = True) -> None:
        """Stop accepting, dismiss agents, close every connection and
        join the local slots' processes.

        ``notify=False`` skips the EXIT frames — the connections are just
        severed, so agents observe a *disconnect* and keep retrying with
        backoff.  The chaos harness and the restart-recovery tests use
        this to simulate a controller crash rather than a clean
        shutdown.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            # Closing the listener does NOT wake a thread blocked in
            # accept() on Linux — the in-flight syscall keeps the
            # listening socket alive, so the port would keep completing
            # handshakes and a reconnecting agent could be admitted by
            # this half-dead controller (and then hang in a serve loop
            # nobody drives).  A throwaway self-connection forces
            # accept() to return; the loop re-checks ``_closed`` and
            # exits without admitting anyone.
            try:
                wake_host = (
                    self.host if self.host not in ("", "0.0.0.0") else "127.0.0.1"
                )
                wake = socket.create_connection((wake_host, self.port), timeout=0.5)
                wake.close()
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        for record in self.live_hosts():
            with record.lock:
                if notify:
                    try:
                        self._request(
                            record, OP_EXIT, {}, None, reply_timeout=1.0
                        )
                    except (
                        WorkerError,
                        ProtocolError,
                        ConnectionError,
                        OSError,
                        socket.timeout,
                    ):
                        pass
                record.close()
        with self._hosts_lock:
            self._hosts.clear()
            self._hosts_changed.notify_all()
        # An agent dismissed with EXIT (or severed) leaves its loop and
        # its process ends; one that does not is killed.
        with self._spawn_lock:
            for proc in self._procs:
                if proc is None:
                    continue
                proc.join(timeout=1.0)
                if proc.is_alive():  # pragma: no cover - stuck agent
                    proc.kill()
                    proc.join(timeout=1.0)
        self._hedge_exec.shutdown(wait=True)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=1.0)
        self._heartbeat_thread.join(timeout=self.heartbeat_s + 1.0)

    def __enter__(self) -> "RemoteController":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RemoteController(port={self.port}, "
            f"hosts={len(self.live_hosts())}, lost={self.hosts_lost})"
        )
