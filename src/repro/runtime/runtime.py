"""The batched FusedMM kernel runtime.

:class:`KernelRuntime` is the serving layer the apps and benchmarks sit
on.  It owns

* an LRU **plan cache** (:mod:`repro.runtime.cache`) keyed by matrix
  fingerprint + kernel configuration, so repeated calls on the same
  adjacency skip pattern resolution, backend dispatch, partitioning and
  autotuning entirely, and replay the edge-block schedule the plan kept
  on its first call;
* a shared **thread pool** reused across calls (the per-call executor of
  :func:`repro.core.parallel.run_partitioned` is bypassed);
* an **nnz-aware scheduler** (:meth:`run_batch`): large jobs are split
  over their plan's 1-D partitions and fanned out, small compatible jobs
  are packed into one block-diagonal kernel invocation
  (:mod:`repro.runtime.batch`);
* a **streaming epoch API** (:meth:`epochs`) that training loops bind once
  per adjacency and then drive with new feature matrices every epoch or
  minibatch;
* a **sharded tier** (:meth:`run_sharded` / :meth:`submit_sharded`,
  enabled with ``processes=`` and/or ``remote_port=``): the plan's 1-D
  partitions are grouped into nnz-balanced shards
  (:mod:`repro.runtime.shard`) and executed by worker agents
  (:mod:`repro.runtime.remote`) — local child processes and dial-in hosts
  alike — that each cache the CSR matrix; the escape hatch from the GIL
  for kernels too small to amortise NumPy's internal threading.

Determinism
-----------
Scheduling decisions (split counts, partition boundaries, packing, shard
assignment) depend only on the requests themselves — never on how many
worker threads or processes the runtime happens to own — so results are
bitwise identical across thread *and* shard counts, extending the
invariant documented in :mod:`repro.core.parallel`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.operators import is_builtin
from ..core.parallel import available_threads
from ..core.partition import DEFAULT_SPLIT_NNZ, RowPartition, split_parts
from ..core.patterns import OpPattern, get_pattern, pattern_key
from ..sparse import as_csr
from .batch import KernelRequest, pack_group_key, pack_requests
from .cache import CacheStats, PlanCache
from .codec import execute_parts, output_dtype, run_spec_meta, spec_from_meta
from .fingerprint import matrix_fingerprint, memoized_fingerprint
from .plan import KernelPlan, PlanKey, build_plan, make_config
from .remote import RemoteController
from .shard import ShardPlan, assign_shards

__all__ = ["KernelRuntime", "EpochStream"]

#: Requests at or below this nnz are candidates for packing.
DEFAULT_PACK_NNZ = 4096
#: Packing eligibility bound on the per-request dense operand footprint
#: ``(nrows + ncols) * d``.  Packing amortises per-call dispatch overhead,
#: but enlarges the gather working set (the packed X/Y concatenate all
#: requests), so bigger requests run as singles instead.  Measured on the
#: ``generated`` kernel (2 vCPUs, 300 alternating pairs of ``run_batch``
#: windows of inline 256-vertex, degree-8, d=16 requests, 8192 elements
#: each): packing won 49, 132 and 154 of the pairs at windows of 2, 4 and
#: 8 requests, medians 532/482/483 µs per request against 501/478/497 as
#: singles; at 10240 elements it lost at windows of 4 and 8.
PACK_DENSE_ELEMS = 6144
#: Below this nnz the streaming paths (``epochs``/``run_on``) keep a job in
#: process even when worker agents exist: shipping the operands to them
#: costs more than the kernel itself for small matrices.
#: Explicit ``run_sharded``/``submit_sharded`` calls ignore the threshold.
DEFAULT_SHARD_MIN_NNZ = 16384


def _req_dim(req: KernelRequest) -> int:
    """Feature dimension of a (normalised) request."""
    if req.X is not None:
        return req.X.shape[1]
    if req.Y is not None:
        return req.Y.shape[1]
    return 0


class EpochStream:
    """A per-adjacency handle for epoch-style training loops.

    Created by :meth:`KernelRuntime.epochs`; holds one cached plan and
    replays it with fresh operands:

    * :meth:`step` — the full-graph call of one epoch/iteration,
    * :meth:`run_on` — the same planned kernel on a derived matrix (a
      minibatch row slice, a sampled negative adjacency) without touching
      the plan cache.
    """

    def __init__(self, runtime: "KernelRuntime", A, plan: KernelPlan) -> None:
        self._runtime = runtime
        self.A = A
        self.plan = plan
        self.epochs_run = 0
        self.kernel_seconds = 0.0

    # ------------------------------------------------------------------ #
    def step(self, X=None, Y=None) -> np.ndarray:
        """Execute one full-adjacency epoch call with the cached plan.

        When the runtime has sharded capacity (``processes=`` or dial-in
        hosts) and the bound adjacency is large enough, the call runs
        through the sharded tier — bitwise identically to the in-process
        path (both run the plan's partitions of the bound matrix).
        """
        t0 = time.perf_counter()
        rt = self._runtime
        prep = rt._prepare_sharded(self.plan, self.A) if self.A.nnz >= rt.shard_min_nnz else None
        Z = rt._execute(self.plan, self.A, X, Y, prep=prep)
        self.kernel_seconds += time.perf_counter() - t0
        self.epochs_run += 1
        return Z

    __call__ = step

    def run_on(self, A_sub, X=None, Y=None) -> np.ndarray:
        """Execute the planned kernel on a derived matrix (minibatch slice,
        sampled negatives, …) — resolution and dispatch are reused, the
        partitioning is recomputed for the new matrix with the runtime's
        nnz-aware split policy (large slices fan out on the shared pool or
        the worker agents, small ones run sequentially)."""
        t0 = time.perf_counter()
        rt = self._runtime
        A_sub = as_csr(A_sub)
        parts = split_parts(A_sub, rt.split_nnz)
        # A one-part slice is not worth a ship to the agents.
        prep = None
        if len(parts) > 1 and A_sub.nnz >= rt.shard_min_nnz:
            prep = rt._prepare_sharded(self.plan, A_sub, parts=parts)
        Z = rt._execute(self.plan, A_sub, X, Y, parts=parts, prep=prep, keep=False)
        self.kernel_seconds += time.perf_counter() - t0
        return Z

    def describe(self) -> Dict[str, object]:
        """Plan summary plus stream-level counters."""
        info = self.plan.describe()
        info["epochs_run"] = self.epochs_run
        info["kernel_seconds"] = round(self.kernel_seconds, 6)
        return info


@dataclass
class _ShardPrep:
    """One prepared sharded dispatch (see ``KernelRuntime._prepare_sharded``)."""

    controller: RemoteController
    key: str
    A: object
    spec_meta: dict
    shard_plan: ShardPlan


class KernelRuntime:
    """Batched, plan-caching FusedMM execution engine.

    Parameters
    ----------
    num_threads:
        Worker threads of the shared pool; ``None``/0 means all available,
        1 disables the pool (fully sequential, still deterministic).
    cache_size:
        Capacity of the plan LRU.
    autotune:
        Default autotuning policy for new plans (overridable per call).
    pack_nnz, split_nnz:
        nnz-aware scheduling thresholds: requests at or below ``pack_nnz``
        are packed by :meth:`run_batch` (see :mod:`repro.runtime.batch`),
        jobs above ``split_nnz`` are split into
        :func:`~repro.core.partition.split_parts` partitions.
    processes:
        Local worker agents of the sharded tier; 0 (default) starts none.
        Each is a child process running a single-threaded
        :class:`~repro.runtime.remote.WorkerAgent` over a socketpair to
        the runtime's controller — the same protocol, routing and
        failure rule as a dial-in host; see :mod:`repro.runtime.remote`.
    shards:
        Default shard count for sharded calls (defaults to ``processes``;
        ``0`` means the whole sharded capacity; clamped to it per call).
    shard_min_nnz:
        Streaming calls (``epochs().step``/``run_on``) only use the worker
        agents for matrices at or above this nnz; explicit sharded calls
        ignore it.
    remote_port, remote_host:
        Listen on this address for ``repro worker`` host registrations
        (``remote_port=0`` binds an ephemeral port, readable as
        ``runtime.controller.port``; ``None`` opens no socket).  Admitted
        hosts add shard capacity next to the local agents.
    remote_heartbeat_s, remote_timeout:
        Liveness cadence for idle agents and the per-exchange reply
        ceiling after which an agent is declared lost and its shards are
        retried on the survivors.  RUN replies additionally get an
        nnz-scaled window derived from observed throughput, so small
        jobs detect stragglers long before this worst-case cap.
    remote_heartbeat_strikes:
        Consecutive missed heartbeat pings before an idle agent is
        evicted (default 3 — one GC pause is a strike, not a loss).
        Straggling chunks are always hedged in-parent; see
        :class:`~repro.runtime.remote.RemoteController`.
    remote_token:
        Shared secret ``repro worker`` hosts must present to register
        (constant-time compared).  ``None`` admits any peer — fine on
        the loopback default ``remote_host``, set it whenever the
        controller binds a cross-machine interface.

    Example
    -------
    >>> from repro.runtime import KernelRuntime
    >>> from repro.sparse import random_csr
    >>> from repro.graphs import random_features
    >>> rt = KernelRuntime(num_threads=1)
    >>> A = random_csr(100, 100, density=0.05, seed=0)
    >>> X = random_features(100, 8, seed=0)
    >>> Z = rt.run(A, X, pattern="sigmoid_embedding")   # plans + executes
    >>> Z2 = rt.run(A, X, pattern="sigmoid_embedding")  # cache hit
    >>> rt.stats()["plan_cache"]["hits"]
    1
    """

    def __init__(
        self,
        num_threads: Optional[int] = None,
        *,
        cache_size: int = 64,
        autotune: bool = False,
        autotune_dim: int = 128,
        pack_nnz: int = DEFAULT_PACK_NNZ,
        split_nnz: int = DEFAULT_SPLIT_NNZ,
        processes: Optional[int] = None,
        shards: Optional[int] = None,
        shard_min_nnz: int = DEFAULT_SHARD_MIN_NNZ,
        remote_port: Optional[int] = None,
        remote_host: str = "127.0.0.1",
        remote_heartbeat_s: float = 2.0,
        remote_heartbeat_strikes: int = 3,
        remote_timeout: float = 60.0,
        remote_token: Optional[str] = None,
    ) -> None:
        self.num_threads = num_threads or available_threads()
        self.autotune = autotune
        self.autotune_dim = autotune_dim
        self.pack_nnz = pack_nnz
        self.split_nnz = split_nnz
        # ``shards=N`` without ``processes=`` implies N local agents.
        self.processes = int(processes or 0)
        if self.processes == 0 and shards:
            self.processes = int(shards)
        self.shards = int(shards or self.processes)
        self.shard_min_nnz = shard_min_nnz
        self.remote_port = remote_port
        self.remote_host = remote_host
        self.remote_heartbeat_s = remote_heartbeat_s
        self.remote_heartbeat_strikes = remote_heartbeat_strikes
        self.remote_timeout = remote_timeout
        self.remote_token = remote_token
        self._controller: Optional[RemoteController] = None
        self._controller_lock = threading.Lock()
        # The one dispatcher thread behind submit_sharded.
        self._dispatcher: Optional[ThreadPoolExecutor] = None
        self._cache = PlanCache(cache_size)
        # Matrix-independent dispatch configs for one-shot batch requests
        # (unbounded is fine: one entry per pattern/backend/blocking tuple).
        self._configs: Dict[tuple, KernelPlan] = {}
        self._configs_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        # Named live stats callables merged into stats() — the serving
        # layer attaches its coalescer here so queue/window health is
        # observable through every surface that already reads runtime
        # stats (``repro runtime stats``, the apps' ``runtime_stats()``).
        self._stats_sections: Dict[str, object] = {}
        self._counters: Dict[str, int] = {
            "requests": 0,
            "batches": 0,
            "packed_requests": 0,
            "packed_groups": 0,
            "split_jobs": 0,
            "single_jobs": 0,
            "sharded_jobs": 0,
            "sharded_submitted": 0,
            "parent_fallbacks": 0,
            # sharded-tier calls run in process because an operator slot
            # of the pattern is a callable, not a registered name
            "unpicklable_fallbacks": 0,
        }
        self._closed = False

    # ------------------------------------------------------------------ #
    # Pool management
    # ------------------------------------------------------------------ #
    @property
    def pool(self) -> Optional[ThreadPoolExecutor]:
        """The shared executor (created lazily; ``None`` when sequential)."""
        if self.num_threads <= 1:
            return None
        with self._pool_lock:
            if self._pool is None and not self._closed:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_threads,
                    thread_name_prefix="repro-runtime",
                )
            return self._pool

    @property
    def controller(self) -> Optional[RemoteController]:
        """The sharded tier's controller (created lazily when
        ``processes=`` or ``remote_port=`` is configured; ``None``
        otherwise and after :meth:`close`).

        Creation starts the local agents and returns once they have
        registered; with ``remote_port=`` it also opens the listening
        socket, so hosts started with ``repro worker`` can register from
        then on.
        """
        if self.processes <= 0 and self.remote_port is None:
            return None
        with self._controller_lock:
            if self._controller is None and not self._closed:
                self._controller = RemoteController(
                    host=self.remote_host,
                    port=self.remote_port,
                    processes=max(0, self.processes),
                    heartbeat_s=self.remote_heartbeat_s,
                    heartbeat_strikes=self.remote_heartbeat_strikes,
                    timeout=self.remote_timeout,
                    token=self.remote_token,
                )
            return self._controller

    def close(self) -> None:
        """Shut down the shared pool and the controller with its worker
        agents; the runtime stays usable sequentially (in-process)."""
        with self._pool_lock:
            self._closed = True
            # Drain queued sharded calls while their agents still exist.
            if self._dispatcher is not None:
                self._dispatcher.shutdown(wait=True)
                self._dispatcher = None
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
        with self._controller_lock:
            if self._controller is not None:
                self._controller.close()
                self._controller = None

    def __enter__(self) -> "KernelRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        # Reclaim pool threads and worker agents when a runtime owner
        # (e.g. an app instance) is garbage collected without close().
        for name in ("_dispatcher", "_pool"):
            executor = getattr(self, name, None)
            if executor is not None:
                executor.shutdown(wait=False)
        controller = getattr(self, "_controller", None)
        if controller is not None:
            try:
                controller.close()
            except Exception:
                pass

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def plan(
        self,
        A,
        *,
        pattern: Union[OpPattern, str] = "sigmoid_embedding",
        backend: str = "auto",
        block_size: Optional[int] = None,
        autotune: Optional[bool] = None,
        **pattern_overrides,
    ) -> KernelPlan:
        """Fetch (or build and cache) the execution plan for ``A``."""
        A = as_csr(A)
        op_pattern = get_pattern(pattern, **pattern_overrides)
        resolved = op_pattern.resolved()
        key = PlanKey(
            fingerprint=matrix_fingerprint(A),
            pattern=pattern_key(resolved),
            backend=backend,
            num_threads=self.num_threads,
            block_size=block_size or 0,
            autotune=self.autotune if autotune is None else bool(autotune),
        )
        plan = self._cache.get(key)
        if plan is not None:
            return plan
        plan = build_plan(
            A,
            key,
            op_pattern,
            resolved,
            split_nnz=self.split_nnz,
            autotune_dim=self.autotune_dim,
        )
        self._cache.put(key, plan)
        return plan

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._counters[counter] += amount

    def _execute(
        self,
        plan: KernelPlan,
        A,
        X,
        Y,
        *,
        parts: Optional[Sequence[RowPartition]] = None,
        prep: Optional["_ShardPrep"] = None,
        keep: bool = True,
    ) -> np.ndarray:
        """The one route from every entry point to the kernel.

        ``parts=None`` means ``A`` is the plan's bound matrix, so the
        plan's own partitions run, in process through the plan's kept
        edge-block schedule (:meth:`~repro.runtime.plan.KernelPlan.bound_schedule`,
        built on the first such call); a derived matrix — minibatch slice, sampled
        negatives — brings its :func:`~repro.core.partition.split_parts`
        partitions and a one-call schedule.  ``prep`` is the sharded
        dispatch an entry point that may shard got from
        :meth:`_prepare_sharded` on its own thread; ``None`` (no capacity,
        or not allowed to shard) runs the call in process.  ``keep=False``
        marks a one-shot matrix: nothing derived from it is kept (the
        agents drop it afterwards, no schedule is built).

        Either way the same partitions run with the same resolved kernel
        on the same matrix, and the split count depends on the matrix
        alone, so results are bitwise identical across thread and shard
        counts and across the two paths.
        """
        if prep is not None:
            self._bump("sharded_jobs")
            try:
                return self._dispatch(prep, X, Y)
            finally:
                if not keep:
                    prep.controller.drop_matrix(prep.key)
        A = as_csr(A)
        schedule = None
        if parts is None:
            parts = plan.partitions
            if keep:
                fresh = plan.schedule is None
                schedule = plan.bound_schedule(A)
                if fresh and schedule is not None:  # the plan grew
                    self._cache.reweigh(plan.key, plan)
        if len(parts) > 1 and plan.supports_parts:
            self._bump("split_jobs")
            pool = self.pool
            return plan.execute(
                A, X, Y, parts=parts, pool=pool,
                num_threads=len(parts) if pool is not None else 1,
                schedule=schedule,
            )
        return plan.execute(A, X, Y, num_threads=1, schedule=schedule)

    # ------------------------------------------------------------------ #
    # Sharded execution (worker agents, local and dial-in)
    # ------------------------------------------------------------------ #
    @property
    def sharded_capacity(self) -> int:
        """Total sharded-tier slots: the local agents plus the slots of
        currently registered dial-in hosts.  Zero means :meth:`run_sharded`
        and :meth:`submit_sharded` will fall back to in-process execution.
        Side-effect free: does not lazily start the local agents."""
        if self._closed:
            return 0
        with self._controller_lock:
            controller = self._controller
        remote = 0 if controller is None else controller.dialin_slots()
        return max(0, self.processes) + remote

    def _shard_count(self, shards: Optional[int], capacity: int) -> int:
        """The shard count of a sharded call: ``shards`` (default: the
        runtime's), ``<= 0`` meaning the whole capacity, clamped to it."""
        n = self.shards if shards is None else int(shards)
        if n <= 0:
            n = capacity
        if capacity > 0:
            n = min(n, capacity)
        return max(1, n)

    def _prepare_sharded(
        self,
        plan: KernelPlan,
        A,
        *,
        shards: Optional[int] = None,
        parts=None,
    ) -> Optional["_ShardPrep"]:
        """Everything a sharded dispatch needs, or ``None`` when the tier
        cannot take the job (no capacity, a callable operator slot) and
        :meth:`_execute` runs it in process.

        Operands are *not* copied here — the controller detects ``Y is X``
        aliasing on the original objects and ships ``X`` once.  The shard
        count comes from :meth:`_shard_count` over
        :attr:`sharded_capacity`, the same sizing :meth:`shard_plan`
        reports.
        """
        # Cheap capacity probe first: streaming calls come through here on
        # every epoch.
        capacity = self.sharded_capacity
        if not plan.supports_parts or capacity == 0:
            return None
        spec_meta = run_spec_meta(plan)
        if spec_meta is None:
            self._bump("unpicklable_fallbacks")
            return None
        controller = self.controller
        if controller is None:  # closed meanwhile
            return None
        key = plan.key.fingerprint if parts is None else matrix_fingerprint(A)
        partitions = plan.partitions if parts is None else parts
        return _ShardPrep(
            controller=controller,
            key=key,
            A=A,
            spec_meta=spec_meta,
            shard_plan=assign_shards(partitions, self._shard_count(shards, capacity)),
        )

    def _dispatch(self, prep: "_ShardPrep", X, Y) -> np.ndarray:
        """The one sharded dispatch.

        The controller routes the shard groups over its live agents by
        slot weight, writes the rows they complete into ``Z`` and returns
        the assignments no surviving agent could take.  Those run
        in-parent through the same
        :func:`~repro.runtime.codec.execute_parts` call the agents make,
        so the call always completes with the same bytes.
        """
        A = prep.A
        d = (X if X is not None else Y).shape[1]
        Z = np.zeros((A.nrows, d), dtype=output_dtype(X, Y))
        leftovers = prep.controller.run_assignments(
            prep.key, A, prep.spec_meta, prep.shard_plan.assignments, X, Y, Z
        )
        if leftovers:
            self._bump("parent_fallbacks")
            spec = spec_from_meta(prep.spec_meta)
            configs: dict = {}
            for a in leftovers:
                execute_parts(spec, A, X, Y, a.parts, Z, configs=configs)
        return Z

    def shard_plan(self, A, *, shards: Optional[int] = None, **plan_opts) -> ShardPlan:
        """The shard assignment a sharded call on ``A`` would use."""
        plan = self.plan(A, **plan_opts)
        shippable = plan.supports_parts and run_spec_meta(plan) is not None
        capacity = self.sharded_capacity if shippable else 0
        return assign_shards(plan.partitions, self._shard_count(shards, capacity))

    def run_sharded(
        self, A, X=None, Y=None, *, shards: Optional[int] = None, **plan_opts
    ) -> np.ndarray:
        """One-shot planned execution through the sharded tier.

        Bitwise identical to :meth:`run` and to sequential
        :func:`~repro.core.fused.fusedmm`.  Runs in process when the
        runtime has no sharded capacity or an operator slot of the pattern
        is a callable (counted as ``stats()["unpicklable_fallbacks"]``).
        An agent lost mid-call costs time, not the call: its rows are
        retried on the surviving agents, then finish in-parent.
        """
        self._bump("requests")
        A = as_csr(A)
        plan = self.plan(A, **plan_opts)
        prep = self._prepare_sharded(plan, A, shards=shards)
        return self._execute(plan, A, X, Y, prep=prep)

    def submit_sharded(
        self, A, X=None, Y=None, *, shards: Optional[int] = None, **plan_opts
    ) -> "Future[np.ndarray]":
        """Asynchronous :meth:`run_sharded`; returns a future.

        Planning and the sharding decision (capacity, shard count, the
        controller that will run it) happen on the caller thread; the
        dispatch runs on the runtime's one dispatcher thread, so a call
        queued when :meth:`close` starts still runs on the agents it was
        given.  Without sharded capacity (or after :meth:`close`) the
        request executes in process on the caller thread and a completed
        future is returned.
        """
        self._bump("requests")
        self._bump("sharded_submitted")
        A = as_csr(A)
        plan = self.plan(A, **plan_opts)
        prep = self._prepare_sharded(plan, A, shards=shards)
        dispatcher = None
        if prep is not None:
            with self._pool_lock:
                if self._dispatcher is None and not self._closed:
                    self._dispatcher = ThreadPoolExecutor(
                        max_workers=1, thread_name_prefix="repro-shard-dispatch"
                    )
                dispatcher = self._dispatcher
        if dispatcher is not None:
            return dispatcher.submit(self._execute, plan, A, X, Y, prep=prep)
        fut: "Future[np.ndarray]" = Future()
        try:
            fut.set_result(self._execute(plan, A, X, Y))
        except BaseException as exc:  # pragma: no cover - propagated
            fut.set_exception(exc)
        return fut

    def run(self, A, X=None, Y=None, **plan_opts) -> np.ndarray:
        """One-shot planned execution: ``Z = FusedMM(A, X, Y)``.

        Functionally equivalent to :func:`repro.core.fused.fusedmm` but
        amortised: the second call with the same adjacency and
        configuration skips planning entirely.  Always in process; the
        plan's partitions fan out over the shared thread pool.
        """
        self._bump("requests")
        plan = self.plan(A, **plan_opts)
        return self._execute(plan, A, X, Y)

    # ------------------------------------------------------------------ #
    def _config(self, req: KernelRequest) -> KernelPlan:
        """Cached matrix-independent dispatch config for a request.

        Requests with string patterns and no overrides (the overwhelmingly
        common case) share one cached config per registered pattern object,
        backend and block size, looked up before anything is resolved.  A
        re-registered name is a new object, so it misses; the config holds
        its pattern, so an ``id`` is never reused while it is a key.  Only
        patterns of built-in operators are cached: a slot naming a user
        operator follows that operator's re-registration, so such a
        pattern, like any other request, is resolved inline.
        """
        op_pattern = get_pattern(req.pattern, **dict(req.overrides))
        cacheable = isinstance(req.pattern, str) and not req.overrides
        key = (id(op_pattern), req.backend, req.block_size or 0)
        if cacheable:
            with self._configs_lock:
                cfg = self._configs.get(key)
            if cfg is not None:
                return cfg
        resolved = op_pattern.resolved()
        cfg = make_config(
            op_pattern,
            resolved,
            backend=req.backend,
            block_size=req.block_size,
            num_threads=self.num_threads,
        )
        if cacheable and all(is_builtin(op) for op in resolved.ops().values()):
            with self._configs_lock:
                self._configs[key] = cfg
        return cfg

    def _cached_plan(self, req: KernelRequest, cfg: KernelPlan) -> Optional[KernelPlan]:
        """The cached plan of a fingerprinted matrix instance under the
        request's own key, or ``None``.

        The fingerprint comes from the per-instance memo (a registered
        graph was fingerprinted when it was planned): nothing is hashed,
        and nothing is built on a miss.
        """
        fingerprint = memoized_fingerprint(req.A)
        if fingerprint is None:
            return None
        return self._cache.get(
            PlanKey(
                fingerprint=fingerprint,
                pattern=cfg.key.pattern,
                backend=req.backend,
                num_threads=self.num_threads,
                block_size=req.block_size or 0,
                autotune=False,
            )
        )

    def run_batch(
        self, requests: Sequence[Union[KernelRequest, dict]]
    ) -> List[np.ndarray]:
        """Execute many requests with nnz-aware scheduling.

        Results are returned in request order and are bitwise identical to
        issuing each request as a sequential single-threaded
        :func:`~repro.core.fused.fusedmm` call with the same parameters.

        A request on a matrix the plan cache already holds a plan for,
        under the request's own key (:meth:`_cached_plan`: a registered
        graph's warm plans), runs through that plan and its kept block
        schedule.  Other small requests deliberately bypass the plan LRU
        (their dispatch decisions come from a matrix-independent config
        cache), so batch traffic never evicts the long-lived epoch plans.
        """
        reqs: List[KernelRequest] = [
            (r if isinstance(r, KernelRequest) else KernelRequest(**r)).normalized()
            for r in requests
        ]
        self._bump("batches")
        self._bump("requests", len(reqs))
        if not reqs:
            return []

        results: List[Optional[np.ndarray]] = [None] * len(reqs)
        pool = self.pool

        # Classify: planned, packable smalls, splittable larges, everything
        # else.
        plans: List[KernelPlan] = []
        planned: set = set()
        groups: Dict[tuple, List[int]] = {}
        larges: List[int] = []
        singles: List[int] = []
        for i, req in enumerate(reqs):
            cfg = self._config(req)
            plan = self._cached_plan(req, cfg)
            if plan is not None:
                cfg = plan
                planned.add(i)
                (larges if len(plan.partitions) > 1 else singles).append(i)
            elif req.A.nnz > self.split_nnz and cfg.supports_parts:
                # Worth a full (fingerprinted, LRU-cached) plan: the split
                # partitioning is reused on repeated submissions.
                cfg = self.plan(
                    req.A,
                    pattern=req.pattern,
                    backend=req.backend,
                    block_size=req.block_size,
                    **dict(req.overrides),
                )
                larges.append(i)
            elif (
                cfg.supports_parts
                # Packable requests must fit inside one edge block of a
                # standalone call, so a packed multi-request block replays
                # the exact same per-row arithmetic …
                and req.A.nnz <= min(self.pack_nnz, cfg.block_size)
                # … and must be small enough that the enlarged gather
                # working set doesn't cancel the dispatch savings.
                and (req.A.nrows + req.A.ncols) * _req_dim(req) <= PACK_DENSE_ELEMS
            ):
                groups.setdefault(pack_group_key(cfg, req), []).append(i)
            else:
                singles.append(i)
            plans.append(cfg)

        # Groups of one are ordinary single jobs.
        packed_groups: List[List[int]] = []
        for members in groups.values():
            if len(members) == 1:
                singles.append(members[0])
            else:
                packed_groups.append(members)

        def run_single(i: int) -> np.ndarray:
            req = reqs[i]
            if i in planned:  # one partition: never waits on the pool
                return self._execute(plans[i], req.A, req.X, req.Y)
            return plans[i].execute(req.A, req.X, req.Y, num_threads=1)

        def run_packed(members: List[int]) -> List[np.ndarray]:
            packed = pack_requests([reqs[i] for i in members])
            plan = plans[members[0]]
            # Coalesce the per-request partitions into request-aligned
            # parts of roughly one planned edge block each.  Each part is
            # then processed as a single fused block (``block_size`` covers
            # the largest part): rows never straddle a block boundary —
            # every row is one segment reduction, exactly as in a
            # standalone single-threaded call — so results are bitwise
            # identical, while the gathers/einsum/segment sums vectorise over
            # whole multi-request blocks instead of per-request calls.
            # Part boundaries depend only on the requests, never on the
            # pool width, so thread-count determinism is preserved.
            target = max(plan.block_size, 1)
            parts: List[RowPartition] = []
            acc_start = acc_stop = acc_nnz = 0
            for p in packed.parts:
                if acc_nnz and acc_nnz + p.nnz > target:
                    parts.append(RowPartition(acc_start, acc_stop, acc_nnz))
                    acc_start, acc_nnz = acc_stop, 0
                acc_stop = p.stop
                acc_nnz += p.nnz
            if acc_stop > acc_start:
                parts.append(RowPartition(acc_start, acc_stop, acc_nnz))
            # One block per part: with grid-aligned blocks the only multiple
            # of ``bs`` is edge 0 when ``bs`` covers the whole packed edge
            # array, so no part is ever cut internally.
            bs = max(packed.A.nnz, 1)
            group_pool = self.pool
            Z = plan.execute(
                packed.A,
                packed.X,
                packed.Y,
                parts=parts,
                pool=group_pool,
                num_threads=len(parts) if group_pool is not None else 1,
                block_size=bs,
            )
            return packed.split_result(Z)

        futures = []
        if pool is not None:
            for i in singles:
                futures.append((i, pool.submit(run_single, i)))
        # Packed groups and large jobs fan their partitions out over the
        # pool from this thread (never from inside a worker — no nested
        # waiting); singles run concurrently as ordinary pool tasks.
        for members in packed_groups:
            for i, Z in zip(members, run_packed(members)):
                results[i] = Z
        for i in larges:
            req = reqs[i]
            results[i] = self._execute(plans[i], req.A, req.X, req.Y, keep=i in planned)
        if pool is None:
            for i in singles:
                results[i] = run_single(i)
        else:
            for i, fut in futures:
                results[i] = fut.result()

        self._bump("single_jobs", len(singles))
        self._bump("packed_groups", len(packed_groups))
        self._bump("packed_requests", sum(len(m) for m in packed_groups))
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    def epochs(self, A, **plan_opts) -> EpochStream:
        """Bind a cached plan to ``A`` for an epoch-style training loop."""
        A = as_csr(A)
        plan = self.plan(A, **plan_opts)
        return EpochStream(self, A, plan)

    # ------------------------------------------------------------------ #
    def cache_stats(self) -> CacheStats:
        """Plan-cache accounting (hits, misses, evictions, size)."""
        return self._cache.stats()

    def clear_cache(self) -> None:
        """Drop all cached plans."""
        self._cache.clear()

    def release_matrix(self, fingerprint: str, *, remote: bool = True) -> Dict[str, int]:
        """Evict every cache entry derived from ``fingerprint``'s lineage.

        Cascades through both tiers that key on matrix fingerprints:
        cached plans and the worker agents' matrix LRUs (local and
        dial-in alike).  Versioned descendants (``<fp>@vN``) are covered
        too — this is the one call sites use when a graph is dropped or
        superseded, so no tier can leak entries for matrices nothing will
        ask for again.  Returns per-tier eviction counts (for stats and
        tests).

        ``remote=False`` skips the agents: the dynamic-graph path keeps
        the superseded version on them for one more round because it is
        the splice base of the next dirty-shard delta ship.
        """
        fingerprint = str(fingerprint)
        evicted = {
            "plans": self._cache.evict_fingerprint(fingerprint),
            "remote_matrices": 0,
        }
        if remote:
            with self._controller_lock:
                controller = self._controller
            if controller is not None:
                evicted["remote_matrices"] = controller.drop_matrix(fingerprint)
        return evicted

    def plan_bytes(self, fingerprint: str) -> Dict[str, int]:
        """Cached-plan count and retained bytes for one fingerprint lineage
        (feeds the per-graph memory accounting on ``/statz``)."""
        return self._cache.bytes_for(str(fingerprint))

    def update_matrix(
        self,
        old_fingerprint: str,
        A_new,
        new_fingerprint: Optional[str] = None,
    ) -> int:
        """Rebind the cached plans of a mutated matrix.

        Each plan keyed on ``old_fingerprint`` gets a successor keyed on
        the new fingerprint: backend resolution, the kernel and autotune
        results carry over, only the nnz-balanced partitions are
        recomputed (and the block schedule is rebuilt on the successor's
        first call).  The old version is evicted before the successors go
        in, so a full LRU never pushes out another matrix's plan.  Returns
        the number of plans refreshed.
        """
        A_new = as_csr(A_new)
        old_fingerprint = str(old_fingerprint)
        new_fp = (
            str(new_fingerprint) if new_fingerprint else matrix_fingerprint(A_new)
        )
        plans = [
            (key, plan)
            for key, plan in self._cache.entries_for(old_fingerprint)
            if key.fingerprint == old_fingerprint
        ]
        self._cache.evict_fingerprint(old_fingerprint)
        for key, plan in plans:
            new_key = replace(key, fingerprint=new_fp)
            self._cache.put(
                new_key,
                replace(
                    plan,
                    key=new_key,
                    nnz=A_new.nnz,
                    shape=A_new.shape,
                    partitions=split_parts(A_new, self.split_nnz),
                    calls=0,
                    _calls_lock=threading.Lock(),
                ),
            )
        return len(plans)

    def attach_stats_section(self, name: str, provider) -> None:
        """Merge ``provider()`` into :meth:`stats` under ``name``.

        Attached providers are called on every :meth:`stats` read, so
        layers built on the runtime (the serving coalescer, future queue
        tiers) surface their health through the same observability
        surfaces the runtime already has.  Re-attaching a name replaces
        the previous provider; attach ``None`` to detach.
        """
        with self._stats_lock:
            if provider is None:
                self._stats_sections.pop(name, None)
            else:
                self._stats_sections[name] = provider

    def stats(self) -> Dict[str, object]:
        """Runtime-wide counters + plan-cache stats (for logs/monitoring)."""
        with self._stats_lock:
            counters = dict(self._counters)
            sections = dict(self._stats_sections)
        with self._controller_lock:
            controller = self._controller
        extra = {name: provider() for name, provider in sections.items()}
        return {
            "plan_cache": self.cache_stats().as_dict(),
            "num_threads": self.num_threads,
            "pool_active": self._pool is not None,
            "processes": self.processes,
            "shards": self.shards,
            "workers": (
                None
                if controller is None or not controller.processes
                else controller.local_stats()
            ),
            "remote": None if controller is None else controller.stats(),
            **counters,
            **extra,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.cache_stats()
        return (
            f"KernelRuntime(num_threads={self.num_threads}, "
            f"plans={s.size}/{s.capacity}, hits={s.hits}, misses={s.misses})"
        )
