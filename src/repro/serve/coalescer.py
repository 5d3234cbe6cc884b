"""Micro-batching request coalescer: concurrent requests → kernel windows.

Serving traffic arrives one request at a time, but the kernel runtime is
at its best when it sees many requests at once: :meth:`KernelRuntime.
run_batch` packs small compatible jobs into one block-diagonal kernel
invocation and fans large ones over its partitions.  The
:class:`Coalescer` is the piece that turns the former into the latter —
an asyncio component that

* collects concurrent :class:`~repro.runtime.KernelRequest` submissions
  into **windows** bounded by ``max_batch`` (size) and ``max_wait_ms``
  (time): the first request of a window starts the timer, and the window
  dispatches when it fills or the timer fires, whichever comes first;
* dispatches each window through ``run_batch`` on a small thread pool
  (the event loop never blocks on kernel work);
* routes **large single jobs** — ``nnz >= shard_min_nnz`` — around the
  window straight into ``submit_sharded``: one such job is already
  enough work to fill the machine, and batching it behind a timer only
  adds latency;
* enforces **admission control**: a bounded queue
  (:class:`~repro.errors.QueueFullError` → 429), per-request deadlines
  checked at dispatch time (:class:`~repro.errors.DeadlineError` → 504)
  and a graceful :meth:`drain` that stops admission
  (:class:`~repro.errors.DrainingError` → 503) and flushes what was
  already accepted.

Correctness contract
--------------------
Coalescing is *numerically invisible*: ``run_batch`` results are bitwise
identical to issuing each request as a sequential single-threaded
``fusedmm`` call, and the sharded route is bitwise identical to both —
so any interleaving of concurrent clients receives exactly the bytes
serial execution would have produced.  The test suite asserts this end to end.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional

import numpy as np

from ..errors import DeadlineError, DrainingError, QueueFullError
from ..runtime import KernelRequest

__all__ = ["Coalescer", "CoalescerStats"]

#: Ring-buffer length for queue-wait samples (p50/p99 come from here).
_WAIT_SAMPLES = 4096


class CoalescerStats:
    """Thread-safe counters + wait-time percentiles of one coalescer.

    Reads come from other threads (``/statz`` handlers driven by the
    benchmark, ``repro runtime stats``) while the event loop writes, so
    mutation goes through a lock.

    Accounting invariant (once the coalescer is idle): every submitted
    request ends in exactly one terminal counter, so ::

        submitted == completed + failed + cancelled
                     + rejected_queue_full + rejected_draining

    ``cancelled`` counts clients that disconnected between admission and
    completion — without it, ``/statz`` occupancy math drifts under
    connection churn.  (``expired_deadline`` is a sub-category of
    ``failed``, not a separate terminal state.)
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.batches = 0
        self.coalesced_requests = 0
        self.sharded_requests = 0
        self.rejected_queue_full = 0
        self.rejected_draining = 0
        self.expired_deadline = 0
        self._waits_ms: Deque[float] = deque(maxlen=_WAIT_SAMPLES)

    def bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def record_window(self, size: int, waits_ms: List[float]) -> None:
        with self._lock:
            self.batches += 1
            self.coalesced_requests += size
            self._waits_ms.extend(waits_ms)

    def as_dict(self) -> Dict[str, object]:
        with self._lock:
            waits = np.asarray(self._waits_ms, dtype=np.float64)
            out: Dict[str, object] = {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "batches": self.batches,
                "coalesced_requests": self.coalesced_requests,
                "sharded_requests": self.sharded_requests,
                "rejected_queue_full": self.rejected_queue_full,
                "rejected_draining": self.rejected_draining,
                "expired_deadline": self.expired_deadline,
            }
        out["mean_window_occupancy"] = (
            round(out["coalesced_requests"] / out["batches"], 3)
            if out["batches"]
            else 0.0
        )
        if waits.size:
            out["wait_ms_p50"] = round(float(np.percentile(waits, 50)), 3)
            out["wait_ms_p99"] = round(float(np.percentile(waits, 99)), 3)
        else:
            out["wait_ms_p50"] = out["wait_ms_p99"] = 0.0
        return out


class _Pending:
    """One admitted request waiting in (or dispatched from) a window."""

    __slots__ = ("request", "future", "enqueued", "deadline")

    def __init__(
        self,
        request: KernelRequest,
        future: "asyncio.Future[np.ndarray]",
        deadline: Optional[float],
    ) -> None:
        self.request = request
        self.future = future
        self.enqueued = time.monotonic()
        self.deadline = deadline


class Coalescer:
    """Micro-batching front-end over one :class:`~repro.runtime.KernelRuntime`.

    Must be used from within a running event loop (the HTTP server's, or
    an ``asyncio.run`` scope in tests/benchmarks).  The runtime is *not*
    owned: callers close it themselves after :meth:`drain`.

    Parameters
    ----------
    runtime:
        The kernel runtime windows dispatch into.
    max_batch:
        Window capacity; ``1`` disables coalescing (each request
        dispatches alone — the serve benchmark's baseline mode).
    max_wait_ms:
        Window timer: how long the first request of a window waits for
        company before the window dispatches anyway.
    idle_flush_ms:
        Optional early flush: when set, the window also dispatches this
        long after the *last* arrival — so a closed-loop burst (N clients
        fire together, then go quiet until their responses land) coalesces
        with ~``idle_flush_ms`` of added latency instead of always paying
        the full ``max_wait_ms``.  ``0`` disables the heuristic.
    max_queue:
        Admission bound on requests admitted but not yet dispatched.
    shard_min_nnz:
        Single jobs at or above this nnz bypass the window and route
        through ``submit_sharded`` (defaults to the runtime's own
        ``shard_min_nnz``).
    dispatch_workers:
        Threads executing flushed windows (and in-process large jobs).
    """

    def __init__(
        self,
        runtime,
        *,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        idle_flush_ms: float = 0.25,
        max_queue: int = 256,
        shard_min_nnz: Optional[int] = None,
        dispatch_workers: int = 2,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.runtime = runtime
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.idle_flush_ms = min(idle_flush_ms, max_wait_ms)
        self.max_queue = max_queue
        self.shard_min_nnz = (
            runtime.shard_min_nnz if shard_min_nnz is None else int(shard_min_nnz)
        )
        self.stats = CoalescerStats()
        self._window: List[_Pending] = []
        self._queued = 0
        self._inflight: "set[asyncio.Task]" = set()
        self._timer: Optional[asyncio.TimerHandle] = None
        self._idle_timer: Optional[asyncio.TimerHandle] = None
        self._draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=dispatch_workers, thread_name_prefix="repro-serve"
        )
        # The serving layer surfaces its health through the runtime's own
        # observability: stats() grows a "coalescer" section while a
        # coalescer is attached.
        runtime.attach_stats_section("coalescer", self.stats.as_dict)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        request: KernelRequest,
        *,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Admit one request and await its result.

        ``deadline_ms`` bounds *queueing*: a request still undispatched
        when its deadline passes fails with :class:`DeadlineError`
        instead of running a kernel nobody is waiting for.  Raises
        :class:`QueueFullError` at the admission bound and
        :class:`DrainingError` once :meth:`drain` has begun.
        """
        self.stats.bump("submitted")
        if self._draining:
            self.stats.bump("rejected_draining")
            raise DrainingError("server is draining; not accepting new requests")
        if self._queued >= self.max_queue:
            self.stats.bump("rejected_queue_full")
            raise QueueFullError(
                f"admission queue full ({self.max_queue} requests waiting)"
            )
        # Normalise on the loop thread: shape errors surface here as 400s,
        # never inside a window where they would poison batchmates.
        request = request.normalized()
        loop = asyncio.get_running_loop()
        deadline = (
            None if not deadline_ms else time.monotonic() + deadline_ms / 1000.0
        )

        # Large singles: one of these is a machine-filling job already —
        # route it straight to the sharded tier (or the in-process path on
        # a dispatch thread) instead of delaying it behind a window timer.
        if request.A.nnz >= self.shard_min_nnz:
            # Count the large single against the admission bound *here*,
            # before control returns to the loop: the execution task may
            # not run until long after many more submissions were checked,
            # so incrementing inside the task lets a burst of large
            # singles all pass the ``_queued >= max_queue`` check above
            # and overshoot the bound.
            self._queued += 1
            return await self._submit_large(request, deadline)

        pending = _Pending(request, loop.create_future(), deadline)
        self._window.append(pending)
        self._queued += 1
        if len(self._window) >= self.max_batch:
            self._flush()
        else:
            if self._timer is None:
                self._timer = loop.call_later(self.max_wait_ms / 1000.0, self._flush)
            if self.idle_flush_ms > 0:
                # Re-arm the idle timer on every arrival: the window
                # dispatches shortly after the burst stops growing.
                if self._idle_timer is not None:
                    self._idle_timer.cancel()
                self._idle_timer = loop.call_later(
                    self.idle_flush_ms / 1000.0, self._flush
                )
        try:
            result = await pending.future
        finally:
            # Cancellation (client gone) must not leave the slot counted.
            if not pending.future.done():
                pending.future.cancel()
        self.stats.bump("completed")
        return result

    async def _submit_large(
        self, request: KernelRequest, deadline: Optional[float]
    ) -> np.ndarray:
        # The execution runs as its own task registered in ``_inflight``,
        # so :meth:`drain` awaits in-flight large singles exactly like
        # dispatched windows (and a cancelled client connection doesn't
        # abandon the kernel mid-flight).
        task = asyncio.get_running_loop().create_task(
            self._execute_large(request, deadline)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)
        return await task

    async def _execute_large(
        self, request: KernelRequest, deadline: Optional[float]
    ) -> np.ndarray:
        # ``_queued`` was already incremented at admission time in
        # :meth:`submit`; this task only ever releases the slot.
        self.stats.bump("sharded_requests")
        try:
            if deadline is not None and time.monotonic() > deadline:
                self.stats.bump("expired_deadline")
                raise DeadlineError("deadline expired before dispatch")
            opts = dict(
                pattern=request.pattern,
                backend=request.backend,
                block_size=request.block_size,
                **dict(request.overrides),
            )
            if self.runtime.sharded_capacity > 0:
                # Local worker processes and/or registered remote hosts:
                # submit_sharded routes across whichever are live (and
                # itself falls back in-process if capacity vanished).
                result = await asyncio.wrap_future(
                    self.runtime.submit_sharded(request.A, request.X, request.Y, **opts)
                )
            else:
                loop = asyncio.get_running_loop()
                result = await loop.run_in_executor(
                    self._executor,
                    lambda: self.runtime.run(request.A, request.X, request.Y, **opts),
                )
        except BaseException:
            self.stats.bump("failed")
            raise
        finally:
            self._queued -= 1
        self.stats.bump("completed")
        return result

    # ------------------------------------------------------------------ #
    # Window dispatch
    # ------------------------------------------------------------------ #
    def _flush(self) -> None:
        """Close the open window and dispatch it (loop thread only)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None
        if not self._window:
            return
        window, self._window = self._window, []
        task = asyncio.get_running_loop().create_task(self._run_window(window))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_window(self, window: List[_Pending]) -> None:
        self._queued -= len(window)
        now = time.monotonic()
        live: List[_Pending] = []
        waits_ms: List[float] = []
        for p in window:
            if p.future.done():  # client cancelled while queued
                self.stats.bump("cancelled")
                continue
            if p.deadline is not None and now > p.deadline:
                self.stats.bump("expired_deadline")
                self.stats.bump("failed")
                p.future.set_exception(
                    DeadlineError("deadline expired before dispatch")
                )
                continue
            waits_ms.append((now - p.enqueued) * 1000.0)
            live.append(p)
        if not live:
            return
        self.stats.record_window(len(live), waits_ms)
        loop = asyncio.get_running_loop()
        requests = [p.request for p in live]
        try:
            results = await loop.run_in_executor(
                self._executor, self.runtime.run_batch, requests
            )
        except BaseException as exc:
            # One malformed batchmate must not hang the others: everyone
            # in the window learns the batch failed.
            for p in live:
                if not p.future.done():
                    self.stats.bump("failed")
                    p.future.set_exception(exc)
                else:  # client gone while the batch executed
                    self.stats.bump("cancelled")
            return
        for p, Z in zip(live, results):
            if not p.future.done():
                p.future.set_result(Z)
            else:  # client gone while the batch executed
                self.stats.bump("cancelled")

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queued(self) -> int:
        """Requests admitted but not yet dispatched."""
        return self._queued

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission, flush the open window, await in-flight work.

        Returns ``True`` when everything finished inside ``timeout``
        (``None`` = wait forever).  New :meth:`submit` calls fail with
        :class:`DrainingError` from the moment this is called.
        """
        self._draining = True
        self._flush()
        pending = set(self._inflight)
        if not pending:
            return True
        done, not_done = await asyncio.wait(pending, timeout=timeout)
        return not not_done

    def close(self) -> None:
        """Release the dispatch threads (call after :meth:`drain`)."""
        self.runtime.attach_stats_section("coalescer", None)
        self._executor.shutdown(wait=True)
