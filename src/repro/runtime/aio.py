"""Asyncio bridge from coroutines to the runtime's pool/worker futures.

The :class:`~repro.runtime.runtime.KernelRuntime` is a synchronous,
thread-and-process engine: ``submit``/``submit_sharded`` hand back
:class:`concurrent.futures.Future` objects resolved by the shared thread
pool or the runtime's sharded dispatcher thread, and ``run_batch`` blocks
the calling thread for the duration of the batch.  The serving subsystem
(:mod:`repro.serve`) lives in an asyncio event loop, where blocking either
kind of call would stall every connection.  This module is the one place
the two worlds meet:

* :func:`wrap_runtime_future` — await a pool/worker future from a
  coroutine without blocking the loop;
* :func:`run_batch_async` — run :meth:`KernelRuntime.run_batch` on an
  executor thread and await the results;
* :func:`submit_sharded_async` — plan on the caller (so plan-cache
  accounting stays ordered, exactly like the sync API) and await the
  worker tier's future.

Nothing here changes scheduling: the same partitions, the same shard
assignment and the same kernels run whether a call arrives through the
sync API or through this bridge, so the bitwise-identity contract of the
runtime carries over to async callers unchanged.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor, Future
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["wrap_runtime_future", "run_batch_async", "submit_sharded_async"]


def wrap_runtime_future(
    future: "Future[np.ndarray]",
    *,
    loop: Optional[asyncio.AbstractEventLoop] = None,
) -> "asyncio.Future[np.ndarray]":
    """An awaitable view of a runtime ``concurrent.futures.Future``.

    Works for both flavours the runtime produces: futures backed by the
    shared thread pool (``submit``) and futures resolved by the runtime's
    sharded dispatcher thread (``submit_sharded``), including the
    already-completed futures the fallback paths return.
    """
    return asyncio.wrap_future(future, loop=loop)


async def run_batch_async(
    runtime,
    requests: Sequence,
    *,
    executor: Optional[Executor] = None,
) -> List[np.ndarray]:
    """Await :meth:`KernelRuntime.run_batch` without blocking the loop.

    The batch executes on ``executor`` (the loop's default thread pool when
    ``None``); results come back in request order with the same bitwise
    guarantees as the sync call.
    """
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(executor, runtime.run_batch, list(requests))


async def submit_sharded_async(runtime, A, X=None, Y=None, **plan_opts) -> np.ndarray:
    """Plan-and-await one sharded execution from a coroutine.

    Planning happens synchronously on the loop thread (it is a cache
    lookup after the first call); the kernel work itself runs on the
    worker processes — or, without a worker pool, on the loop's default
    executor so the fallback cannot stall the loop either.
    """
    if runtime.workers is not None:
        return await wrap_runtime_future(
            runtime.submit_sharded(A, X, Y, **plan_opts)
        )
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(
        None, lambda: runtime.run_sharded(A, X, Y, **plan_opts)
    )
