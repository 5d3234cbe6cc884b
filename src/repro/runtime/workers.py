"""Persistent multi-process worker pool for sharded kernel execution.

:class:`WorkerPool` owns N long-lived ``multiprocessing`` worker processes
and the shared-memory segments they read.  The design goals, in order:

* **Ship the matrix once.**  A CSR matrix is placed in
  :mod:`multiprocessing.shared_memory` segments (``indptr``, ``indices``,
  ``data``) the first time it is used and workers attach zero-copy; every
  subsequent call on the same matrix sends only segment names and row
  ranges — the adjacency is never re-pickled.
* **Plan once per worker.**  Workers cache their rebuilt dispatch configs
  keyed by (pattern, kernel kind, block size), so repeated calls
  skip pattern resolution and backend dispatch exactly as the parent's
  plan cache does.
* **Never hang, never fail a call for a lost worker.**  The parent polls
  worker liveness while waiting for replies.  A crashed worker (OOM kill,
  segfault, ``kill -9``) is respawned, and the assignments it held are
  *returned* to the caller unfinished — the same contract as
  :meth:`~repro.runtime.remote.RemoteController.run_assignments` — so the
  runtime finishes them in-parent and the call completes.  A kernel
  exception inside a live worker is deterministic and raises
  :class:`~repro.errors.WorkerError` without a restart.

Operands ``X``/``Y`` change per call and are passed through per-call
shared-memory segments as well (one bulk copy each, no pickling); every
worker writes its shard's rows *directly* into its row range of the shared
output segment through :func:`~repro.runtime.codec.execute_parts` — no
worker ever allocates a full ``(nrows, d)`` output.  (Kernels still
accumulate each row in float64 before the single cast into the segment,
so sharded results stay bitwise identical to the in-process path;
executing on a row-sliced matrix instead would shift the edge-block grid
and break that identity.)  The parent then copies the covered rows into
the caller's ``Z``.

Workers that can use the Numba JIT tier warm its kernel cache once at
spawn (:func:`repro.core.jit.warmup`), so the first real request never
pays compilation latency; with ``cache=True`` the machine code persists
on disk across worker generations.

The protocol is deliberately tiny — five message types over one duplex
pipe per worker::

    ("load", key, csr_meta)                    attach + cache a shared CSR
    ("drop", key)                              release a cached CSR
    ("run",  key, spec, x, y, z, parts)        execute assigned partitions
    ("ping",)                                  liveness round-trip
    ("exit",)                                  leave the loop

with replies ``("ok", payload)`` or ``("err", traceback_text)``.
"""

from __future__ import annotations

import multiprocessing
import threading
import traceback
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import WorkerCrashError, WorkerError
from ..sparse import CSRMatrix
from .codec import execute_parts, plan_spec_from_plan, scatter_rows
from .shard import ShardAssignment

__all__ = ["WorkerPool", "default_start_method", "plan_spec_from_plan"]

#: Seconds between liveness checks while waiting for a worker reply.
_POLL_INTERVAL = 0.05


def default_start_method() -> str:
    """``fork`` where available (cheap, inherits the imported package),
    ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# ---------------------------------------------------------------------- #
# Shared-memory plumbing
# ---------------------------------------------------------------------- #
def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without re-registering it for cleanup.

    The parent owns every segment's lifetime (it created and will unlink
    it).  Python 3.13 can opt out of tracking with ``track=False``; on
    older versions the attach-side registration lands in the same resource
    tracker the parent already registered the name with, which is a
    harmless duplicate — workers must *not* unregister it, or the parent's
    later unlink would race the tracker.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13 path (exercised in CI)
        return shared_memory.SharedMemory(name=name)


class _SharedArray:
    """Parent-side owner of one ndarray in a shared-memory segment."""

    def __init__(self, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(int(array.nbytes), 1)
        )
        self.meta = {
            "name": self.shm.name,
            "shape": tuple(array.shape),
            "dtype": array.dtype.str,
        }
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=self.shm.buf)
        view[...] = array

    @classmethod
    def empty(cls, shape: Tuple[int, ...], dtype) -> "_SharedArray":
        self = cls.__new__(cls)
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        self.shm = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
        self.meta = {"name": self.shm.name, "shape": tuple(shape), "dtype": dtype.str}
        return self

    def ndarray(self) -> np.ndarray:
        return np.ndarray(
            self.meta["shape"], dtype=np.dtype(self.meta["dtype"]), buffer=self.shm.buf
        )

    def destroy(self) -> None:
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def _array_meta_to_ndarray(meta, segments: List[shared_memory.SharedMemory]):
    """Worker-side view of a parent array; appends the segment for cleanup."""
    shm = _attach(meta["name"])
    segments.append(shm)
    return np.ndarray(meta["shape"], dtype=np.dtype(meta["dtype"]), buffer=shm.buf)


class _SharedCSR:
    """Parent-side owner of one CSR matrix in shared memory (three segments)."""

    def __init__(self, A: CSRMatrix) -> None:
        self._indptr = _SharedArray(A.indptr)
        self._indices = _SharedArray(A.indices)
        self._data = _SharedArray(A.data)
        self.meta = {
            "nrows": A.nrows,
            "ncols": A.ncols,
            "indptr": self._indptr.meta,
            "indices": self._indices.meta,
            "data": self._data.meta,
        }

    def destroy(self) -> None:
        for seg in (self._indptr, self._indices, self._data):
            seg.destroy()


# ---------------------------------------------------------------------- #
# Worker process
# ---------------------------------------------------------------------- #
def _worker_main(conn) -> None:  # pragma: no cover - runs in child processes
    """Worker loop: attach matrices, cache configs, execute shards."""
    # Warm the JIT kernel cache once at spawn (no-op without numba): the
    # first sharded request on a jit/auto plan then hits compiled code
    # immediately instead of paying compilation latency mid-call.
    try:
        from ..core.jit import warmup

        warmup()
    except Exception:
        pass
    matrices: Dict[str, Tuple[CSRMatrix, List[shared_memory.SharedMemory]]] = {}
    configs: Dict[tuple, object] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        try:
            cmd = msg[0]
            if cmd == "exit":
                conn.send(("ok", None))
                break
            elif cmd == "ping":
                conn.send(("ok", "pong"))
            elif cmd == "load":
                _, key, meta = msg
                if key not in matrices:
                    segments: List[shared_memory.SharedMemory] = []
                    indptr = _array_meta_to_ndarray(meta["indptr"], segments)
                    indices = _array_meta_to_ndarray(meta["indices"], segments)
                    data = _array_meta_to_ndarray(meta["data"], segments)
                    A = CSRMatrix(
                        meta["nrows"], meta["ncols"], indptr, indices, data, check=False
                    )
                    matrices[key] = (A, segments)
                conn.send(("ok", None))
            elif cmd == "drop":
                _, key = msg
                entry = matrices.pop(key, None)
                if entry is not None:
                    A, segments = entry
                    del A
                    for shm in segments:
                        try:
                            shm.close()
                        except BufferError:
                            pass
                conn.send(("ok", None))
            elif cmd == "run":
                _, key, spec, x_meta, y_meta, z_meta, raw_parts = msg
                A, _segs = matrices[key]
                ephemeral: List[shared_memory.SharedMemory] = []
                try:
                    X = (
                        None
                        if x_meta is None
                        else _array_meta_to_ndarray(x_meta, ephemeral)
                    )
                    if y_meta == "same_as_x":
                        Y = X
                    elif y_meta is None:
                        Y = None
                    else:
                        Y = _array_meta_to_ndarray(y_meta, ephemeral)
                    Z_out = _array_meta_to_ndarray(z_meta, ephemeral)
                    # Straight into this shard's rows of the shared output
                    # segment: no full-size allocation, no post-hoc copy.
                    execute_parts(spec, A, X, Y, raw_parts, Z_out, configs=configs)
                    del X, Y, Z_out
                finally:
                    for shm in ephemeral:
                        try:
                            shm.close()
                        except BufferError:
                            pass
                conn.send(("ok", None))
            else:
                conn.send(("err", f"unknown command {cmd!r}"))
        except Exception:
            try:
                conn.send(("err", traceback.format_exc()))
            except (BrokenPipeError, OSError):
                break


# ---------------------------------------------------------------------- #
# Parent-side pool
# ---------------------------------------------------------------------- #
class WorkerPool:
    """A fixed-size pool of persistent kernel worker processes.

    Parameters
    ----------
    processes:
        Number of worker processes (at least 1), started with
        :func:`default_start_method`.
    matrix_cache:
        Maximum number of matrices kept registered in shared memory at
        once (LRU-evicted beyond that), bounding ``/dev/shm`` usage in
        long-running serving loops over many distinct adjacencies.
    """

    def __init__(self, processes: int, *, matrix_cache: int = 16) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if matrix_cache < 1:
            raise ValueError(f"matrix_cache must be >= 1, got {matrix_cache}")
        self.processes = processes
        self.matrix_cache = matrix_cache
        self._ctx = multiprocessing.get_context(default_start_method())
        self._procs: List[Optional[multiprocessing.Process]] = [None] * processes
        self._conns: List[Optional[object]] = [None] * processes
        self._loaded: List[Set[str]] = [set() for _ in range(processes)]
        self._matrices: "OrderedDict[str, _SharedCSR]" = OrderedDict()
        self._lock = threading.RLock()
        self._closed = False
        self.restarts = 0
        # Start the shared-memory resource tracker *before* forking: workers
        # must inherit the parent's tracker, or each would lazily spawn its
        # own on first attach — and a worker-private tracker unlinks every
        # segment it saw (including still-registered matrices) as soon as
        # that worker exits.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - platform without the tracker
            pass
        for i in range(processes):
            self._spawn(i)

    # ------------------------------------------------------------------ #
    def _spawn(self, i: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-shard-{i}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs[i] = proc
        self._conns[i] = parent_conn
        self._loaded[i] = set()

    def _restart(self, i: int) -> None:
        proc, conn = self._procs[i], self._conns[i]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if proc is not None:
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
            proc.join(timeout=1.0)
        self.restarts += 1
        self._spawn(i)

    # ------------------------------------------------------------------ #
    def _send(self, i: int, msg: tuple) -> None:
        conn, proc = self._conns[i], self._procs[i]
        try:
            conn.send(msg)
        except (BrokenPipeError, OSError):
            raise WorkerCrashError(
                f"shard worker {i} (pid {getattr(proc, 'pid', '?')}) died "
                "before the request could be sent"
            )

    def _recv(self, i: int):
        """Wait for worker ``i``'s reply, polling liveness so a crashed
        worker raises instead of hanging."""
        conn, proc = self._conns[i], self._procs[i]
        while not conn.poll(_POLL_INTERVAL):
            if not proc.is_alive():
                raise WorkerCrashError(
                    f"shard worker {i} (pid {proc.pid}) crashed with exit code "
                    f"{proc.exitcode} while executing a request"
                )
        try:
            status, payload = conn.recv()
        except (EOFError, OSError):
            raise WorkerCrashError(
                f"shard worker {i} (pid {proc.pid}) closed its pipe mid-reply"
            )
        if status == "err":
            raise WorkerError(f"shard worker {i} failed:\n{payload}")
        return payload

    def _exchange(self, msgs: Dict[int, tuple]) -> List[int]:
        """Send each worker its message and collect every reply.

        Returns the workers that died on the way; they are already
        respawned.  A kernel exception in a live worker is re-raised (as
        :class:`~repro.errors.WorkerError`) only after every reply is in,
        so no pipe is left holding a stale reply.
        """
        sent: List[int] = []
        crashed: List[int] = []
        first_error: Optional[WorkerError] = None
        for i, msg in msgs.items():
            try:
                self._send(i, msg)
                sent.append(i)
            except WorkerCrashError:
                crashed.append(i)
        for i in sent:
            try:
                self._recv(i)
            except WorkerCrashError:
                crashed.append(i)
            except WorkerError as exc:
                first_error = first_error or exc
        for i in crashed:
            self._restart(i)
        if first_error is not None:
            raise first_error
        return crashed

    # ------------------------------------------------------------------ #
    # Matrix registry
    # ------------------------------------------------------------------ #
    def register_matrix(self, key: str, A: CSRMatrix) -> None:
        """Place ``A`` in shared memory under ``key`` (idempotent).

        The registry is a bounded LRU: registering beyond ``matrix_cache``
        evicts the least-recently-used matrix (workers drop it, segments
        are unlinked), so serving loops over many distinct adjacencies
        cannot exhaust ``/dev/shm``.
        """
        with self._lock:
            self._check_open()
            if key in self._matrices:
                self._matrices.move_to_end(key)
                return
            self._matrices[key] = _SharedCSR(A)
            while len(self._matrices) > self.matrix_cache:
                oldest = next(iter(self._matrices))
                self.release_matrix(oldest)

    def release_matrix(self, key: str) -> None:
        """Drop ``key`` from every worker and unlink its segments."""
        with self._lock:
            shared = self._matrices.pop(key, None)
            if shared is None:
                return
            holders = [i for i in range(self.processes) if key in self._loaded[i]]
            for i in holders:
                self._loaded[i].discard(key)
            try:
                self._exchange(dict.fromkeys(holders, ("drop", key)))
            finally:
                shared.destroy()

    def _ensure_loaded(self, workers: Sequence[int], key: str) -> List[int]:
        """Attach ``key`` on ``workers``; returns the ones that died (and
        were respawned) on the way."""
        shared = self._matrices[key]
        missing = [i for i in workers if key not in self._loaded[i]]
        crashed = self._exchange(dict.fromkeys(missing, ("load", key, shared.meta)))
        for i in missing:
            if i not in crashed:
                self._loaded[i].add(key)
        return crashed

    def release_fingerprint(self, fingerprint: str) -> int:
        """Drop every registered matrix whose key belongs to
        ``fingerprint``'s lineage (the key itself, ``<fp>|...`` derived
        keys, ``<fp>@vN`` versioned keys); returns the number released.

        The dynamic-graph tier calls this when a version is superseded or
        a graph dropped, so dead CSRs stop pinning ``/dev/shm``.
        """
        from .fingerprint import fingerprint_covers

        with self._lock:
            doomed = [
                key
                for key in self._matrices
                if fingerprint_covers(fingerprint, key)
            ]
            for key in doomed:
                self.release_matrix(key)
            return len(doomed)

    @property
    def registered_matrices(self) -> int:
        """Number of matrices currently held in shared memory."""
        with self._lock:
            return len(self._matrices)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run_assignments(
        self,
        key: str,
        A: CSRMatrix,
        spec: Dict[str, object],
        assignments: Sequence[ShardAssignment],
        X: Optional[np.ndarray],
        Y: Optional[np.ndarray],
        Z: np.ndarray,
    ) -> List[ShardAssignment]:
        """Execute ``assignments`` on the workers, writing into ``Z``.

        Assignment ``i`` runs on worker ``i``, so there may be at most
        ``processes`` of them.  Only the row ranges the completed
        assignments cover are written into ``Z``.  Returns the
        assignments whose worker died mid-call (that worker is respawned);
        the caller finishes those in-parent — the contract of
        :meth:`~repro.runtime.remote.RemoteController.run_assignments`.
        A kernel exception in a live worker raises
        :class:`~repro.errors.WorkerError` without a restart.
        """
        if len(assignments) > self.processes:
            raise WorkerError(
                f"{len(assignments)} shard assignments but the pool has only "
                f"{self.processes} workers"
            )
        busy = [i for i, a in enumerate(assignments) if a.parts]
        if not busy:
            return []
        with self._lock:
            self._check_open()
            self.register_matrix(key, A)
            lost = set(self._ensure_loaded(busy, key))
            spans = {
                i: [(p.start, p.stop, p.nnz) for p in assignments[i].parts]
                for i in busy
                if i not in lost
            }
            ephemeral: List[_SharedArray] = []
            try:
                x_meta = None
                if X is not None:
                    ephemeral.append(_SharedArray(X))
                    x_meta = ephemeral[-1].meta
                if Y is None:
                    y_meta = None
                elif Y is X:
                    y_meta = "same_as_x"
                else:
                    ephemeral.append(_SharedArray(Y))
                    y_meta = ephemeral[-1].meta
                shared_z = _SharedArray.empty(Z.shape, Z.dtype)
                ephemeral.append(shared_z)
                lost.update(
                    self._exchange(
                        {
                            i: ("run", key, spec, x_meta, y_meta, shared_z.meta, raw)
                            for i, raw in spans.items()
                        }
                    )
                )
                window = shared_z.ndarray()
                for i, raw in spans.items():
                    if i not in lost:
                        scatter_rows(Z, window, 0, raw)
                del window
            finally:
                for seg in ephemeral:
                    seg.destroy()
            return [assignments[i] for i in busy if i in lost]

    def ping(self) -> int:
        """Round-trip every worker; returns the number that answered."""
        with self._lock:
            self._check_open()
            crashed = self._exchange(dict.fromkeys(range(self.processes), ("ping",)))
            return self.processes - len(crashed)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def _check_open(self) -> None:
        if self._closed:
            raise WorkerError("worker pool is closed")

    def stats(self) -> Dict[str, object]:
        """Pool accounting for logs and tests."""
        with self._lock:
            return {
                "processes": self.processes,
                "alive": sum(
                    1 for p in self._procs if p is not None and p.is_alive()
                ),
                "restarts": self.restarts,
                "registered_matrices": len(self._matrices),
            }

    def kill_worker(self, i: int) -> None:
        """Hard-kill worker ``i`` (crash-handling tests only)."""
        proc = self._procs[i]
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=5.0)

    def close(self) -> None:
        """Shut down workers and unlink every shared segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for i, (proc, conn) in enumerate(zip(self._procs, self._conns)):
                if conn is None or proc is None:
                    continue
                try:
                    if proc.is_alive():
                        conn.send(("exit",))
                        if conn.poll(1.0):
                            conn.recv()
                except (BrokenPipeError, OSError):
                    pass
                try:
                    conn.close()
                except OSError:
                    pass
                proc.join(timeout=1.0)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=1.0)
                self._procs[i] = None
                self._conns[i] = None
            for shared in self._matrices.values():
                shared.destroy()
            self._matrices.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkerPool(processes={self.processes}, "
            f"matrices={len(self._matrices)}, restarts={self.restarts})"
        )
