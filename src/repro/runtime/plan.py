"""Execution plans: the unit the batched kernel runtime caches.

A :class:`KernelPlan` is everything about a FusedMM call that does *not*
depend on the feature matrices:

* the resolved operator pattern (Table III row or user overrides),
* the backend kind and kernel callable, chosen by the one resolver
  (:func:`repro.core.fused.plan_kernel`, the same call :func:`fusedmm`
  and :class:`FusedMM` make), together with its edge-block size
  (autotuned once when requested),
* the nnz-balanced row partitioning of the matrix it executes, and for a
  ``generated`` plan (unless its pattern is SpMM-shaped, which runs
  without blocks) that matrix's edge-block schedule
  (:func:`~repro.core.optimized.edge_schedule`), built on its first
  execution (:meth:`KernelPlan.bound_schedule`).

Plans are built once per ``(matrix fingerprint, pattern, backend,
num_threads, block_size, autotune)`` key and then
executed many times — every epoch of a training loop, every request of a
batch — via :meth:`KernelPlan.execute`, which accepts an explicit
partition list and a shared thread pool so the runtime controls
scheduling.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.autotune import TuningResult
from ..core.fused import plan_kernel, resolve_backend
from ..core.optimized import DEFAULT_BLOCK_SIZE, EdgeSchedule, edge_schedule
from ..core.partition import RowPartition, split_parts
from ..core.patterns import OpPattern, ResolvedPattern, pattern_key
from ..sparse import CSRMatrix

__all__ = [
    "KernelPlan",
    "PlanKey",
    "build_plan",
    "make_config",
]


@dataclass(frozen=True)
class PlanKey:
    """Full cache key of an execution plan."""

    fingerprint: str
    #: :func:`~repro.core.patterns.pattern_key` of the resolved pattern
    pattern: Tuple[Tuple[str, object], ...]
    backend: str
    num_threads: int
    block_size: int  # 0 = backend default / autotuned
    autotune: bool


@dataclass
class KernelPlan:
    """A reusable, matrix-bound FusedMM execution plan."""

    key: PlanKey
    op_pattern: OpPattern
    resolved: ResolvedPattern
    #: "jit" | "generated" | "generic"
    kind: str
    #: requested backend (one of :data:`repro.core.fused.BACKENDS`)
    backend: str
    block_size: int
    num_threads: int
    nnz: int
    shape: Tuple[int, int]
    #: nnz-balanced partitions used when the runtime splits this job; the
    #: runtime schedules one task per partition
    partitions: Sequence[RowPartition] = field(default_factory=list)
    tuning: Optional[TuningResult] = None
    #: the resolved kernel (:func:`repro.core.fused.resolve_backend`)
    kernel: Optional[Callable] = None
    #: times this plan has been executed
    calls: int = 0
    _calls_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: the kept edge-block schedule of the bound matrix, built on its
    #: first execution (:meth:`bound_schedule`); ``init=False``, so
    #: ``dataclasses.replace`` never carries it to another matrix
    schedule: Optional[EdgeSchedule] = field(default=None, init=False, repr=False)
    _schedule_lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False
    )

    # ------------------------------------------------------------------ #
    @property
    def supports_parts(self) -> bool:
        """Whether the plan's kernel accepts an explicit partition list
        (everything except the pure-Python reference backend does)."""
        return self.kind != "generic"

    def retained_bytes(self) -> int:
        """Bytes this plan pins beyond bookkeeping: its edge-block schedule
        once it has run on its bound matrix.

        The caller owns the bound adjacency, so an unexecuted plan weighs
        nothing.  The plan LRU uses this to bound its total footprint.
        """
        return 0 if self.schedule is None else self.schedule.nbytes

    # ------------------------------------------------------------------ #
    def bound_schedule(self, A) -> Optional[EdgeSchedule]:
        """The kept edge-block schedule over :attr:`partitions` of the
        bound matrix ``A``, built on the first call (``None`` for a plan
        whose execution is not the edge-block driver, or whose pattern is
        SpMM-shaped and so runs without blocks).

        ``A`` must hold the content this plan was built for; the runtime
        asks only on a bound-matrix execution.  Concurrent first calls
        build it once.
        """
        if self.kind != "generated" or self.resolved.is_spmm_like:
            return None
        with self._schedule_lock:
            if self.schedule is None:
                self.schedule = edge_schedule(
                    A,
                    self.partitions,
                    block_size=self.block_size,
                    aop=self.resolved.aop,
                )
            return self.schedule

    def execute(
        self,
        A,
        X,
        Y=None,
        *,
        parts: Optional[Sequence[RowPartition]] = None,
        pool: Optional[ThreadPoolExecutor] = None,
        num_threads: Optional[int] = None,
        block_size: Optional[int] = None,
        out: Optional[np.ndarray] = None,
        row_offset: int = 0,
        schedule: Optional[EdgeSchedule] = None,
    ) -> np.ndarray:
        """Run the planned kernel on (possibly new) operands.

        ``A`` is usually the matrix the plan was built for (or another
        instance with identical content); minibatch row slices and sampled
        negative matrices may also be passed — the resolution and dispatch
        decisions still apply, only the partitioning is recomputed by the
        kernel when ``parts`` is not given.

        ``out=``/``row_offset=`` pass straight through to the kernels'
        shared output surface: shard workers hand in a view of their row
        range of the shared output segment, so no worker ever allocates a
        full ``(nrows, d)`` result.  ``parts``/``block_size`` override the
        plan's blocking; ``schedule`` (:meth:`bound_schedule`) replaces
        them.
        """
        with self._calls_lock:
            self.calls += 1
        return self.kernel(
            A,
            X,
            Y,
            block_size=self.block_size if block_size is None else block_size,
            num_threads=self.num_threads if num_threads is None else num_threads,
            parts=parts,
            pool=pool,
            out=out,
            row_offset=row_offset,
            schedule=schedule,
        )

    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """Human-readable plan summary (for logs, reports and tests)."""
        info = {
            "pattern": self.resolved.name,
            "ops": self.resolved.op_names(),
            "backend": self.backend,
            "kind": self.kind,
            "block_size": self.block_size,
            "num_threads": self.num_threads,
            "partitions": len(self.partitions),
            "nnz": self.nnz,
            "shape": self.shape,
            "calls": self.calls,
            "fingerprint": self.key.fingerprint,
        }
        if self.tuning is not None:
            info["tuning"] = self.tuning.as_dict()
        return info


# ---------------------------------------------------------------------- #
def make_config(
    op_pattern: OpPattern,
    resolved: ResolvedPattern,
    *,
    backend: str = "auto",
    block_size: Optional[int] = None,
    num_threads: int = 1,
) -> KernelPlan:
    """A matrix-independent dispatch config (a plan without a matrix).

    Used by :meth:`KernelRuntime.run_batch` for small one-shot requests:
    resolution and backend dispatch are still amortised (the config is
    cached per pattern/backend/blocking tuple), but no fingerprint is
    computed and the plan LRU is not churned by throwaway matrices.
    """
    kind, kernel = resolve_backend(op_pattern, backend)
    key = PlanKey(
        fingerprint="",
        pattern=pattern_key(resolved),
        backend=backend,
        num_threads=num_threads,
        block_size=block_size or 0,
        autotune=False,
    )
    return KernelPlan(
        key=key,
        op_pattern=op_pattern,
        resolved=resolved,
        kind=kind,
        backend=backend,
        block_size=block_size or DEFAULT_BLOCK_SIZE,
        num_threads=num_threads,
        nnz=0,
        shape=(0, 0),
        partitions=[],
        kernel=kernel,
    )


def build_plan(
    A: CSRMatrix,
    key: PlanKey,
    op_pattern: OpPattern,
    resolved: ResolvedPattern,
    *,
    split_nnz: int,
    autotune_dim: int = 128,
) -> KernelPlan:
    """Construct (and, when requested, autotune) a plan for ``A``.

    ``split_nnz`` is the runtime's nnz-aware split threshold
    (:func:`~repro.core.partition.split_parts`): the number of partitions
    depends only on the matrix, never on how many worker threads happen to
    be available, so results are bitwise identical across thread counts.
    """
    choice = plan_kernel(
        A,
        op_pattern,
        key.backend,
        block_size=key.block_size,
        num_threads=key.num_threads,
        autotune=key.autotune,
        autotune_dim=autotune_dim,
    )
    return KernelPlan(
        key=key,
        op_pattern=op_pattern,
        resolved=resolved,
        kind=choice.kind,
        backend=key.backend,
        block_size=choice.block_size,
        num_threads=key.num_threads,
        nnz=A.nnz,
        shape=A.shape,
        partitions=split_parts(A, split_nnz),
        tuning=choice.tuning,
        kernel=choice.kernel,
    )
