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
  execution (:meth:`KernelPlan.bound_schedule`),
* the **locality tier** (``reorder=``): a vertex permutation of the bound
  adjacency (:mod:`repro.sparse.reorder`) and the permuted matrix.  Both
  are computed once at plan build and live on the plan (the plan cache is
  their only cache: plans of one matrix under one strategy share them,
  and :meth:`KernelPlan.reordered_key` names the permutation the sharded
  tier ships); every execution permutes the operands, runs the permuted
  matrix through the same edge-block driver, partitions and kept schedule
  as a natural-order plan, and maps the output back to the original
  vertex order — callers never see permuted data.

Plans are built once per ``(matrix fingerprint, pattern, backend,
num_threads, block_size, autotune, reorder)`` key and then
executed many times — every epoch of a training loop, every request of a
batch — via :meth:`KernelPlan.execute`, which accepts an explicit
partition list and a shared thread pool so the runtime controls
scheduling.

Reordered execution is bitwise identical across thread counts, shard
counts and the in-process/sharded split: every path runs the same
partitions of the same permuted matrix.  On the ``generated`` edge-block
driver it is also bitwise identical to the natural ordering of that
kind (a permuted row keeps its source edge order, and the driver's row
sum does not depend on where the row sits); other kinds are allclose.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.autotune import ReorderTuning, TuningResult, autotune_reorder
from ..core.fused import plan_kernel, resolve_backend
from ..core.optimized import DEFAULT_BLOCK_SIZE, EdgeSchedule, edge_schedule
from ..core.partition import RowPartition, split_parts
from ..core.patterns import OpPattern, ResolvedPattern, pattern_key
from ..sparse import CSRMatrix, as_csr
from ..sparse.reorder import REORDER_STRATEGIES, reorder_matrix, validate_reorder
from .fingerprint import derived_fingerprint, matrix_fingerprint

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
    #: vertex-reordering strategy of the locality tier ("none" = natural order)
    reorder: str = "none"


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
    #: nnz-balanced partitions used when the runtime splits this job (of
    #: ``reordered`` when the plan is reordered); the runtime schedules one
    #: task per partition
    partitions: Sequence[RowPartition] = field(default_factory=list)
    tuning: Optional[TuningResult] = None
    #: the resolved kernel (:func:`repro.core.fused.resolve_backend`)
    kernel: Optional[Callable] = None
    #: resolved locality strategy ("none" = natural order)
    reorder: str = "none"
    #: ``reorder=<strategy>:<perm digest>`` — names the permutation that
    #: built ``reordered``, so its ship key (:meth:`reordered_key`) names
    #: the permuted content, not only the strategy
    reorder_tag: Optional[str] = None
    #: ``perm[new] = old`` / ``inv_perm[old] = new`` vertex permutation
    perm: Optional[np.ndarray] = field(default=None, repr=False)
    inv_perm: Optional[np.ndarray] = field(default=None, repr=False)
    #: the symmetrically permuted adjacency the reordered path executes
    reordered: Optional[CSRMatrix] = field(default=None, repr=False)
    #: measured reorder sweep (when ``reorder="auto"`` was requested)
    reorder_tuning: Optional[ReorderTuning] = None
    #: times this plan has been executed
    calls: int = 0
    _calls_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: the kept edge-block schedule of the executed matrix (``reordered``
    #: or the bound one), built on the first execution of the bound
    #: matrix (:meth:`bound_schedule`); ``init=False``, so
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

    def retained(self) -> Dict[int, int]:
        """Bytes this plan pins beyond bookkeeping, by owner (the ``id`` of
        the permuted matrix, which reordered plans of one matrix and
        strategy share, and of the block schedule).

        The caller owns the bound adjacency, so an unexecuted natural-order
        plan weighs nothing.  A reordered plan retains the permuted CSR
        copy and the permutation arrays; a plan that has run on its bound
        matrix retains its edge-block schedule.  The plan LRU uses this to
        bound its total footprint.
        """
        owners: Dict[int, int] = {}
        Ap = self.reordered
        if Ap is not None:
            owners[id(Ap)] = Ap.memory_bytes() + 2 * 8 * Ap.nrows
        schedule = self.schedule
        if schedule is not None:
            owners[id(schedule)] = schedule.nbytes
        return owners

    def retained_bytes(self) -> int:
        """Total of :meth:`retained`."""
        return sum(self.retained().values())

    def reordered_key(self) -> str:
        """Ship key of ``reordered``: the plan's fingerprint derived by
        :attr:`reorder_tag`, so equal keys mean equal permuted content."""
        return derived_fingerprint(self.key.fingerprint, self.reorder_tag)

    # ------------------------------------------------------------------ #
    def matches_bound(self, A) -> bool:
        """Whether ``A`` has the exact content this plan was built for.

        Cheap shape/nnz pre-check, then the (per-instance memoised)
        content fingerprint — so the common same-object-every-epoch case
        costs a dict lookup.  Derived matrices (minibatch slices, sampled
        negatives) fail here and execute on the direct path.
        """
        if not self.key.fingerprint:
            return False
        A = as_csr(A)
        if A.shape != self.shape or A.nnz != self.nnz:
            return False
        return matrix_fingerprint(A) == self.key.fingerprint

    def permute_operands(self, X, Y):
        """``(X[perm], Y[perm])`` with ``Y is X`` aliasing preserved."""
        perm = self.perm
        Xp = None if X is None else np.ascontiguousarray(X[perm])
        if Y is None:
            Yp = None
        elif Y is X:
            Yp = Xp
        else:
            Yp = np.ascontiguousarray(Y[perm])
        return Xp, Yp

    def bound_schedule(self, A) -> Optional[EdgeSchedule]:
        """The kept edge-block schedule over :attr:`partitions` of the
        matrix a bound-matrix execution runs — ``reordered`` for a
        reordered plan, else the bound matrix ``A`` — built on the first
        call (``None`` for a plan whose execution is not the edge-block
        driver, or whose pattern is SpMM-shaped and so runs without
        blocks).

        ``A`` must hold the content this plan was built for; the runtime
        asks only on a bound-matrix execution.  Concurrent first calls
        build it once.
        """
        if self.kind != "generated" or self.resolved.is_spmm_like:
            return None
        with self._schedule_lock:
            if self.schedule is None:
                self.schedule = edge_schedule(
                    A if self.reordered is None else self.reordered,
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
        kernel when ``parts`` is not given.  Reordered plans detect the
        bound matrix by fingerprint and execute ``reordered`` instead, over
        :attr:`partitions` unless ``parts`` names row ranges of it:
        operands are permuted on the way in and the result is mapped back
        to original vertex order.  Derived matrices always run on the
        direct (natural-order) path.

        ``out=``/``row_offset=`` pass straight through to the kernels'
        shared output surface: shard workers hand in a view of their row
        range of the shared output segment, so no worker ever allocates a
        full ``(nrows, d)`` result.  On the reordered path the permuted
        result is gathered back into the requested window, so callers see
        original vertex order either way.  ``parts``/``block_size``
        override the plan's blocking on either path; ``schedule``
        (:meth:`bound_schedule`) replaces them.
        """
        with self._calls_lock:
            self.calls += 1
        if (
            self.reorder != "none"
            and self.reordered is not None
            and self.matches_bound(A)
        ):
            Xp, Yp = self.permute_operands(X, Y)
            Zp = self._kernel_call(
                self.reordered,
                Xp,
                Yp,
                parts=self.partitions if parts is None else parts,
                pool=pool,
                num_threads=num_threads,
                block_size=block_size,
                schedule=schedule,
            )
            if out is None:
                return Zp[self.inv_perm]
            out[...] = Zp[self.inv_perm[row_offset : row_offset + out.shape[0]]]
            return out
        return self._kernel_call(
            A,
            X,
            Y,
            parts=parts,
            pool=pool,
            num_threads=num_threads,
            block_size=block_size,
            out=out,
            row_offset=row_offset,
            schedule=schedule,
        )

    # ------------------------------------------------------------------ #
    def _kernel_call(
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
        """The resolved kernel with the plan's blocking (no reorder handling).

        Does not touch the ``calls`` counter — :meth:`execute` counts one
        per planned execution, while this method also runs the build-time
        sweep's natural-order trial.
        """
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
            "reorder": self.reorder,
        }
        if self.reorder_tuning is not None:
            info["reorder_tuning"] = self.reorder_tuning.as_dict()
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
    siblings: Sequence[KernelPlan] = (),
) -> KernelPlan:
    """Construct (and, when requested, autotune) a plan for ``A``.

    ``split_nnz`` is the runtime's nnz-aware split threshold
    (:func:`~repro.core.partition.split_parts`): the number of partitions
    depends only on the matrix, never on how many worker threads happen to
    be available, so results are bitwise identical across thread counts.
    ``siblings`` are the cached plans of ``A``'s fingerprint, whose
    reorderings a reordered plan shares (:func:`_attach_reorder`).
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

    plan = KernelPlan(
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
    _apply_reorder(
        plan,
        A,
        key,
        split_nnz=split_nnz,
        autotune_dim=autotune_dim,
        siblings=siblings,
    )
    return plan


# ---------------------------------------------------------------------- #
# Locality tier (reorder=) plan construction
# ---------------------------------------------------------------------- #
def _reorder_eligible(plan: KernelPlan, A: CSRMatrix) -> bool:
    """The locality tier needs a square matrix with edges and a non-
    reference kernel (the generic backend keeps Algorithm-1 semantics)."""
    return A.nrows == A.ncols and A.nnz > 0 and plan.kind != "generic"


def _adopt_reordering(plan: KernelPlan, source: KernelPlan) -> None:
    """Point ``plan`` at ``source``'s permutation and permuted matrix
    (shared, not copied) and its partitions of that matrix."""
    plan.reorder = source.reorder
    plan.reorder_tag = source.reorder_tag
    plan.perm = source.perm
    plan.inv_perm = source.inv_perm
    plan.reordered = source.reordered
    plan.partitions = source.partitions


def _attach_reorder(
    plan: KernelPlan,
    A: CSRMatrix,
    strategy: str,
    *,
    split_nnz: int,
    siblings: Sequence[KernelPlan] = (),
) -> None:
    """Bind the permuted matrix for ``strategy`` and split it like any
    other bound matrix (:func:`~repro.core.partition.split_parts`).

    ``siblings`` are cached plans of the same fingerprint in the same
    runtime.  A strategy is a deterministic function of the matrix, so a
    sibling reordered by the same strategy holds exactly the permutation,
    tag and partitions this would compute, and the plan shares them
    instead of computing a second copy.
    """
    for sibling in siblings:
        if sibling.reorder == strategy and sibling.reordered is not None:
            _adopt_reordering(plan, sibling)
            return
    result = reorder_matrix(A, strategy)
    digest = hashlib.blake2b(result.perm.tobytes(), digest_size=8).hexdigest()
    plan.reorder = strategy
    plan.reorder_tag = f"reorder={strategy}:{digest}"
    plan.perm = result.perm
    plan.inv_perm = result.inv_perm
    plan.reordered = result.matrix
    plan.partitions = split_parts(result.matrix, split_nnz)


def _apply_reorder(
    plan: KernelPlan,
    A: CSRMatrix,
    key: PlanKey,
    *,
    split_nnz: int,
    autotune_dim: int,
    siblings: Sequence[KernelPlan] = (),
) -> None:
    """Resolve ``key.reorder`` on the freshly built plan.

    * ``"none"`` — nothing to do (the natural order).
    * explicit strategy — always applied (when the matrix is eligible).
    * ``"auto"`` — a measured sweep: every candidate (including
      ``"none"``) runs one complete planned call — operand permutation,
      the edge-block driver on the permuted matrix, inverse mapping — on
      synthetic features of the autotune dimension, and the fastest wins.
      The winning trial's permutation moves into the plan (nothing is
      recomputed); the verdict stays on the plan (``reorder_tuning``), so
      a cached plan never re-measures and the losers are
      garbage-collected.

    Ineligible matrices (rectangular, empty, or the generic reference
    backend) silently fall back to ``"none"`` — the knob is a performance
    hint, not a semantic switch.
    """
    strategy = key.reorder
    if strategy == "none":
        return
    validate_reorder(strategy)
    if not _reorder_eligible(plan, A):
        return
    if strategy != "auto":
        _attach_reorder(plan, A, strategy, split_nnz=split_nnz, siblings=siblings)
        return

    # Measured selection.  Candidates share the synthetic operands; every
    # runner performs the full per-epoch work of its strategy.  Trial
    # construction happens here — outside the timed runners, so repeats=1
    # timings measure execution only.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((A.nrows, autotune_dim)).astype(np.float32)
    candidates: Dict[str, Callable[[], object]] = {
        "none": lambda: plan._kernel_call(A, X, X, num_threads=1)
    }
    trial_plans: Dict[str, KernelPlan] = {}
    for cand in REORDER_STRATEGIES:
        if cand == "none":
            continue
        # replace() copies every field (so future dispatch-relevant
        # fields cannot be silently dropped from the trial config).
        trial = replace(plan)
        _attach_reorder(trial, A, cand, split_nnz=split_nnz, siblings=siblings)
        trial_plans[cand] = trial
        candidates[cand] = lambda t=trial: t.execute(A, X, X, num_threads=1)
    sweep = autotune_reorder(candidates)
    plan.reorder_tuning = sweep
    if sweep.strategy == "none":
        return
    # Transplant the just-measured trial instead of recomputing the
    # permutation.
    _adopt_reordering(plan, trial_plans[sweep.strategy])
