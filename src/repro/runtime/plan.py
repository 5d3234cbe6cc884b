"""Execution plans: the unit the batched kernel runtime caches.

A :class:`KernelPlan` is everything about a FusedMM call that does *not*
depend on the feature matrices:

* the resolved operator pattern (Table III row or user overrides),
* the backend kind and kernel callable, chosen by the one resolver
  (:func:`repro.core.fused.plan_kernel`, the same call :func:`fusedmm`
  and :class:`FusedMM` make), together with its edge-block size
  (autotuned once when requested),
* the nnz-balanced row partitioning of the bound adjacency,
* the **locality tier** (``reorder=``): a vertex permutation of the bound
  adjacency (:mod:`repro.sparse.reorder`) plus pre-compacted cache-blocked
  row panels.  The permutation and the panels are computed once at plan
  build and live on the plan (the plan cache is their only cache, and
  :meth:`KernelPlan.reordered_key` names the permutation the sharded tier
  ships); every execution permutes the operands, runs the panels against
  compact cache-resident operand slices, and maps the output back to the
  original vertex order — callers never see permuted data.

Plans are built once per ``(matrix fingerprint, pattern, backend,
num_threads, block_size, autotune, reorder)`` key and then
executed many times — every epoch of a training loop, every request of a
batch — via :meth:`KernelPlan.execute`, which accepts an explicit
partition list and a shared thread pool so the runtime controls
scheduling.

Reordered execution re-associates each row's neighbour accumulation (the
columns are re-sorted under the new numbering), so its results are
*allclose*-equivalent to the natural ordering rather than bitwise
identical; ``reorder="none"`` (the default) leaves every existing bitwise
guarantee untouched.
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
from ..core.optimized import DEFAULT_BLOCK_SIZE
from ..core.partition import RowPartition, split_parts
from ..core.patterns import OpPattern, ResolvedPattern, pattern_key
from ..sparse import CSRMatrix, as_csr
from ..sparse.reorder import (
    REORDER_STRATEGIES,
    PanelBlock,
    build_panels,
    cache_block_partitions,
    reorder_matrix,
    validate_reorder,
)
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
    #: vertex-reordering strategy of the locality tier ("none" = natural
    #: order, bitwise-exact legacy path)
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
    #: nnz-balanced partitions used when the runtime splits this job
    #: (cache-blocked panel boundaries when the plan is reordered); the
    #: runtime schedules one task per partition
    partitions: Sequence[RowPartition] = field(default_factory=list)
    tuning: Optional[TuningResult] = None
    #: the resolved kernel (:func:`repro.core.fused.resolve_backend`)
    kernel: Optional[Callable] = None
    #: resolved locality strategy ("none" keeps the legacy bitwise path)
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
    #: pre-compacted cache-blocked panels of ``reordered``
    panels: Sequence[PanelBlock] = field(default_factory=list, repr=False)
    #: measured reorder sweep (when ``reorder="auto"`` was requested)
    reorder_tuning: Optional[ReorderTuning] = None
    #: times this plan has been executed
    calls: int = 0
    _calls_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # ------------------------------------------------------------------ #
    @property
    def supports_parts(self) -> bool:
        """Whether the plan's kernel accepts an explicit partition list
        (everything except the pure-Python reference backend does)."""
        return self.kind != "generic"

    def retained_bytes(self) -> int:
        """Bytes this plan pins beyond bookkeeping.

        Natural-order plans hold no matrix data (the caller owns the
        adjacency), so they weigh nothing; reordered plans retain the
        permuted CSR copy, the permutation arrays and the compacted panel
        sub-CSRs.  The plan LRU uses this to bound its total footprint.
        """
        if self.reordered is None:
            return 0
        total = self.reordered.memory_bytes() + 2 * 8 * self.reordered.nrows
        for panel in self.panels:
            if panel.matrix is not None:
                # Count only the panel's fresh allocations: its localised
                # index and indptr arrays plus the distinct-column map.
                # The value array is a view into ``reordered.data`` —
                # already counted above.
                total += (
                    8 * panel.matrix.nnz
                    + 8 * (panel.matrix.nrows + 1)
                    + 8 * panel.cols.shape[0]
                )
        return total

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
    ) -> np.ndarray:
        """Run the planned kernel on (possibly new) operands.

        ``A`` is usually the matrix the plan was built for (or another
        instance with identical content); minibatch row slices and sampled
        negative matrices may also be passed — the resolution and dispatch
        decisions still apply, only the partitioning is recomputed by the
        kernel when ``parts`` is not given.  Reordered plans detect the
        bound matrix by fingerprint and route it through the locality
        tier; derived matrices always run on the direct (natural-order)
        path.

        ``out=``/``row_offset=`` pass straight through to the kernels'
        shared output surface: shard workers hand in a view of their row
        range of the shared output segment, so no worker ever allocates a
        full ``(nrows, d)`` result.  On the reordered path the permuted
        result is scattered back into the requested window, so callers see
        original vertex order either way.  ``parts``/``block_size``
        overrides only apply to the direct path: a reordered
        plan's blocking *is* its pre-compacted panels, so the overrides
        are ignored when the bound matrix routes through the locality
        tier (execute on a ``reorder="none"`` plan to A/B blocking
        parameters).
        """
        with self._calls_lock:
            self.calls += 1
        if (
            self.reorder != "none"
            and self.reordered is not None
            and self.matches_bound(A)
        ):
            return self._execute_reordered(
                X,
                Y,
                pool=pool,
                num_threads=num_threads,
                out=out,
                row_offset=row_offset,
            )
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
        )

    # ------------------------------------------------------------------ #
    def _execute_reordered(
        self,
        X,
        Y,
        *,
        pool: Optional[ThreadPoolExecutor] = None,
        num_threads: Optional[int] = None,
        out: Optional[np.ndarray] = None,
        row_offset: int = 0,
    ) -> np.ndarray:
        """The locality tier: permute operands once, run the pre-compacted
        cache-blocked panels, map the output back to original order.

        Each panel call gathers its distinct destination rows into a
        compact buffer sized for the panel budget, so the per-edge gathers
        hit cache instead of walking the full dense operand.  Panels write
        disjoint row ranges of the permuted output, so they fan out over
        the shared pool exactly like natural-order partitions.
        """
        Ap = self.reordered
        Xp, Yp = self.permute_operands(X, Y)
        ref = Xp if Xp is not None else Yp
        Zp = np.empty((Ap.nrows, ref.shape[1]), dtype=ref.dtype)

        def run_panel(panel: PanelBlock) -> None:
            zw = Zp[panel.start : panel.stop]
            if panel.matrix is None:
                # Compaction skipped (panel touches ~every column): run a
                # windowed call on the full permuted matrix instead.
                self._kernel_call(
                    Ap,
                    Xp,
                    Yp,
                    num_threads=1,
                    out=zw,
                    row_offset=panel.start,
                )
                return
            Xs = None if Xp is None else Xp[panel.start : panel.stop]
            Ys = (Yp if Yp is not None else Xp)[panel.cols]
            self._kernel_call(
                panel.matrix, Xs, Ys, num_threads=1, out=zw, row_offset=0
            )

        nt = self.num_threads if num_threads is None else num_threads
        if pool is not None and nt > 1 and len(self.panels) > 1:
            futures = [pool.submit(run_panel, p) for p in self.panels]
            for fut in futures:
                fut.result()
        else:
            for panel in self.panels:
                run_panel(panel)

        if out is None:
            return Zp[self.inv_perm]
        out[...] = Zp[self.inv_perm[row_offset : row_offset + out.shape[0]]]
        return out

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
    ) -> np.ndarray:
        """The resolved kernel with the plan's blocking (no reorder handling).

        Does not touch the ``calls`` counter — :meth:`execute` counts one
        per planned execution, while this method also runs once per panel
        on the reordered path and for build-time sweep trials.
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
        if self.reorder != "none":
            info["panels"] = len(self.panels)
            info["compacted_panels"] = sum(
                1 for p in self.panels if p.matrix is not None
            )
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
    _apply_reorder(plan, A, key, autotune_dim=autotune_dim)
    return plan


# ---------------------------------------------------------------------- #
# Locality tier (reorder=) plan construction
# ---------------------------------------------------------------------- #
def _reorder_eligible(plan: KernelPlan, A: CSRMatrix) -> bool:
    """The locality tier needs a square matrix with edges and a non-
    reference kernel (the generic backend keeps Algorithm-1 semantics)."""
    return A.nrows == A.ncols and A.nnz > 0 and plan.kind != "generic"


def _attach_reorder(
    plan: KernelPlan, A: CSRMatrix, strategy: str, *, autotune_dim: int
) -> None:
    """Bind the permuted matrix + compacted panels for ``strategy``.

    The plan's natural-order partitions set the least panel count, so a
    reordered plan splits at least as finely.
    """
    result = reorder_matrix(A, strategy)
    parts = cache_block_partitions(
        result.matrix, dim=autotune_dim, min_parts=len(plan.partitions)
    )
    digest = hashlib.blake2b(result.perm.tobytes(), digest_size=8).hexdigest()
    plan.reorder = strategy
    plan.reorder_tag = f"reorder={strategy}:{digest}"
    plan.perm = result.perm
    plan.inv_perm = result.inv_perm
    plan.reordered = result.matrix
    plan.panels = build_panels(result.matrix, parts)
    # One schedulable task per panel: the runtime's split path fans the
    # panels out over the shared pool whenever there is more than one.
    plan.partitions = parts


def _apply_reorder(
    plan: KernelPlan, A: CSRMatrix, key: PlanKey, *, autotune_dim: int
) -> None:
    """Resolve ``key.reorder`` on the freshly built plan.

    * ``"none"`` — nothing to do (the bitwise-exact legacy path).
    * explicit strategy — always applied (when the matrix is eligible).
    * ``"auto"`` — a measured sweep: every candidate (including
      ``"none"``) runs one complete planned call — operand permutation,
      compacted panel execution, inverse mapping — on synthetic features
      of the autotune dimension, and the fastest wins.  The winning
      trial's permutation and panels move into the plan (nothing is
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
        _attach_reorder(plan, A, strategy, autotune_dim=autotune_dim)
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
        _attach_reorder(trial, A, cand, autotune_dim=autotune_dim)
        trial_plans[cand] = trial
        candidates[cand] = lambda t=trial: t._execute_reordered(X, X)
    sweep = autotune_reorder(candidates)
    plan.reorder_tuning = sweep
    if sweep.strategy == "none":
        return
    # Transplant the just-measured trial instead of recomputing the
    # permutation and panels.
    winner = trial_plans[sweep.strategy]
    plan.reorder = winner.reorder
    plan.reorder_tag = winner.reorder_tag
    plan.perm = winner.perm
    plan.inv_perm = winner.inv_perm
    plan.reordered = winner.reordered
    plan.panels = winner.panels
    plan.partitions = winner.partitions
