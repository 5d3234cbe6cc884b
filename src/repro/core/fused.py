"""Public FusedMM entry points and the one backend resolver.

The paper's FusedMM takes the five operators of a pattern and picks a
kernel for them: a pattern-specific kernel emitted by the code generator
(Section IV.B), for any pattern, user operators included, or the general
one.  That choice is made once, by :func:`resolve_backend`:

* :func:`fusedmm` — one-shot ``Z = fusedmm(A, X, Y, pattern=...)``
  (Fig. 2): resolve, then call.
* :class:`FusedMM` and the runtime's cached plans
  (:mod:`repro.runtime.plan`) — planned once per adjacency matrix by
  :func:`plan_kernel` (resolution, optional autotuning, blocking), then
  called every epoch with new feature matrices.

Backends
--------
``"generic"``      the faithful Algorithm 1 reference (paper's "FusedMM")
``"generated"``    edge-blocked kernels emitted by the code generator
                   (Section IV.B; the paper's "FusedMMopt")
``"jit"``          Numba-compiled row-fused kernels (:mod:`repro.core.jit`);
                   runs interpreted when the optional numba extra is absent
``"auto"``         jit (only when numba is importable and the pattern is
                   standard) → generated → generic; a generated call that
                   runs user code and raises falls back to generic

Every resolved kernel is called as ``kernel(A, X, Y, *, block_size,
num_threads, parts, pool, out, row_offset, schedule)``; knobs a kind has
no use for are ignored (``schedule``, a kept
:func:`~repro.core.optimized.edge_schedule`, reaches only the
``generated`` kind).  ``X=None`` is accepted for patterns whose VOP
never reads it (``NOOP``/``SEL2ND``, e.g. gcn and spmm).
``out=``/``row_offset=`` is a preallocated slab: row ``u`` of the result
lands in ``out[u - row_offset]`` (a shard's rows write straight into
their window of the output this way).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from ..errors import BackendError, CodegenError
from ..sparse import CSRMatrix, as_csr
from . import jit as jit_backend
from .autotune import TuningResult
from .autotune import autotune as autotune_sweep
from .codegen import compile_kernel
from .generic import fusedmm_generic
from .operators import is_builtin
from .optimized import DEFAULT_BLOCK_SIZE
from .partition import part1d
from .patterns import OpPattern, ResolvedPattern, get_pattern
from .validation import ensure_float_matrix

__all__ = [
    "fusedmm",
    "FusedMM",
    "BACKENDS",
    "resolve_backend",
    "plan_kernel",
    "KernelChoice",
]

BACKENDS = ("auto", "jit", "generic", "generated")


# ---------------------------------------------------------------------- #
# The resolver
# ---------------------------------------------------------------------- #
def _check_sourceless(resolved: ResolvedPattern) -> None:
    """Only the VOP reads ``X``: a call without it is valid exactly when
    the VOP is ``NOOP`` or ``SEL2ND``, which ignore it."""
    if not (is_builtin(resolved.vop) and resolved.vop.name in ("NOOP", "SEL2ND")):
        raise BackendError(f"pattern {resolved.name!r} needs source features X")


def _zero_sources(A, Y, resolved: ResolvedPattern) -> np.ndarray:
    """Source features for a call made without ``X``, for the kinds whose
    kernels take an ``X``: zeros of ``Y``'s dtype give bitwise the result
    of passing any ``X`` of that dtype.  The ``generated`` kind takes
    ``X=None`` itself and is never handed these."""
    _check_sourceless(resolved)
    Y = ensure_float_matrix(Y, "Y")
    return np.zeros((as_csr(A).nrows, Y.shape[1]), dtype=Y.dtype)


def resolve_backend(
    pattern: OpPattern | str,
    backend: str = "auto",
    *,
    jit: Optional[bool] = None,
) -> Tuple[str, Callable]:
    """Pick the kernel for ``pattern`` on ``backend``; returns ``(kind, kernel)``.

    ``kind`` is one of ``"jit"``, ``"generated"`` or ``"generic"``;
    ``kernel`` has the calling convention of the module
    docstring with the pattern bound.  ``jit`` says whether ``auto`` takes
    the jit tier: ``None`` takes it when numba is importable, and a plan
    that ran the autotune sweep passes whether the sweep measured it
    fastest.  An explicit backend that cannot run the pattern raises
    :class:`~repro.errors.BackendError`.
    """
    if backend not in BACKENDS:
        raise BackendError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    op_pattern = get_pattern(pattern)
    resolved = op_pattern.resolved()
    # ``auto`` prefers the jit tier when numba is importable (and the sweep,
    # if one ran, measured it fastest); an explicit backend="jit" also runs
    # interpreted (slow but exact) so the compiled semantics stay testable.
    jit_wins = jit_backend.jit_available() if jit is None else jit
    pattern_kernel = None
    if backend == "generic":
        kind = backend
    elif backend == "jit" or (
        backend == "auto" and jit_wins and jit_backend.jit_supports_pattern(resolved)
    ):
        kind, pattern_kernel = "jit", jit_backend.get_jit_kernel(resolved)
    else:
        try:
            kind, pattern_kernel = "generated", compile_kernel(resolved)
        except CodegenError as exc:
            if backend == "generated":
                raise BackendError(
                    f"the code generator cannot emit pattern {resolved.name!r}: {exc}; "
                    "use backend='generic' or 'auto'"
                ) from exc
            kind = "generic"
    # Only a kernel that calls user code gets the reference as a safety net.
    falls_back = backend == "auto" and kind == "generated" and not resolved.is_standard

    def kernel(
        A,
        X,
        Y=None,
        *,
        block_size: Optional[int] = None,
        num_threads: int = 1,
        parts=None,
        pool=None,
        out: Optional[np.ndarray] = None,
        row_offset: int = 0,
        schedule=None,
    ) -> np.ndarray:
        # Checked here, ahead of every kind, so a bad size fails the same
        # way on all backends (None and 0 mean the default).
        if block_size is not None and block_size < 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        if X is None:
            if kind == "generated":
                _check_sourceless(resolved)
            else:
                X = _zero_sources(A, Y, resolved)
        if pattern_kernel is None:
            return fusedmm_generic(
                A, X, Y, pattern=op_pattern, out=out, row_offset=row_offset
            )
        blocking = dict(
            block_size=block_size or DEFAULT_BLOCK_SIZE,
            num_threads=num_threads,
            parts=parts,
            pool=pool,
            out=out,
            row_offset=row_offset,
        )
        if schedule is not None and kind == "generated":
            blocking["schedule"] = schedule
        try:
            return pattern_kernel(A, X, Y, **blocking)
        except Exception:
            if not falls_back:
                raise
            # Last resort for exotic user operators whose batched form
            # misbehaves: the reference kernel always works.
            if X is None:
                X = _zero_sources(A, Y, resolved)
            return fusedmm_generic(
                A, X, Y, pattern=op_pattern, out=out, row_offset=row_offset
            )

    return kind, kernel


class KernelChoice(NamedTuple):
    """A resolved kernel plus the blocking it runs with on one matrix."""

    kind: str
    kernel: Callable
    block_size: int
    tuning: Optional[TuningResult]


def plan_kernel(
    A: CSRMatrix,
    pattern: OpPattern | str,
    backend: str = "auto",
    *,
    block_size: Optional[int] = None,
    num_threads: int = 1,
    autotune: bool = False,
    autotune_dim: int = 128,
) -> KernelChoice:
    """Resolve (and optionally autotune) the kernel for ``A``.

    The sweep runs on synthetic features of ``autotune_dim`` columns (the
    adjacency is what shapes the access pattern) and decides the jit tier
    and, unless ``block_size`` is explicit, the edge-block size.  The
    block sizes are timed through the generated kernel, which the plan
    runs when the jit tier does not win.
    """
    kind, kernel = resolve_backend(pattern, backend)
    tuning = None
    if autotune and kind != "generic":
        rng = np.random.default_rng(0)
        X = rng.standard_normal((A.nrows, autotune_dim)).astype(np.float32)
        Y = (
            X
            if A.nrows == A.ncols
            else rng.standard_normal((A.ncols, autotune_dim)).astype(np.float32)
        )
        tuning = autotune_sweep(
            A,
            X,
            Y,
            pattern=pattern,
            # The jit candidate only competes when the requested backend
            # allows the tier.
            jit=None if backend in ("auto", "jit") else False,
            num_threads=num_threads,
        )
        kind, kernel = resolve_backend(pattern, backend, jit=tuning.jit_won)
        block_size = block_size or tuning.block_size
    return KernelChoice(kind, kernel, block_size or DEFAULT_BLOCK_SIZE, tuning)


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #
def fusedmm(
    A,
    X,
    Y=None,
    *,
    pattern: OpPattern | str = "sigmoid_embedding",
    backend: str = "auto",
    num_threads: int = 1,
    block_size: Optional[int] = None,
    out: Optional[np.ndarray] = None,
    row_offset: int = 0,
    **pattern_overrides,
) -> np.ndarray:
    """Compute ``Z = FusedMM(A, X, Y)`` for the requested operator pattern.

    Parameters
    ----------
    A:
        Sparse adjacency slice (anything :func:`repro.sparse.as_csr`
        accepts): ``m × n``.
    X:
        ``m × d`` source-vertex features; ``None`` for spmm-like patterns,
        which never read them.
    Y:
        ``n × d`` destination-vertex features; defaults to ``X`` when ``A``
        is square.
    pattern:
        Pattern name (``"sigmoid_embedding"``, ``"fr_layout"``, ``"gcn"``,
        ``"gnn_mlp"``, ``"spmm"``, …), an
        :class:`~repro.core.patterns.OpPattern`, or ``None`` with explicit
        ``vop=...``/``rop=...``/... keyword overrides.
    backend:
        One of :data:`BACKENDS`.
    num_threads:
        Worker threads for the partition-parallel backends.
    block_size:
        Edge-block size override for the blocked backends.
    out, row_offset:
        Optional preallocated output slab shared by every backend: row
        ``u`` of the result is written to ``out[u - row_offset]`` and only
        the covered rows are computed.

    Returns
    -------
    numpy.ndarray
        The ``m × d`` updated feature matrix ``Z``.
    """
    _, kernel = resolve_backend(get_pattern(pattern, **pattern_overrides), backend)
    return kernel(
        A,
        X,
        Y,
        block_size=block_size,
        num_threads=num_threads,
        out=out,
        row_offset=row_offset,
    )


class FusedMM:
    """A planned, reusable FusedMM kernel bound to one adjacency matrix.

    The kernel, its blocking and (with ``autotune=True``) the sweep behind
    them are chosen once by :func:`plan_kernel` and kept in :attr:`plan`.

    Example
    -------
    >>> from repro import FusedMM
    >>> from repro.graphs import load_dataset, random_features
    >>> g = load_dataset("cora")
    >>> X = random_features(g.num_vertices, 64, seed=0)
    >>> kernel = FusedMM(g.adjacency, pattern="sigmoid_embedding", autotune=False)
    >>> Z = kernel(X)          # Y defaults to X for square A
    >>> Z.shape
    (2708, 64)
    """

    def __init__(
        self,
        A,
        *,
        pattern: OpPattern | str = "sigmoid_embedding",
        backend: str = "auto",
        num_threads: int = 1,
        block_size: Optional[int] = None,
        autotune: bool = False,
        autotune_dim: int = 128,
        **pattern_overrides,
    ) -> None:
        self.A: CSRMatrix = as_csr(A)
        self.pattern: OpPattern = get_pattern(pattern, **pattern_overrides)
        self.resolved = self.pattern.resolved()
        self.backend = backend
        self.num_threads = max(1, num_threads)
        self.plan: KernelChoice = plan_kernel(
            self.A,
            self.pattern,
            backend,
            block_size=block_size,
            num_threads=self.num_threads,
            autotune=autotune,
            autotune_dim=autotune_dim,
        )
        self.partitions = part1d(self.A, self.num_threads)

    # ------------------------------------------------------------------ #
    def __call__(self, X, Y=None, *, out=None, row_offset: int = 0) -> np.ndarray:
        """Execute the planned kernel on new feature matrices."""
        return self.plan.kernel(
            self.A,
            X,
            Y,
            block_size=self.plan.block_size,
            num_threads=self.num_threads,
            out=out,
            row_offset=row_offset,
        )

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Human-readable summary of the plan (for logs and reports)."""
        info = {
            "pattern": self.resolved.name,
            "ops": self.resolved.op_names(),
            "backend": self.backend,
            "kind": self.plan.kind,
            "block_size": self.plan.block_size,
            "num_threads": self.num_threads,
            "partitions": len(self.partitions),
            "nnz": self.A.nnz,
            "shape": self.A.shape,
        }
        if self.plan.tuning is not None:
            info["tuning"] = self.plan.tuning.as_dict()
        return info

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FusedMM(pattern={self.resolved.name!r}, kind={self.plan.kind!r}, "
            f"A={self.A.shape}, nnz={self.A.nnz})"
        )
