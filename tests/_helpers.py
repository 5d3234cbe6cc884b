"""Helpers shared by the test modules.

Kept outside ``conftest.py`` deliberately: ``conftest`` is a pytest
implementation detail, and importing it by name from test modules collides
with the *other* ``conftest.py`` of the benchmark suite (both directories
sit on ``sys.path`` during collection, and whichever is imported first
claims the module name).  Test modules import helpers from here;
``conftest.py`` holds fixtures only.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.ablations import all_calls_pattern
from repro.graphs import random_features
from repro.sparse import CSRMatrix

__all__ = ["kernel_rung", "make_xy", "select_rows_by_loop", "with_negatives_by_loop"]


def kernel_rung(pattern, rung: str):
    """``(pattern, backend)`` that runs ``pattern`` on kernel rung ``rung``:
    a backend name, or ``"optimized"`` — edge blocking without
    specialisation, the generated kernel of the pattern's all-calls form,
    which calls each operator's ``batch_fn`` as a user operator's kernel
    does."""
    if rung == "optimized":
        return all_calls_pattern(pattern), "generated"
    return pattern, rung


def make_xy(A: CSRMatrix, d: int, seed: int = 0):
    """(X, Y) operand pair sized for A."""
    X = random_features(A.nrows, d, seed=seed)
    Y = X if A.nrows == A.ncols else random_features(A.ncols, d, seed=seed + 1)
    return X, Y


def select_rows_by_loop(A: CSRMatrix, rows) -> CSRMatrix:
    """Row-by-row reference for :meth:`CSRMatrix.select_rows`."""
    spans = [slice(A.indptr[u], A.indptr[u + 1]) for u in rows]
    indptr = np.zeros(len(spans) + 1, dtype=np.int64)
    np.cumsum([s.stop - s.start for s in spans], out=indptr[1:])
    indices = np.concatenate([np.empty(0, np.int64)] + [A.indices[s] for s in spans])
    data = np.concatenate([np.empty(0, A.data.dtype)] + [A.data[s] for s in spans])
    return CSRMatrix(len(spans), A.ncols, indptr, indices, data, check=False)


def with_negatives_by_loop(A: CSRMatrix, negatives, labels) -> CSRMatrix:
    """Row-by-row reference for :func:`repro.apps.sampling.with_negatives`:
    each row's edges valued ``labels``, then its negatives valued 0."""
    labels = np.broadcast_to(np.asarray(labels, dtype=np.float32), (A.nnz,))
    indices, data = [np.empty(0, np.int64)], [np.empty(0, np.float32)]
    indptr = [0]
    for u in range(A.nrows):
        lo, hi = A.indptr[u], A.indptr[u + 1]
        indices += [A.indices[lo:hi], np.asarray(negatives[u], np.int64)]
        data += [labels[lo:hi], np.zeros(len(negatives[u]), np.float32)]
        indptr.append(indptr[-1] + (hi - lo) + len(negatives[u]))
    return CSRMatrix(
        A.nrows,
        A.ncols,
        np.array(indptr, dtype=np.int64),
        np.concatenate(indices),
        np.concatenate(data),
        check=False,
    )
