"""Structural fingerprints of sparse matrices.

The plan cache of :mod:`repro.runtime` keys execution plans on the
*content* of the adjacency matrix, not on object identity: two ``CSRMatrix``
instances holding the same rows/columns/values map to the same plan, and a
matrix that is rebuilt between epochs still hits the cache.

Hashing is O(nnz) (one pass over ``indptr``/``indices``/``data`` with
BLAKE2b), which is far cheaper than a kernel call (O(nnz × d)) but not
free; fingerprints are therefore memoised per matrix *instance* using weak
references, so the common case — the same adjacency object re-submitted
every epoch — hashes exactly once.

Matrices are treated as immutable once they have been handed to the
runtime: mutating ``A.data`` in place after a call will not invalidate the
memoised fingerprint (rebuild the matrix, or call
:func:`matrix_fingerprint` with ``use_memo=False``, if you must).
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from typing import Dict, Optional

from ..sparse import CSRMatrix, as_csr

__all__ = [
    "matrix_fingerprint",
    "memoized_fingerprint",
    "pin_fingerprint",
    "fingerprint_covers",
    "fingerprint_memo_info",
    "clear_fingerprint_memo",
]

_MEMO: Dict[int, str] = {}
_MEMO_LOCK = threading.Lock()


def _evict(obj_id: int) -> None:
    with _MEMO_LOCK:
        _MEMO.pop(obj_id, None)


def _compute(A: CSRMatrix) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(f"csr:{A.nrows}:{A.ncols}:{A.nnz}".encode())
    h.update(A.indptr.tobytes())
    h.update(A.indices.tobytes())
    h.update(f"dtype:{A.data.dtype.str}".encode())
    h.update(A.data.tobytes())
    return h.hexdigest()


def matrix_fingerprint(A, *, use_memo: bool = True) -> str:
    """Content hash of a sparse matrix (shape, structure and values).

    Accepts anything :func:`repro.sparse.as_csr` accepts.  The result is a
    32-character hex digest, stable across processes and platforms for
    identical CSR content.
    """
    A = as_csr(A)
    if not use_memo:
        return _compute(A)
    obj_id = id(A)
    with _MEMO_LOCK:
        cached = _MEMO.get(obj_id)
    if cached is not None:
        return cached
    digest = _compute(A)
    try:
        weakref.finalize(A, _evict, obj_id)
    except TypeError:  # pragma: no cover - non-weakref-able matrix type
        return digest
    with _MEMO_LOCK:
        _MEMO[obj_id] = digest
    return digest


def memoized_fingerprint(A) -> Optional[str]:
    """The memoised fingerprint of this matrix *instance*, or ``None`` when
    it was never fingerprinted (or pinned): a lookup, never a hash."""
    with _MEMO_LOCK:
        return _MEMO.get(id(A))


def pin_fingerprint(A, fingerprint: str) -> str:
    """Pin an explicit fingerprint for a matrix *instance*.

    The dynamic-graph tier names each version's CSR with a **versioned**
    fingerprint (``<lineage>@v<N>``) instead of a content hash: it is
    cheap to derive (no O(nnz) hashing per mutation).
    Pinning seeds the per-instance memo, so every cache tier that calls
    :func:`matrix_fingerprint` — plan cache, worker ship keys, remote host
    LRUs — keys this instance on the versioned name.
    The pin lives exactly as long as the instance (weakref-backed).
    """
    A = as_csr(A)
    obj_id = id(A)
    try:
        weakref.finalize(A, _evict, obj_id)
    except TypeError:  # pragma: no cover - non-weakref-able matrix type
        return fingerprint
    with _MEMO_LOCK:
        _MEMO[obj_id] = str(fingerprint)
    return fingerprint


def fingerprint_covers(fingerprint: str, key: str) -> bool:
    """Whether cache/ship key ``key`` belongs to ``fingerprint``'s lineage.

    True for the fingerprint itself and, given a bare lineage hash, its
    versioned descendants (``<fp>@vN``), so one call can retire a whole
    graph or exactly one superseded version.  Every tier that unships by
    fingerprint — plan cache, worker agents' matrix LRUs —
    uses this one predicate so the notion of "belongs to that graph"
    cannot drift.
    """
    if not fingerprint or not key:
        return False
    return key == fingerprint or key.startswith(fingerprint + "@")


def fingerprint_memo_info() -> Dict[str, int]:
    """Number of live memoised fingerprints (for tests and diagnostics)."""
    with _MEMO_LOCK:
        return {"memoized": len(_MEMO)}


def clear_fingerprint_memo() -> None:
    """Drop all memoised fingerprints (mainly for tests)."""
    with _MEMO_LOCK:
        _MEMO.clear()
