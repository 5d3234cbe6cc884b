"""Dynamic graphs: live edge mutation over the runtime's cache stack.

:class:`DynamicGraph` is the mutable handle the serving layer holds per
registered graph.  Every state is an immutable :class:`GraphVersion`
holding exactly one canonical CSR, named by a **versioned fingerprint**
``<lineage>@v<N>`` (pinned via
:func:`~repro.runtime.fingerprint.pin_fingerprint`, so every cache tier
keys on the version automatically).  A write splices the batch's rows
onto the current version's CSR (:class:`~repro.sparse.delta.DeltaCSR`)
and swaps the current pointer atomically: readers resolve one version
and keep it for the whole request, so a write can never tear an
in-flight computation, and a superseded CSR is freed once its last
reader lets go.

A mutation refreshes what stays valid and drops the rest:

* **plans** — every cached plan of the old version is rebound to the new
  one (:meth:`~repro.runtime.runtime.KernelRuntime.update_matrix`):
  backend resolution and the autotuned block size carry over, only the
  nnz-balanced partitions are recomputed.
* **shards** — the controller gets the batch's rows as a delta source
  for the new version
  (:meth:`~repro.runtime.remote.RemoteController.register_delta`), so
  the next sharded run re-ships only those rows (``OP_LOAD_DELTA``) to
  every worker agent, local or dial-in, that still holds the previous
  version; everything else falls back to a full ship.

Correctness contract (tested property-style in ``tests/test_dynamic.py``
and end-to-end by the mutation smoke): a kernel executed against a
version is **bitwise identical** to the same kernel on a CSR freshly
rebuilt from the same edge set — at every version, across backends and
shard counts and agents.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..sparse import CSRMatrix, as_csr
from ..sparse.delta import DeltaCSR
from .fingerprint import matrix_fingerprint, pin_fingerprint

__all__ = [
    "DynamicGraph",
    "GraphVersion",
    "MutationResult",
]


@dataclass(frozen=True)
class GraphVersion:
    """One immutable graph state: its canonical CSR.

    Readers resolve a version once (request admission, epoch start) and
    use it unlocked for the whole computation — the mutation path only
    ever *replaces* the current version, never edits one.
    """

    version: int
    fingerprint: str
    matrix: CSRMatrix
    #: bytes of the rows the batch that made this version rewrote
    delta_bytes: int = 0


@dataclass(frozen=True)
class MutationResult:
    """What one :meth:`DynamicGraph.apply_edges` call did."""

    version: int
    fingerprint: str
    inserted: int
    updated: int
    deleted: int
    ignored_deletes: int
    touched_rows: int
    nnz: int
    plans_refreshed: int = 0
    delta_sources: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "inserted": self.inserted,
            "updated": self.updated,
            "deleted": self.deleted,
            "ignored_deletes": self.ignored_deletes,
            "touched_rows": self.touched_rows,
            "nnz": self.nnz,
            "plans_refreshed": self.plans_refreshed,
            "delta_sources": self.delta_sources,
        }


class DynamicGraph:
    """A mutable graph whose versions flow through the runtime's caches.

    ``runtime=None`` gives a standalone graph (versions and bitwise
    splices) with no cache plumbing — the sparse tier alone.  With a
    :class:`~repro.runtime.runtime.KernelRuntime` attached, every mutation
    refreshes that runtime's cached plans for this graph, registers
    the batch's rows as a delta source on its controller and releases
    the superseded version's plans (its copies on the agents one write
    later).
    """

    def __init__(self, base, *, runtime=None, lineage: Optional[str] = None) -> None:
        base = as_csr(base)
        self.runtime = runtime
        # The lineage is the *content* hash of the original matrix — stable
        # across every subsequent version, so one release call covers the
        # graph's whole cache footprint.
        self.lineage = str(lineage) if lineage else matrix_fingerprint(base)
        fp = DeltaCSR(base, self.lineage).fingerprint
        pin_fingerprint(base, fp)
        self._lock = threading.Lock()
        self._current = GraphVersion(0, fp, base)
        self._prev_fp: Optional[str] = None
        self._counters: Dict[str, int] = {
            "mutations": 0,
            "edges_inserted": 0,
            "edges_updated": 0,
            "edges_deleted": 0,
            # Always 0 (nothing compacts); perfbench's serve-mutate reads it.
            "compactions": 0,
            "plans_refreshed": 0,
            "delta_sources": 0,
        }
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        return self._current.version

    @property
    def fingerprint(self) -> str:
        return self._current.fingerprint

    @property
    def matrix(self) -> CSRMatrix:
        """The current version's canonical CSR."""
        return self._current.matrix

    @property
    def nnz(self) -> int:
        return self._current.matrix.nnz

    @property
    def shape(self) -> Tuple[int, int]:
        return self._current.matrix.shape

    def snapshot(self) -> GraphVersion:
        """The current immutable version (safe to use unlocked)."""
        with self._lock:
            return self._current

    def row(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(cols, vals)`` of row ``u`` at the current version."""
        return self._current.matrix.row(u)

    # ------------------------------------------------------------------ #
    def apply_edges(self, insert=None, delete=None) -> MutationResult:
        """Apply one edge batch and swap in the next version.

        Deletes apply first, then inserts **upsert** (an existing edge's
        weight is replaced).  The new version is fully built — spliced
        CSR, refreshed plans, delta source — before the current pointer
        moves, so concurrent readers only ever see complete versions.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("DynamicGraph is closed")
            cur = self._current
            delta, batch = DeltaCSR(
                cur.matrix, self.lineage, version=cur.version
            ).apply(insert=insert, delete=delete)
            new_A = delta.materialize()
            fp = delta.fingerprint
            pin_fingerprint(new_A, fp)

            refreshed = sources = 0
            rt = self.runtime
            if rt is not None:
                refreshed = rt.update_matrix(cur.fingerprint, new_A, fp)
                # The agents get the new version as the batch's rows
                # spliced over the old one.
                controller = rt.controller
                if controller is not None and batch.touched_rows.size:
                    controller.register_delta(fp, cur.fingerprint, *delta.splice)
                    sources = 1
                # The superseded version's plans go now; its copies on the
                # agents stay one more round — they are the base the delta
                # source above splices onto.  The round after, the
                # grandparent version is released everywhere.
                rt.release_matrix(cur.fingerprint, remote=False)
                if self._prev_fp is not None:
                    rt.release_matrix(self._prev_fp)

            self._prev_fp = cur.fingerprint
            self._current = GraphVersion(delta.version, fp, new_A, delta.delta_bytes)

            result = MutationResult(
                version=delta.version,
                fingerprint=fp,
                inserted=batch.inserted,
                updated=batch.updated,
                deleted=batch.deleted,
                ignored_deletes=batch.ignored_deletes,
                touched_rows=int(batch.touched_rows.size),
                nnz=new_A.nnz,
                plans_refreshed=refreshed,
                delta_sources=sources,
            )
            c = self._counters
            c["mutations"] += 1
            c["edges_inserted"] += result.inserted
            c["edges_updated"] += result.updated
            c["edges_deleted"] += result.deleted
            c["plans_refreshed"] += refreshed
            c["delta_sources"] += sources
            return result

    # ------------------------------------------------------------------ #
    def memory(self) -> Dict[str, object]:
        """Byte accounting for this graph across every tier it occupies.

        ``base_bytes`` is the current version's CSR, ``delta_bytes`` the
        rows the latest batch spliced into it (already inside
        ``base_bytes``), ``plan_bytes`` what the attached runtime's plan
        cache retains for this version (the plans' kept block schedules).
        """
        with self._lock:
            cur = self._current
        out: Dict[str, object] = {
            "fingerprint": cur.fingerprint,
            "version": cur.version,
            "nnz": cur.matrix.nnz,
            "base_bytes": cur.matrix.memory_bytes(
                value_bytes=int(cur.matrix.data.dtype.itemsize)
            ),
            "delta_bytes": cur.delta_bytes,
            "plans": 0,
            "plan_bytes": 0,
        }
        rt = self.runtime
        if rt is not None:
            plan_mem = rt.plan_bytes(cur.fingerprint)
            out["plans"] = plan_mem["plans"]
            out["plan_bytes"] = plan_mem["plan_bytes"]
        out["total_bytes"] = int(out["base_bytes"] + out["plan_bytes"])
        return out

    def stats(self) -> Dict[str, object]:
        """Mutation counters + the current version's memory accounting."""
        with self._lock:
            counters = dict(self._counters)
        return {**counters, **self.memory()}

    # ------------------------------------------------------------------ #
    def close(self) -> Dict[str, int]:
        """Release this graph's entire cache footprint (every version and
        derived key, across the plan cache and every worker agent).
        Idempotent."""
        with self._lock:
            if self._closed:
                return {}
            self._closed = True
            if self.runtime is not None:
                return self.runtime.release_matrix(self.lineage)
            return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(fingerprint={self.fingerprint!r}, "
            f"nnz={self.nnz}, shape={self.shape})"
        )
