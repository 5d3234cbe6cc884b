"""Dynamic graphs: live edge mutation over the runtime's cache stack.

:class:`DynamicGraph` is the mutable handle the serving layer holds per
registered graph.  Internally every state is an immutable pair — a
:class:`~repro.sparse.delta.DeltaCSR` snapshot plus its materialised
canonical CSR — named by a **versioned fingerprint** ``<lineage>@v<N>``
(pinned via :func:`~repro.runtime.fingerprint.pin_fingerprint`, so every
cache tier keys on the version automatically).  Readers resolve one
snapshot and keep it for the whole request: mutations swap the current
pointer atomically and can never tear an in-flight computation.

Mutations invalidate *incrementally* instead of flushing:

* **plans** — every cached plan of the old version is refreshed in place
  (:func:`refresh_plan`): backend resolution and the autotuned block size
  carry over, only the nnz-balanced partitions are recomputed.
* **reorder** — the vertex permutation is *carried* while the mutated
  matrix's mean bandwidth stays within ``carry_factor`` × the bandwidth
  measured when the permutation was attached; the permuted copy is then
  patched by splicing just the dirty rows (columns mapped through the
  existing ``inv_perm``) and only panels overlapping a dirty row are
  re-compacted — clean :class:`~repro.sparse.reorder.PanelBlock` objects
  are reused as-is.  Past the bound, the permutation is recomputed from
  scratch (the graph has drifted from the layout the sweep measured).
* **shards** — the remote tier gets a delta source per mutated ship key
  (:meth:`~repro.runtime.remote.RemoteController.register_delta`), so
  the next sharded run re-ships only the dirty rows (``OP_LOAD_DELTA``)
  to agents that still hold the previous version; everything else falls
  back to a full ship.

Correctness contract (tested property-style in ``tests/test_dynamic.py``
and end-to-end by the mutation smoke): a kernel executed against the
overlay is **bitwise identical** to the same kernel on a CSR freshly
rebuilt from the same edge set — at every version, at every compaction
point, across backends and shard counts, local or remote.  (Reordered
execution stays allclose-equivalent, exactly as for static graphs.)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.partition import RowPartition, split_parts
from ..sparse import CSRMatrix, as_csr
from ..sparse.delta import CompactionPolicy, DeltaCSR, splice_rows
from ..sparse.reorder import average_bandwidth, build_panels
from .fingerprint import matrix_fingerprint, pin_fingerprint
from .plan import KernelPlan, PlanKey, _attach_reorder

__all__ = [
    "DEFAULT_CARRY_FACTOR",
    "DynamicGraph",
    "GraphVersion",
    "MutationResult",
    "permuted_rows_payload",
    "refresh_plan",
    "rows_payload",
]

#: A carried permutation is kept while the spliced permuted matrix's mean
#: bandwidth stays within this factor of the bandwidth measured when the
#: permutation was attached.  The reference never moves while carrying, so
#: drift cannot compound batch over batch.
DEFAULT_CARRY_FACTOR = 4.0


# ---------------------------------------------------------------------- #
# Row payloads (shared by the plan refresh and the delta-ship path)
# ---------------------------------------------------------------------- #
def rows_payload(
    A: CSRMatrix, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, counts, indices, data)`` of ``rows`` as found in ``A``.

    The splice arguments :func:`~repro.sparse.delta.splice_rows` (and the
    ``OP_LOAD_DELTA`` wire payload) expect: applying this payload to any
    matrix that agrees with ``A`` on every *other* row reproduces ``A``
    bitwise.
    """
    rows = np.unique(np.asarray(rows, dtype=np.int64))
    indptr = A.indptr
    counts = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    chunks_i: List[np.ndarray] = []
    chunks_d: List[np.ndarray] = []
    for r in rows:
        lo, hi = int(indptr[r]), int(indptr[r + 1])
        chunks_i.append(A.indices[lo:hi])
        chunks_d.append(A.data[lo:hi])
    indices = (
        np.concatenate(chunks_i) if chunks_i else np.empty(0, dtype=np.int64)
    )
    data = np.concatenate(chunks_d) if chunks_d else np.empty(0, dtype=A.data.dtype)
    return rows, counts, indices, data


def permuted_rows_payload(
    A_new: CSRMatrix,
    dirty_rows: np.ndarray,
    perm: np.ndarray,
    inv_perm: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The dirty rows of ``A_new`` expressed in permuted coordinates.

    Row ``r`` of the natural-order matrix lives at permuted row
    ``inv_perm[r]``; its columns map through ``inv_perm`` and are re-sorted
    to canonical CSR order under the new numbering — exactly what
    :func:`~repro.sparse.reorder.permute_symmetric` would produce for those
    rows, without touching the clean ones.
    """
    dirty = np.unique(np.asarray(dirty_rows, dtype=np.int64))
    pr = np.sort(inv_perm[dirty])
    src = perm[pr]
    indptr = A_new.indptr
    counts = (indptr[src + 1] - indptr[src]).astype(np.int64)
    chunks_i: List[np.ndarray] = []
    chunks_d: List[np.ndarray] = []
    for s in src:
        lo, hi = int(indptr[s]), int(indptr[s + 1])
        cols = inv_perm[A_new.indices[lo:hi]]
        order = np.argsort(cols, kind="stable")
        chunks_i.append(cols[order])
        chunks_d.append(A_new.data[lo:hi][order])
    indices = (
        np.concatenate(chunks_i) if chunks_i else np.empty(0, dtype=np.int64)
    )
    data = (
        np.concatenate(chunks_d) if chunks_d else np.empty(0, dtype=A_new.data.dtype)
    )
    return pr, counts, indices, data


# ---------------------------------------------------------------------- #
# Plan refresh
# ---------------------------------------------------------------------- #
def refresh_plan(
    plan: KernelPlan,
    A_new: CSRMatrix,
    new_key: PlanKey,
    dirty_rows: Optional[np.ndarray],
    *,
    split_nnz: int,
    autotune_dim: int = 128,
    carry_factor: float = DEFAULT_CARRY_FACTOR,
    carry_cache: Optional[Dict[str, Tuple[CSRMatrix, np.ndarray]]] = None,
) -> Tuple[KernelPlan, Dict[str, object]]:
    """Rebind a cached plan to the next version of its matrix.

    Everything expensive that does not depend on the sparsity *values* is
    reused verbatim: backend resolution, the concrete kernel, autotune
    results, the block size.  Recomputed per call: the nnz-balanced
    partitions (O(nrows)) and — for reordered plans — the carried permuted
    matrix (O(dirty nnz) splice) with only the dirty panels re-compacted.

    ``carry_cache`` (shared across the plans of one mutation batch) maps a
    plan's ``reorder_tag`` to its already-spliced permuted matrix, so
    several plans with the same permutation pay the splice once.

    Returns ``(new_plan, info)`` where ``info`` carries the per-plan
    invalidation accounting (``panels_rebuilt``/``panels_reused``,
    ``carried``) and — for carried reorders — a ``derived`` entry
    (``key``/``base_key``: the new and old
    :meth:`~repro.runtime.plan.KernelPlan.reordered_key`, ``matrix``,
    ``perm_rows``) the caller uses to register a dirty-shard delta source
    for the permuted ship key.  A carried plan keeps its ``reorder_tag``:
    the permutation is the same.
    """
    A_new = as_csr(A_new)
    new_plan = replace(
        plan,
        key=new_key,
        nnz=A_new.nnz,
        shape=A_new.shape,
        partitions=split_parts(A_new, split_nnz),
        calls=0,
        _calls_lock=threading.Lock(),
    )
    info: Dict[str, object] = {
        "reorder": "none",
        "carried": False,
        "panels_rebuilt": 0,
        "panels_reused": 0,
        "derived": None,
    }
    if plan.reorder == "none" or plan.reordered is None or plan.perm is None:
        return new_plan, info
    info["reorder"] = plan.reorder

    carried = False
    Ap_new: Optional[CSRMatrix] = None
    pr: Optional[np.ndarray] = None
    if dirty_rows is not None:
        cached = None if carry_cache is None else carry_cache.get(plan.reorder_tag)
        if cached is not None:
            Ap_new, pr = cached
        else:
            pr, counts, idx, dat = permuted_rows_payload(
                A_new, dirty_rows, plan.perm, plan.inv_perm
            )
            Ap_new = splice_rows(plan.reordered, pr, counts, idx, dat)
            if carry_cache is not None:
                carry_cache[plan.reorder_tag] = (Ap_new, pr)
        reference = (
            plan.reorder_bandwidth
            if plan.reorder_bandwidth is not None
            else average_bandwidth(plan.reordered)
        )
        carried = average_bandwidth(Ap_new) <= carry_factor * (reference + 1.0)

    if not carried:
        # Drifted past the carry bound (or dirty rows unknown): recompute
        # the permutation for the new version from scratch.
        _attach_reorder(
            new_plan, A_new, plan.reorder, autotune_dim=autotune_dim
        )
        return new_plan, info

    # Carried: same permutation, spliced permuted matrix, dirty-panel
    # rebuild.  Panel boundaries stay (they are row ranges, still a
    # contiguous cover); per-panel nnz is refreshed from the new indptr.
    indptr = Ap_new.indptr
    parts = [
        RowPartition(p.start, p.stop, int(indptr[p.stop] - indptr[p.start]))
        for p in plan.partitions
    ]
    panels = []
    rebuilt = reused = 0
    for old_panel, part in zip(plan.panels, parts):
        lo = int(np.searchsorted(pr, part.start))
        hi = int(np.searchsorted(pr, part.stop))
        if lo < hi:
            panels.append(build_panels(Ap_new, [part])[0])
            rebuilt += 1
        else:
            # No dirty row in [start, stop): the old panel's localised
            # sub-CSR still holds exactly this row range's content.
            panels.append(old_panel)
            reused += 1
    new_plan.reordered = Ap_new
    new_plan.panels = panels
    new_plan.partitions = parts
    # Keep the attach-time bandwidth as the carry reference so repeated
    # small batches cannot ratchet the bound upward.
    new_plan.reorder_bandwidth = plan.reorder_bandwidth
    info["carried"] = True
    info["panels_rebuilt"] = rebuilt
    info["panels_reused"] = reused
    info["derived"] = {
        "key": new_plan.reordered_key(),
        "base_key": plan.reordered_key(),
        "matrix": Ap_new,
        "perm_rows": pr,
    }
    return new_plan, info


# ---------------------------------------------------------------------- #
# The per-graph handle
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class GraphVersion:
    """One immutable graph state: overlay + materialised canonical CSR.

    Readers resolve a version once (request admission, epoch start) and
    use it unlocked for the whole computation — the mutation path only
    ever *replaces* the current version, never edits one.
    """

    version: int
    fingerprint: str
    delta: DeltaCSR
    matrix: CSRMatrix


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
    compacted: bool
    nnz: int
    plans_refreshed: int = 0
    panels_rebuilt: int = 0
    panels_reused: int = 0
    reorders_carried: int = 0
    reorders_rebuilt: int = 0
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
            "compacted": self.compacted,
            "nnz": self.nnz,
            "plans_refreshed": self.plans_refreshed,
            "panels_rebuilt": self.panels_rebuilt,
            "panels_reused": self.panels_reused,
            "reorders_carried": self.reorders_carried,
            "reorders_rebuilt": self.reorders_rebuilt,
            "delta_sources": self.delta_sources,
        }


class DynamicGraph:
    """A mutable graph whose versions flow through the runtime's caches.

    ``runtime=None`` gives a standalone overlay (versions, compaction,
    bitwise materialisation) with no cache plumbing — the sparse tier
    alone.  With a :class:`~repro.runtime.runtime.KernelRuntime` attached,
    every mutation refreshes that runtime's cached plans for this graph,
    registers dirty-shard delta sources on its remote controller and
    releases the superseded version from the local cache tiers.
    """

    def __init__(
        self,
        base,
        *,
        runtime=None,
        policy: Optional[CompactionPolicy] = None,
        carry_factor: float = DEFAULT_CARRY_FACTOR,
        lineage: Optional[str] = None,
    ) -> None:
        base = as_csr(base)
        self.runtime = runtime
        self.carry_factor = float(carry_factor)
        # The lineage is the *content* hash of the original base — stable
        # across every subsequent version and compaction, so one release
        # call covers the graph's whole cache footprint.
        self.lineage = str(lineage) if lineage else matrix_fingerprint(base)
        delta = DeltaCSR(base, self.lineage, policy=policy)
        pin_fingerprint(base, delta.fingerprint)
        self._lock = threading.Lock()
        self._current = GraphVersion(delta.version, delta.fingerprint, delta, base)
        self._prev_fp: Optional[str] = None
        self._counters: Dict[str, int] = {
            "mutations": 0,
            "edges_inserted": 0,
            "edges_updated": 0,
            "edges_deleted": 0,
            "compactions": 0,
            "plans_refreshed": 0,
            "panels_rebuilt": 0,
            "panels_reused": 0,
            "reorders_carried": 0,
            "reorders_rebuilt": 0,
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
        """The current version's materialised canonical CSR."""
        return self._current.matrix

    @property
    def nnz(self) -> int:
        return self._current.delta.nnz

    @property
    def shape(self) -> Tuple[int, int]:
        return self._current.delta.shape

    def snapshot(self) -> GraphVersion:
        """The current immutable version (safe to use unlocked)."""
        with self._lock:
            return self._current

    def row(self, u: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(cols, vals)`` of row ``u`` at the current version."""
        return self._current.delta.row(u)

    # ------------------------------------------------------------------ #
    def apply_edges(self, insert=None, delete=None) -> MutationResult:
        """Apply one edge batch and swap in the next version.

        Deletes apply first, then inserts **upsert** (an existing edge's
        weight is replaced).  The new version is fully built — overlay,
        materialised CSR, refreshed plans, delta sources — before the
        current pointer moves, so concurrent readers only ever see
        complete versions.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("DynamicGraph is closed")
            cur = self._current
            new_delta, batch = cur.delta.apply(insert=insert, delete=delete)
            compacted = False
            if new_delta.should_compact():
                new_delta = new_delta.compacted()
                compacted = True
            new_A = new_delta.materialize()
            fp = new_delta.fingerprint
            pin_fingerprint(new_A, fp)

            info: Dict[str, object] = {}
            sources = 0
            rt = self.runtime
            if rt is not None:
                info = rt.update_matrix(
                    cur.fingerprint,
                    new_A,
                    fp,
                    batch.touched_rows,
                    carry_factor=self.carry_factor,
                )
                sources = self._register_delta_sources(
                    cur.fingerprint, fp, new_A, batch.touched_rows, info
                )
                # The superseded version leaves the *local* tiers now; its
                # remote copies stay one more round — they are the base the
                # delta source above splices onto.  The round after, the
                # grandparent version is released everywhere.
                rt.release_matrix(cur.fingerprint, remote=False)
                if self._prev_fp is not None:
                    rt.release_matrix(self._prev_fp)

            self._prev_fp = cur.fingerprint
            self._current = GraphVersion(new_delta.version, fp, new_delta, new_A)

            result = MutationResult(
                version=new_delta.version,
                fingerprint=fp,
                inserted=batch.inserted,
                updated=batch.updated,
                deleted=batch.deleted,
                ignored_deletes=batch.ignored_deletes,
                touched_rows=int(batch.touched_rows.size),
                compacted=compacted,
                nnz=new_delta.nnz,
                plans_refreshed=int(info.get("plans_refreshed", 0)),
                panels_rebuilt=int(info.get("panels_rebuilt", 0)),
                panels_reused=int(info.get("panels_reused", 0)),
                reorders_carried=int(info.get("reorders_carried", 0)),
                reorders_rebuilt=int(info.get("reorders_rebuilt", 0)),
                delta_sources=sources,
            )
            c = self._counters
            c["mutations"] += 1
            c["edges_inserted"] += result.inserted
            c["edges_updated"] += result.updated
            c["edges_deleted"] += result.deleted
            if compacted:
                c["compactions"] += 1
            c["plans_refreshed"] += result.plans_refreshed
            c["panels_rebuilt"] += result.panels_rebuilt
            c["panels_reused"] += result.panels_reused
            c["reorders_carried"] += result.reorders_carried
            c["reorders_rebuilt"] += result.reorders_rebuilt
            c["delta_sources"] += sources
            return result

    def _register_delta_sources(
        self,
        old_fp: str,
        new_fp: str,
        new_A: CSRMatrix,
        touched_rows: np.ndarray,
        info: Dict[str, object],
    ) -> int:
        """Give the remote tier a dirty-row splice per mutated ship key."""
        rt = self.runtime
        controller = None if rt is None else rt.controller
        if controller is None:
            return 0
        touched = np.asarray(touched_rows, dtype=np.int64)
        if touched.size == 0:
            return 0
        sources = 0
        rows, counts, idx, dat = rows_payload(new_A, touched)
        controller.register_delta(new_fp, old_fp, rows, counts, idx, dat)
        sources += 1
        for d in info.get("derived") or []:
            rows, counts, idx, dat = rows_payload(d["matrix"], d["perm_rows"])
            controller.register_delta(
                d["key"], d["base_key"], rows, counts, idx, dat
            )
            sources += 1
        return sources

    # ------------------------------------------------------------------ #
    def memory(self) -> Dict[str, object]:
        """Byte accounting for this graph across every tier it occupies.

        ``base_bytes``/``delta_bytes`` come from the overlay,
        ``materialized_bytes`` is the current version's spliced CSR (zero
        right after compaction, when the base *is* the materialisation),
        ``plan_bytes`` what the attached runtime's plan cache retains for
        this version (permuted copies included — the plans own them).
        """
        with self._lock:
            cur = self._current
        mem = cur.delta.memory()
        out: Dict[str, object] = {
            "fingerprint": cur.fingerprint,
            "version": cur.version,
            "nnz": cur.delta.nnz,
            "base_bytes": mem["base_bytes"],
            "delta_bytes": mem["delta_bytes"],
            "delta_rows": mem["delta_rows"],
            "delta_nnz": mem["delta_nnz"],
            "log_ops": mem["log_ops"],
            "compactions": mem["compactions"],
            "materialized_bytes": (
                0 if cur.matrix is cur.delta.base else cur.matrix.memory_bytes()
            ),
            "plans": 0,
            "plan_bytes": 0,
        }
        rt = self.runtime
        if rt is not None:
            plan_mem = rt.plan_bytes(cur.fingerprint)
            out["plans"] = plan_mem["plans"]
            out["plan_bytes"] = plan_mem["plan_bytes"]
        out["total_bytes"] = int(
            out["base_bytes"]
            + out["delta_bytes"]
            + out["materialized_bytes"]
            + out["plan_bytes"]
        )
        return out

    def stats(self) -> Dict[str, object]:
        """Mutation counters + the current version's memory accounting."""
        with self._lock:
            counters = dict(self._counters)
        return {**counters, **self.memory()}

    # ------------------------------------------------------------------ #
    def close(self) -> Dict[str, int]:
        """Release this graph's entire cache footprint (every version and
        derived key, across plan cache, worker shared memory and remote
        hosts).  Idempotent."""
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
