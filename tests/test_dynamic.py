"""Dynamic graphs: delta-CSR overlay, incremental invalidation, serving.

The contract under test: kernel results computed on a base+delta overlay
are **bitwise identical** to the same kernel on a CSR freshly rebuilt
from the same edge set — at every version, at every compaction point,
across local and remote execution.  Invalidation is incremental: cached
natural-order plans are refreshed (not dropped), reordered plans leave
with their version and are rebuilt fresh on the next request, and the
remote tier re-ships only dirty shards.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fused import fusedmm
from repro.errors import DatasetError, ServeError, ShapeError
from repro.graphs import random_features, rmat
from repro.runtime import (
    DynamicGraph,
    KernelRuntime,
    WorkerAgent,
    fingerprint_covers,
    matrix_fingerprint,
)
from repro.sparse import CSRMatrix, random_csr
from repro.sparse.delta import CompactionPolicy, DeltaCSR, splice_rows
from repro.sparse.reorder import reorder_matrix

settings.register_profile("repro-dynamic", deadline=None, max_examples=40)
settings.load_profile("repro-dynamic")

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _rebuild(model: dict, n: int) -> CSRMatrix:
    """A fresh canonical CSR from a ``{(u, v): w}`` edge dict."""
    edges = sorted(model)
    values = [float(model[e]) for e in edges]
    return CSRMatrix.from_edges(edges, n, n, values)


def _rebuild_from(A: CSRMatrix) -> CSRMatrix:
    """Rebuild ``A`` from scratch through the edge-list constructor."""
    rows = np.repeat(np.arange(A.nrows), np.diff(A.indptr))
    edges = list(zip(rows.tolist(), A.indices.tolist()))
    return CSRMatrix.from_edges(edges, A.nrows, A.ncols, A.data.tolist())


def _assert_bitwise(got: CSRMatrix, ref: CSRMatrix) -> None:
    assert got.shape == ref.shape
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert got.data.dtype == ref.data.dtype
    assert np.array_equal(got.data, ref.data)


def _apply_ref(model: dict, inserts, deletes) -> None:
    """Reference semantics: deletes first, then inserts upsert."""
    for u, v in deletes:
        model.pop((u, v), None)
    for u, v, w in inserts:
        model[(u, v)] = np.float32(w)


_NEVER = CompactionPolicy(max_delta_ratio=1e9, max_log=10**9)


# ---------------------------------------------------------------------- #
# Property: any interleaving of inserts / deletes / compactions keeps the
# overlay bitwise equal to a full rebuild of the same edge set.
# ---------------------------------------------------------------------- #
@st.composite
def _mutation_script(draw):
    n = draw(st.integers(min_value=3, max_value=10))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edge = st.tuples(vertex, vertex)
    weight = st.floats(
        min_value=-8.0, max_value=8.0, allow_nan=False, width=32
    )
    base = draw(st.dictionaries(edge, weight, max_size=18))
    batches = draw(
        st.lists(
            st.tuples(
                st.lists(st.tuples(vertex, vertex, weight), max_size=6),
                st.lists(edge, max_size=6),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return n, base, batches


@given(_mutation_script())
def test_overlay_bitwise_equals_rebuild_any_interleaving(script):
    n, base_edges, batches = script
    model = dict(base_edges)
    delta = DeltaCSR(_rebuild(model, n), "lin", policy=_NEVER)
    for version, (inserts, deletes, compact) in enumerate(batches, start=1):
        delta, _ = delta.apply(insert=inserts or None, delete=deletes or None)
        _apply_ref(model, inserts, deletes)
        if compact:
            delta = delta.compacted()
        assert delta.version == version
        assert delta.fingerprint == f"lin@v{version}"
        ref = _rebuild(model, n)
        _assert_bitwise(delta.materialize(), ref)
        assert delta.nnz == ref.nnz
        # Row queries answer from the overlay, without materialisation.
        for u in range(n):
            cols, vals = delta.row(u)
            ref_cols, ref_vals = ref.row(u)
            assert np.array_equal(cols, ref_cols)
            assert np.array_equal(vals, ref_vals)


def test_overlay_upsert_and_ignored_delete_semantics():
    base = _rebuild({(0, 1): 1.0, (1, 0): 1.0}, 4)
    delta = DeltaCSR(base, "lin", policy=_NEVER)
    # Upsert an existing edge, insert a new one, delete a missing one.
    delta, batch = delta.apply(
        insert=[(0, 1, 5.0), (2, 3, 2.0)], delete=[(3, 3)]
    )
    assert batch.inserted == 1
    assert batch.updated == 1
    assert batch.deleted == 0
    assert batch.ignored_deletes == 1
    cols, vals = delta.row(0)
    assert cols.tolist() == [1] and vals.tolist() == [5.0]
    # Duplicate inserts within one batch: last occurrence wins.
    delta, _ = delta.apply(insert=[(0, 2, 1.0), (0, 2, 9.0)])
    cols, vals = delta.row(0)
    assert vals[cols.tolist().index(2)] == np.float32(9.0)


def test_overlay_rejects_out_of_range_edges():
    delta = DeltaCSR(_rebuild({(0, 1): 1.0}, 3), "lin", policy=_NEVER)
    with pytest.raises(ShapeError):
        delta.apply(insert=[(0, 3, 1.0)])
    with pytest.raises(ShapeError):
        delta.apply(delete=[(-1, 0)])


def test_compaction_policy_triggers_and_keeps_fingerprint():
    base = _rebuild({(i, (i + 1) % 6): 1.0 for i in range(6)}, 6)
    delta = DeltaCSR(
        base, "lin", policy=CompactionPolicy(max_delta_ratio=1e9, max_log=3)
    )
    delta, _ = delta.apply(insert=[(0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)])
    assert delta.should_compact()
    fp = delta.fingerprint
    folded = delta.compacted()
    assert folded.fingerprint == fp  # same edge set, same cache identity
    assert folded.delta_rows == 0 and folded.log_ops == 0
    assert folded.compactions == delta.compactions + 1
    _assert_bitwise(folded.materialize(), delta.materialize())


def test_splice_rows_reproduces_full_rebuild():
    rng = np.random.default_rng(3)
    model = {
        (int(u), int(v)): float(w)
        for u, v, w in zip(
            rng.integers(0, 40, 300),
            rng.integers(0, 40, 300),
            rng.standard_normal(300),
        )
    }
    A = _rebuild(model, 40)
    # Rewrite rows 3 and 17 wholesale through the splice primitive.
    changed = dict(model)
    for (u, v) in list(changed):
        if u in (3, 17):
            del changed[(u, v)]
    changed[(3, 0)] = 2.5
    changed[(17, 39)] = -1.5
    ref = _rebuild(changed, 40)
    rows = np.array([3, 17], dtype=np.int64)
    counts = (ref.indptr[rows + 1] - ref.indptr[rows]).astype(np.int64)
    idx = np.concatenate([ref.indices[ref.indptr[r] : ref.indptr[r + 1]] for r in rows])
    dat = np.concatenate([ref.data[ref.indptr[r] : ref.indptr[r + 1]] for r in rows])
    _assert_bitwise(splice_rows(A, rows, counts, idx, dat), ref)


# ---------------------------------------------------------------------- #
# Plan refresh: natural plans are rebound, reordered plans rebuilt fresh
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def medium():
    A = rmat(3000, 40_000, seed=11)
    X = random_features(A.nrows, 8, seed=5)
    return A, X


def test_natural_plan_refresh_keeps_bitwise_identity(medium):
    A, X = medium
    ref0 = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    with KernelRuntime(num_threads=1, cache_size=16) as rt:
        g = DynamicGraph(A, runtime=rt)
        assert np.array_equal(rt.run(g.matrix, X), ref0)
        for step in range(3):
            g.apply_edges(
                insert=[(step, step + 10, 0.5), (step + 10, step, 0.5)]
            )
            rebuilt = _rebuild_from(g.matrix)
            ref = fusedmm(rebuilt, X, X, pattern="sigmoid_embedding", num_threads=1)
            assert np.array_equal(rt.run(g.matrix, X), ref)
        hits_before = rt._cache.stats().hits
        rt.run(g.matrix, X)
        assert rt._cache.stats().hits == hits_before + 1  # refreshed plan hit


def test_refreshed_plan_builds_a_fresh_schedule_after_a_write(medium):
    """A write that keeps nnz but shifts the edge grid (one edge out of a
    late row, one into an early row): the refreshed plan must not carry
    the old version's block schedule, and its next execution equals
    ``fusedmm`` on the rebuilt matrix, bit for bit."""
    A, X = medium
    opts = dict(pattern="sigmoid_embedding", backend="generated", block_size=256)
    with KernelRuntime(num_threads=1, split_nnz=4000, cache_size=16) as rt:
        g = DynamicGraph(A, runtime=rt, policy=_NEVER)
        old = rt.plan(g.matrix, **opts)
        rt.run(g.matrix, X, **opts)
        assert old.schedule is not None
        u = int(np.flatnonzero(np.diff(A.indptr))[-1])  # the last row with edges
        v = int(A.indices[A.indptr[u]])
        row0 = set(A.indices[A.indptr[0] : A.indptr[1]].tolist())
        w = next(c for c in range(A.ncols) if c not in row0)
        result = g.apply_edges(insert=[(0, w, 2.0)], delete=[(u, v)])
        assert result.plans_refreshed == 1 and g.nnz == A.nnz
        plan = rt.plan(g.matrix, **opts)
        assert plan is not old and plan.schedule is None
        ref = fusedmm(_rebuild_from(g.matrix), X, X, num_threads=1, **opts)
        assert np.array_equal(rt.run(g.matrix, X, **opts), ref)
        assert plan.schedule is not None and plan.schedule is not old.schedule
        assert g.memory()["plan_bytes"] == plan.schedule.nbytes


def test_reordered_plan_is_rebuilt_fresh_after_a_write(medium):
    """A write drops the old version's reordered plan; the next reordered
    plan of the new version is the one a static matrix with the same
    edges would get, whatever path the graph took to reach it."""
    A, X = medium
    with KernelRuntime(num_threads=1, split_nnz=4000, processes=2) as rt:
        g = DynamicGraph(A, runtime=rt)
        v0 = g.fingerprint
        rt.plan(g.matrix, pattern="sigmoid_embedding", reorder="rcm")
        result = g.apply_edges(
            insert=[(u, (u * 37 + 5) % A.nrows, 1.0) for u in range(0, 3000, 50)]
        )
        assert result.plans_refreshed == 0
        assert rt._cache.entries_for(v0) == ()
        assert rt._cache.entries_for(g.fingerprint) == ()
        plan = rt.plan(g.matrix, pattern="sigmoid_embedding", reorder="rcm")
        assert np.array_equal(plan.perm, reorder_matrix(g.matrix, "rcm").perm)
        rebuilt = _rebuild_from(g.matrix)
        ref = fusedmm(rebuilt, X, X, pattern="sigmoid_embedding", num_threads=1)
        Z = rt.run(g.matrix, X, pattern="sigmoid_embedding", reorder="rcm")
        np.testing.assert_allclose(Z, ref, rtol=1e-5, atol=1e-5)
        Zs = rt.run_sharded(
            g.matrix, X, pattern="sigmoid_embedding", reorder="rcm", shards=2
        )
        np.testing.assert_allclose(Zs, ref, rtol=1e-5, atol=1e-5)


def test_write_keeps_other_graphs_plans_in_a_full_cache(medium):
    """The refreshed plans go in only after the old version is out, so a
    write to one graph never pushes another graph's plan out of a full
    LRU."""
    A, _ = medium
    B = rmat(500, 4000, seed=3)
    with KernelRuntime(num_threads=1, cache_size=2) as rt:
        rt.plan(B)
        g = DynamicGraph(A, runtime=rt)
        rt.plan(g.matrix)
        assert len(rt._cache) == 2
        assert g.apply_edges(insert=[(0, 7, 1.0)]).plans_refreshed == 1
        assert len(rt._cache) == 2
        assert rt.plan_bytes(matrix_fingerprint(B))["plans"] == 1
        assert rt.plan_bytes(g.fingerprint)["plans"] == 1
        assert rt._cache.stats().evictions == 1  # the superseded version


# ---------------------------------------------------------------------- #
# Eviction cascade: no derived-fingerprint leaks
# ---------------------------------------------------------------------- #
def test_superseded_version_leaves_plan_cache_and_refreshes_natural_plan(medium):
    A, _ = medium
    with KernelRuntime(num_threads=1, split_nnz=4000, cache_size=16) as rt:
        g = DynamicGraph(A, runtime=rt)
        v0 = g.fingerprint
        rt.plan(g.matrix, pattern="sigmoid_embedding", reorder="rcm")
        natural = rt.plan(g.matrix, pattern="gcn")
        assert rt.plan_bytes(v0)["plan_bytes"] > 0  # the permuted copy
        result = g.apply_edges(insert=[(0, 7, 1.0), (7, 0, 1.0)])
        # The old version's plans — and the permuted copy they own — are
        # gone; the new version holds exactly the refreshed natural plan.
        assert result.plans_refreshed == 1
        assert rt._cache.entries_for(v0) == ()
        assert rt.plan_bytes(v0) == {"plans": 0, "plan_bytes": 0}
        ((key, plan),) = rt._cache.entries_for(g.fingerprint)
        assert key == replace(natural.key, fingerprint=g.fingerprint)
        assert plan.reordered is None and plan.nnz == g.nnz
        assert rt.plan_bytes(g.fingerprint) == {"plans": 1, "plan_bytes": 0}


def test_close_releases_whole_lineage(medium):
    A, _ = medium
    with KernelRuntime(num_threads=1, split_nnz=4000, cache_size=16) as rt:
        g = DynamicGraph(A, runtime=rt)
        lineage = g.lineage
        rt.plan(g.matrix, pattern="sigmoid_embedding")
        rt.plan(g.matrix, pattern="sigmoid_embedding", reorder="rcm")
        g.apply_edges(insert=[(0, 9, 1.0), (9, 0, 1.0)])
        rt.plan(g.matrix, pattern="sigmoid_embedding", reorder="rcm")
        assert rt.plan_bytes(lineage)["plan_bytes"] > 0
        released = g.close()
        assert released["plans"] == 2  # the refreshed and the fresh plan
        assert rt._cache.entries_for(lineage) == ()
        assert rt.plan_bytes(lineage) == {"plans": 0, "plan_bytes": 0}
        assert set(released) == {"plans", "worker_matrices", "remote_matrices"}
        assert g.close() == {}  # idempotent


def test_fingerprint_covers_versions_and_derivations():
    assert fingerprint_covers("abc", "abc@v3")
    assert fingerprint_covers("abc", "abc|reorder=rcm")
    assert fingerprint_covers("abc@v3", "abc@v3|reorder=rcm")
    assert not fingerprint_covers("abc@v1", "abc@v10")
    assert not fingerprint_covers("abc", "abcdef")


# ---------------------------------------------------------------------- #
# Memory accounting
# ---------------------------------------------------------------------- #
def test_memory_accounting_tracks_every_tier(medium):
    A, _ = medium
    with KernelRuntime(num_threads=1, split_nnz=4000, cache_size=16) as rt:
        g = DynamicGraph(A, runtime=rt, policy=_NEVER)
        rt.plan(g.matrix, pattern="sigmoid_embedding")
        rt.plan(g.matrix, pattern="sigmoid_embedding", reorder="rcm")
        g.apply_edges(insert=[(0, 11, 1.0), (11, 0, 1.0)])
        rt.plan(g.matrix, pattern="sigmoid_embedding", reorder="rcm")
        mem = g.memory()
        for key in (
            "fingerprint", "version", "nnz", "base_bytes", "delta_bytes",
            "delta_rows", "delta_nnz", "log_ops", "compactions",
            "materialized_bytes", "plans", "plan_bytes", "total_bytes",
        ):
            assert key in mem, key
        assert "reorder_bytes" not in mem  # the plans own the permuted copy
        assert mem["version"] == 1
        assert mem["base_bytes"] > 0
        assert mem["delta_bytes"] > 0 and mem["delta_rows"] == 2
        assert mem["materialized_bytes"] > 0  # spliced copy, not the base
        assert mem["plans"] == 2
        assert mem["plan_bytes"] > 0  # the fresh plan's permuted copy
        assert mem["total_bytes"] == (
            mem["base_bytes"] + mem["delta_bytes"]
            + mem["materialized_bytes"] + mem["plan_bytes"]
        )
        stats = g.stats()
        assert stats["mutations"] == 1
        assert stats["edges_inserted"] + stats["edges_updated"] == 2


def test_reordered_copy_is_counted_once(medium):
    """A mutated version's permuted CSR is retained by its plan alone, so
    it enters ``total_bytes`` exactly once (through ``plan_bytes``)."""
    A, _ = medium
    with KernelRuntime(num_threads=1, split_nnz=4000, cache_size=16) as rt:
        g = DynamicGraph(A, runtime=rt, policy=_NEVER)
        rt.plan(g.matrix, pattern="sigmoid_embedding", reorder="rcm")
        assert g.apply_edges(insert=[(0, 11, 1.0), (11, 0, 1.0)]).plans_refreshed == 0
        rt.plan(g.matrix, pattern="sigmoid_embedding", reorder="rcm")
        ((_, plan),) = rt._cache.entries_for(g.fingerprint)
        mem = g.memory()
        assert mem["plan_bytes"] == plan.retained_bytes()
        assert plan.retained_bytes() >= plan.reordered.memory_bytes()
        assert mem["total_bytes"] - plan.retained_bytes() == (
            mem["base_bytes"] + mem["delta_bytes"] + mem["materialized_bytes"]
        )


def test_reordered_plans_of_one_matrix_share_one_permuted_copy(medium):
    """Two patterns reordered by one strategy share the permutation, the
    permuted CSR and its panels, and every byte report counts them once."""
    A, X = medium
    with KernelRuntime(num_threads=1, split_nnz=4000, cache_size=16) as rt:
        g = DynamicGraph(A, runtime=rt, policy=_NEVER)
        p1 = rt.plan(g.matrix, pattern="sigmoid_embedding", reorder="rcm")
        p2 = rt.plan(g.matrix, pattern="gcn", reorder="rcm")
        assert p1.reordered is p2.reordered and p1.panels is p2.panels
        assert p1.reorder_tag == p2.reorder_tag
        assert np.array_equal(p1.perm, reorder_matrix(g.matrix, "rcm").perm)
        mem = g.memory()
        assert mem["plans"] == 2
        assert mem["plan_bytes"] == p1.retained_bytes() == p2.retained_bytes()
        assert rt.plan_bytes(g.fingerprint)["plan_bytes"] == p1.retained_bytes()
        for pattern in ("sigmoid_embedding", "gcn"):
            ref = fusedmm(A, X, X, pattern=pattern, num_threads=1)
            Z = rt.run(g.matrix, X, pattern=pattern, reorder="rcm")
            np.testing.assert_allclose(Z, ref, rtol=1e-5, atol=1e-5)


# ---------------------------------------------------------------------- #
# Sharded reordered runs: the ship key names the permutation
# ---------------------------------------------------------------------- #
def test_carried_and_fresh_permutations_ship_under_distinct_keys():
    """Regression: an older version's ``rcm`` permutation and a fresh
    ``rcm`` permutation of the current version used to share the ship key
    ``<fp>|reorder=rcm``, so a plan built after a write reached the
    workers' copy of the *other* permuted matrix and returned wrong rows.
    Every permuted copy now ships under a key that names its version and
    its permutation.  Planning unrelated reordered matrices in between
    (which used to push a permuted copy out of a process-global memo) must
    not matter."""
    A = rmat(3000, 36_000, seed=11)
    X = random_features(A.nrows, 8, seed=5)
    with KernelRuntime(num_threads=1, processes=2) as rt:
        g = DynamicGraph(A, runtime=rt)
        rt.run_sharded(g.matrix, X, pattern="sigmoid_embedding", reorder="rcm")
        old = rt.plan(g.matrix, pattern="sigmoid_embedding", reorder="rcm")
        result = g.apply_edges(
            insert=[(u, (u * 37 + 5) % A.nrows, 1.0) for u in range(0, 3000, 50)]
        )
        assert result.plans_refreshed == 0  # the rcm plan left with v0
        Z = rt.run_sharded(g.matrix, X, pattern="sigmoid_embedding", reorder="rcm")
        ref = fusedmm(g.matrix, X, X, pattern="sigmoid_embedding", num_threads=1)
        np.testing.assert_allclose(Z, ref, rtol=1e-4, atol=1e-5)
        fresh = rt.plan(g.matrix, pattern="sigmoid_embedding", reorder="rcm")
        assert fresh.reordered_key() != old.reordered_key()
        for seed in range(33):
            rt.plan(random_csr(60, 60, seed=seed), reorder="degree")
        Z = rt.run_sharded(g.matrix, X, pattern="gcn", reorder="rcm")
        gcn = rt.plan(g.matrix, pattern="gcn", reorder="rcm")
        assert gcn.reordered_key() == fresh.reordered_key()  # same content
        ref = fusedmm(g.matrix, X, X, pattern="gcn", num_threads=1)
        np.testing.assert_allclose(Z, ref, rtol=1e-4, atol=1e-5)


# ---------------------------------------------------------------------- #
# Remote tier: dirty-shard delta ship + evicted-base fallback
# ---------------------------------------------------------------------- #
class _AgentThread:
    def __init__(self, port, **kwargs):
        self.agent = WorkerAgent("127.0.0.1", port, **kwargs)
        self.thread = threading.Thread(
            target=self.agent.run_forever,
            kwargs={"reconnect_delay": 1.0},
            daemon=True,
        )
        self.thread.start()

    def stop(self):
        self.agent.stop()
        self.thread.join(timeout=10)


def test_remote_dirty_shard_ships_delta_then_falls_back(medium):
    A, X = medium
    runtime = KernelRuntime(num_threads=1, processes=0, remote_port=0)
    agents = [_AgentThread(runtime.controller.port, name="a0")]
    try:
        assert runtime.controller.wait_for_hosts(1, timeout=15.0) == 1
        controller = runtime.controller
        g = DynamicGraph(A, runtime=runtime)
        Z0 = runtime.run_sharded(g.matrix, X, pattern="sigmoid_embedding")
        assert np.array_equal(
            Z0, fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
        )
        # Mutation registers a delta source; the next sharded run ships
        # only the dirty rows to the agent still holding v0.
        result = g.apply_edges(insert=[(0, 3, 0.5), (3, 0, 0.5)])
        assert result.delta_sources >= 1
        ships_before = controller.delta_ships
        Z1 = runtime.run_sharded(g.matrix, X, pattern="sigmoid_embedding")
        assert controller.delta_ships == ships_before + 1
        ref = fusedmm(
            _rebuild_from(g.matrix), X, X,
            pattern="sigmoid_embedding", num_threads=1,
        )
        assert np.array_equal(Z1, ref)
        # An agent that evicted the base version gets a plain full ship —
        # same bytes, no delta traffic, one counted fallback.
        base_fp = g.fingerprint
        g.apply_edges(insert=[(1, 4, 0.25), (4, 1, 0.25)])
        for record in controller.live_hosts():
            record.loaded.discard(base_fp)
        ships_before = controller.delta_ships
        fallbacks_before = controller.delta_fallbacks
        Z2 = runtime.run_sharded(g.matrix, X, pattern="sigmoid_embedding")
        assert controller.delta_ships == ships_before
        assert controller.delta_fallbacks == fallbacks_before + 1
        ref2 = fusedmm(
            _rebuild_from(g.matrix), X, X,
            pattern="sigmoid_embedding", num_threads=1,
        )
        assert np.array_equal(Z2, ref2)
        # Dropping the graph unships every version from the remote LRU.
        released = g.close()
        assert released["remote_matrices"] >= 1
        for record in controller.live_hosts():
            assert not any(
                fingerprint_covers(g.lineage, key) for key in record.loaded
            )
    finally:
        runtime.close()
        for a in agents:
            a.stop()


# ---------------------------------------------------------------------- #
# Serving: POST /v1/graph/<name>/edges, OP_MUTATE, /statz accounting
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def server():
    from repro.serve import ModelSpec, ServeConfig
    from repro.serve.runner import BackgroundServer

    config = ServeConfig(
        port=0,
        wire_port=0,
        models=(ModelSpec("dyn", "cora", app="force2vec", dim=8, scale=0.05),),
        processes=0,
    )
    with BackgroundServer(config) as bg:
        yield bg


def test_http_mutation_endpoint_and_kernel_consistency(server):
    from repro.serve import ServeClient

    with ServeClient(server.host, server.port) as client:
        g = server.server.registry.dynamic_graph("dyn")
        start = g.version
        n = g.shape[0]
        X = random_features(n, 8, seed=9)
        doc = client.mutate(
            "dyn", insert=[[0, 5, 2.0], [5, 0, 2.0]], delete=[[n - 1, n - 1]]
        )
        assert doc["graph"] == "dyn"
        assert doc["version"] == start + 1
        assert doc["inserted"] + doc["updated"] == 2
        assert doc["fingerprint"].endswith(f"@v{start + 1}")
        # Kernel on the mutated model vs the same request with the edge
        # set shipped inline as a freshly rebuilt CSR: bitwise identical.
        z_model = client.kernel(model="dyn", x=X, pattern="gcn")
        rebuilt = _rebuild_from(server.server.registry.graph("dyn"))
        z_inline = client.kernel(graph=rebuilt, x=X, pattern="gcn")
        assert np.array_equal(z_model, z_inline)


def test_statz_reports_per_graph_memory(server):
    from repro.serve import ServeClient

    with ServeClient(server.host, server.port) as client:
        graphs = client.statz()["runtime"]["graphs"]
        assert "dyn" in graphs
        mem = graphs["dyn"]
        for key in ("fingerprint", "version", "base_bytes", "delta_bytes",
                    "plans", "plan_bytes", "total_bytes"):
            assert key in mem, key


def test_wire_mutation_endpoint(server):
    from repro.serve import WireClient

    with WireClient(server.host, server.wire_port) as wire:
        g = server.server.registry.dynamic_graph("dyn")
        start = g.version
        doc = wire.mutate("dyn", insert=[[2, 9, 1.0], [9, 2, 1.0]])
        assert doc["version"] == start + 1
        doc2 = wire.mutate("dyn", delete=[[2, 9], [9, 2]])
        assert doc2["version"] == start + 2
        assert doc2["deleted"] == 2
        cols, _ = g.row(2)
        assert 9 not in cols.tolist()


def test_mutation_error_paths(server):
    from repro.serve import ServeClient, WireClient

    with ServeClient(server.host, server.port) as client:
        with pytest.raises(ServeError) as exc:
            client.mutate("nope", insert=[[0, 1, 1.0]])
        assert exc.value.http_status == 404
        with pytest.raises(ServeError) as exc:
            client.mutate("dyn")  # neither insert nor delete
        assert exc.value.http_status == 400
    with WireClient(server.host, server.wire_port) as wire:
        with pytest.raises(ServeError) as exc:
            wire.mutate("nope", insert=[[0, 1, 1.0]])
        assert exc.value.http_status == 404


def test_registry_drop_graph_evicts_and_forgets(server):
    registry = server.server.registry
    A = rmat(400, 3000, seed=23)
    registry.register_graph("scratch", A)
    registry.mutate_graph("scratch", insert=[(0, 2, 1.0), (2, 0, 1.0)])
    assert registry.graph_memory()["scratch"]["version"] == 1
    registry.drop_graph("scratch")
    assert "scratch" not in registry.graph_memory()
    with pytest.raises(DatasetError):
        registry.graph("scratch")
    with pytest.raises(DatasetError):
        registry.drop_graph("scratch")


def test_concurrent_readers_never_see_torn_versions(server):
    """Writers race readers; every read observes one consistent version."""
    from repro.serve import ServeClient

    registry = server.server.registry
    g = registry.dynamic_graph("dyn")
    n = g.shape[0]
    X = random_features(n, 4, seed=13)
    stop = threading.Event()
    errors: list = []

    def writer():
        k = 0
        while not stop.is_set():
            try:
                registry.mutate_graph(
                    "dyn", insert=[(k % n, (k + 3) % n, 1.0 + k)]
                )
                k += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
                return

    t = threading.Thread(target=writer, daemon=True)
    t.start()
    try:
        with ServeClient(server.host, server.port) as client:
            for _ in range(10):
                Z = client.kernel(model="dyn", x=X, pattern="gcn")
                assert Z.shape == (n, 4)
                assert np.isfinite(Z).all()
    finally:
        stop.set()
        t.join(timeout=30)
    assert not errors
    # Versions advanced monotonically and the final state matches a
    # rebuild of itself bitwise.
    snap = g.snapshot()
    _assert_bitwise(snap.matrix, _rebuild_from(snap.matrix))
    assert snap.version >= 1
