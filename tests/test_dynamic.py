"""Dynamic graphs: one spliced CSR per version, incremental invalidation,
serving.

The contract under test: every version's CSR, spliced from its
predecessor's rows, is **bitwise identical** to a CSR freshly rebuilt
from the same edge set, and so is every kernel result on it — at every
version, across local and remote execution.  Invalidation is
incremental: cached plans are refreshed (not dropped), and the remote
tier re-ships only the batch's rows.
"""

from __future__ import annotations

import gc
import threading
import weakref
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
from repro.sparse import CSRMatrix
from repro.runtime.codec import splice_csr_delta
from repro.sparse.delta import DeltaCSR, splice_rows

settings.register_profile("repro-dynamic", deadline=None, max_examples=40)
settings.load_profile("repro-dynamic")

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def _rebuild(model: dict, n: int) -> CSRMatrix:
    """A fresh canonical CSR from a ``{(u, v): w}`` edge dict (through
    :meth:`CSRMatrix.from_coo`)."""
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


# ---------------------------------------------------------------------- #
# Property: every version of any interleaving of inserts / deletes is
# bitwise equal to a full rebuild of the same edge set.
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
            ),
            min_size=1,
            max_size=8,
        )
    )
    return n, base, batches


@given(_mutation_script())
def test_overlay_bitwise_equals_rebuild_any_interleaving(script):
    """Each version is one CSR spliced from its predecessor (a fresh
    instance, even for an empty batch) and equals ``from_coo`` of its
    edge set byte for byte."""
    n, base_edges, batches = script
    model = dict(base_edges)
    g = DynamicGraph(_rebuild(model, n), lineage="lin")
    for version, (inserts, deletes) in enumerate(batches, start=1):
        prev = g.matrix
        g.apply_edges(insert=inserts or None, delete=deletes or None)
        _apply_ref(model, inserts, deletes)
        assert g.version == version
        assert g.fingerprint == f"lin@v{version}"
        assert g.matrix is not prev
        ref = _rebuild(model, n)
        _assert_bitwise(g.matrix, ref)
        assert g.nnz == ref.nnz


def test_overlay_upsert_and_ignored_delete_semantics():
    base = _rebuild({(0, 1): 1.0, (1, 0): 1.0}, 4)
    delta = DeltaCSR(base, "lin")
    # Upsert an existing edge, insert a new one, delete a missing one.
    delta, batch = delta.apply(
        insert=[(0, 1, 5.0), (2, 3, 2.0)], delete=[(3, 3)]
    )
    assert batch.inserted == 1
    assert batch.updated == 1
    assert batch.deleted == 0
    assert batch.ignored_deletes == 1
    assert batch.touched_rows.tolist() == [0, 2, 3]
    cols, vals = delta.materialize().row(0)
    assert cols.tolist() == [1] and vals.tolist() == [5.0]
    # Duplicate inserts within one batch: last occurrence wins.
    delta, _ = delta.apply(insert=[(0, 2, 1.0), (0, 2, 9.0)])
    cols, vals = delta.materialize().row(0)
    assert vals[cols.tolist().index(2)] == np.float32(9.0)


def test_overlay_rejects_out_of_range_edges():
    delta = DeltaCSR(_rebuild({(0, 1): 1.0}, 3), "lin")
    with pytest.raises(ShapeError):
        delta.apply(insert=[(0, 3, 1.0)])
    with pytest.raises(ShapeError):
        delta.apply(delete=[(-1, 0)])


@pytest.mark.parametrize("with_runtime", [False, True])
def test_a_version_does_not_keep_its_predecessor_alive(with_runtime):
    """A version holds its own CSR only: once no reader pins the previous
    version's matrix, nothing else does either (refreshed plans included)."""
    rt = KernelRuntime(num_threads=1, cache_size=16) if with_runtime else None
    try:
        g = DynamicGraph(rmat(400, 3000, seed=23), runtime=rt)
        if rt is not None:
            rt.run(g.matrix, random_features(400, 4, seed=2))  # a warm plan
        first = weakref.ref(g.matrix)
        g.apply_edges(insert=[(0, 2, 1.0), (2, 0, 1.0)])
        gc.collect()
        assert first() is None
        held = g.snapshot()  # a reader pins version 1 ...
        second = weakref.ref(held.matrix)
        g.apply_edges(delete=[(0, 2)])
        gc.collect()
        assert second() is held.matrix
        del held  # ... and lets go
        gc.collect()
        assert second() is None
    finally:
        if rt is not None:
            rt.close()


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
# Plan refresh: cached plans are rebound to the new version
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
        g = DynamicGraph(A, runtime=rt)
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
# Eviction cascade: no superseded-version leaks
# ---------------------------------------------------------------------- #
def test_superseded_version_leaves_plan_cache_and_refreshes_natural_plan(medium):
    A, X = medium
    opts = dict(pattern="sigmoid_embedding", backend="generated")
    with KernelRuntime(num_threads=1, split_nnz=4000, cache_size=16) as rt:
        g = DynamicGraph(A, runtime=rt)
        v0 = g.fingerprint
        natural = rt.plan(g.matrix, **opts)
        rt.run(g.matrix, X, **opts)
        assert rt.plan_bytes(v0)["plan_bytes"] > 0  # the kept schedule
        result = g.apply_edges(insert=[(0, 7, 1.0), (7, 0, 1.0)])
        # The old version's plan — and the schedule it owns — is gone;
        # the new version holds exactly the refreshed plan, unexecuted.
        assert result.plans_refreshed == 1
        assert rt._cache.entries_for(v0) == ()
        assert rt.plan_bytes(v0) == {"plans": 0, "plan_bytes": 0}
        ((key, plan),) = rt._cache.entries_for(g.fingerprint)
        assert key == replace(natural.key, fingerprint=g.fingerprint)
        assert plan.schedule is None and plan.nnz == g.nnz
        assert rt.plan_bytes(g.fingerprint) == {"plans": 1, "plan_bytes": 0}


def test_close_releases_whole_lineage(medium):
    A, X = medium
    with KernelRuntime(num_threads=1, split_nnz=4000, cache_size=16) as rt:
        g = DynamicGraph(A, runtime=rt)
        lineage = g.lineage
        rt.plan(g.matrix, pattern="sigmoid_embedding", backend="generated")
        g.apply_edges(insert=[(0, 9, 1.0), (9, 0, 1.0)])
        rt.run(g.matrix, X, pattern="fr_layout", backend="generated")
        assert rt.plan_bytes(lineage)["plan_bytes"] > 0
        released = g.close()
        assert released["plans"] == 2  # the refreshed and the fresh plan
        assert rt._cache.entries_for(lineage) == ()
        assert rt.plan_bytes(lineage) == {"plans": 0, "plan_bytes": 0}
        assert set(released) == {"plans", "remote_matrices"}
        assert g.close() == {}  # idempotent


def test_fingerprint_covers_versions():
    assert fingerprint_covers("abc", "abc")
    assert fingerprint_covers("abc", "abc@v3")
    assert not fingerprint_covers("abc@v1", "abc@v10")
    assert not fingerprint_covers("abc", "abcdef")


# ---------------------------------------------------------------------- #
# Memory accounting
# ---------------------------------------------------------------------- #
def test_memory_accounting_tracks_every_tier(medium):
    A, X = medium
    with KernelRuntime(num_threads=1, split_nnz=4000, cache_size=16) as rt:
        g = DynamicGraph(A, runtime=rt)
        rt.plan(g.matrix, pattern="sigmoid_embedding", backend="generated")
        g.apply_edges(insert=[(0, 11, 1.0), (11, 0, 1.0)])
        rt.run(g.matrix, X, pattern="fr_layout", backend="generated")
        mem = g.memory()
        for key in (
            "fingerprint", "version", "nnz", "base_bytes", "delta_bytes",
            "plans", "plan_bytes", "total_bytes",
        ):
            assert key in mem, key
        assert mem["version"] == 1
        assert mem["base_bytes"] == g.matrix.memory_bytes()
        # The two rewritten rows, 8-byte indices and float32 values.
        spliced = int(np.diff(g.matrix.indptr)[[0, 11]].sum())
        assert mem["delta_bytes"] == 12 * spliced
        assert mem["plans"] == 2
        assert mem["plan_bytes"] > 0  # the fresh plan's kept schedule
        assert mem["total_bytes"] == mem["base_bytes"] + mem["plan_bytes"]
        stats = g.stats()
        assert stats["mutations"] == 1
        assert stats["edges_inserted"] + stats["edges_updated"] == 2


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


def test_registered_delta_splices_onto_previous_version(medium):
    """The delta source a write registers is the batch's rows, and the
    agent-side splice of it onto version N-1 is version N, byte for
    byte."""
    A, _ = medium
    runtime = KernelRuntime(num_threads=1, processes=0, remote_port=0)
    try:
        g = DynamicGraph(A, runtime=runtime)
        for step in range(3):
            prev = g.snapshot()
            u = 100 * step
            v = int(prev.matrix.indices[prev.matrix.indptr[u]])
            result = g.apply_edges(
                insert=[(u, 7, 2.0), (u + 1, 9, 0.5)], delete=[(u, v)]
            )
            assert result.delta_sources == 1
            base_key, meta, arrays = runtime.controller._delta_sources[g.fingerprint]
            assert base_key == meta["base_key"] == prev.fingerprint
            assert arrays["rows"].tolist() == [u, u + 1]
            _assert_bitwise(splice_csr_delta(prev.matrix, arrays), g.matrix)
    finally:
        runtime.close()


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
