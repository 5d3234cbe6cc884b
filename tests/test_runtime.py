"""Unit tests for the batched kernel runtime (repro.runtime).

Covers the contracts the runtime advertises:

* plan-cache hit/miss/eviction accounting and LRU behaviour,
* content-keyed fingerprints (same matrix content → same plan),
* ``run``/``run_batch``/``submit`` results bitwise equal to sequential
  single-threaded ``fusedmm`` calls,
* thread-count invariance (the determinism invariant of core/parallel.py,
  extended to the runtime's nnz-aware scheduling),
* the streaming epoch API used by the apps.
"""

import numpy as np
import pytest

from repro.core.fused import FusedMM, fusedmm
from repro.core.patterns import get_pattern, list_patterns, register_pattern
from repro.errors import BackendError, ShapeError
from repro.graphs import random_features
from repro.runtime import (
    KernelRequest,
    KernelRuntime,
    matrix_fingerprint,
    pack_requests,
)
from repro.sparse import CSRMatrix, random_csr

from _helpers import kernel_rung, make_xy

PATTERNS = ["sigmoid_embedding", "fr_layout", "gcn", "spmm"]


@pytest.fixture
def small_problem():
    A = random_csr(80, 80, density=0.05, seed=3)
    X, Y = make_xy(A, 12, seed=1)
    return A, X, Y


# ---------------------------------------------------------------------- #
# Fingerprints
# ---------------------------------------------------------------------- #
def test_fingerprint_is_content_keyed():
    A = random_csr(50, 50, density=0.1, seed=0)
    B = CSRMatrix(A.nrows, A.ncols, A.indptr.copy(), A.indices.copy(), A.data.copy())
    assert matrix_fingerprint(A) == matrix_fingerprint(B)


def test_fingerprint_differs_for_different_values():
    A = random_csr(50, 50, density=0.1, seed=0)
    C = CSRMatrix(A.nrows, A.ncols, A.indptr.copy(), A.indices.copy(), A.data * 2.0)
    assert matrix_fingerprint(A) != matrix_fingerprint(C)


def test_fingerprint_memo_survives_repeat_calls():
    A = random_csr(30, 30, density=0.1, seed=1)
    assert matrix_fingerprint(A) == matrix_fingerprint(A)
    assert matrix_fingerprint(A, use_memo=False) == matrix_fingerprint(A)


# ---------------------------------------------------------------------- #
# Plan-cache accounting
# ---------------------------------------------------------------------- #
def test_plan_cache_hit_miss_accounting(small_problem):
    A, X, Y = small_problem
    rt = KernelRuntime(num_threads=1, cache_size=8)
    rt.run(A, X, Y)
    stats = rt.cache_stats()
    assert (stats.hits, stats.misses) == (0, 1)
    rt.run(A, X, Y)
    rt.run(A, X, Y)
    stats = rt.cache_stats()
    assert (stats.hits, stats.misses) == (2, 1)
    assert stats.size == 1
    assert 0.0 < stats.hit_rate < 1.0


def test_plan_cache_content_keyed_across_instances(small_problem):
    """A rebuilt matrix with identical content hits the same plan."""
    A, X, Y = small_problem
    clone = CSRMatrix(A.nrows, A.ncols, A.indptr.copy(), A.indices.copy(), A.data.copy())
    rt = KernelRuntime(num_threads=1)
    Z1 = rt.run(A, X, Y)
    Z2 = rt.run(clone, X, Y)
    assert rt.cache_stats().hits == 1
    assert np.array_equal(Z1, Z2)


def test_plan_cache_keys_include_configuration(small_problem):
    A, X, Y = small_problem
    rt = KernelRuntime(num_threads=1, cache_size=8)
    rt.run(A, X, Y, pattern="sigmoid_embedding")
    rt.run(A, X, Y, pattern="fr_layout")
    rt.run(A, X, Y, pattern="sigmoid_embedding", backend="generic")
    rt.run(A, X, Y, pattern="sigmoid_embedding", block_size=64)
    assert rt.cache_stats().misses == 4
    assert len(rt.cache_stats().as_dict()) >= 5


def test_plan_cache_lru_eviction():
    rt = KernelRuntime(num_threads=1, cache_size=2)
    mats = [random_csr(40, 40, density=0.1, seed=s) for s in range(3)]
    feats = [random_features(40, 8, seed=s) for s in range(3)]
    for A, X in zip(mats, feats):
        rt.run(A, X)
    stats = rt.cache_stats()
    assert stats.misses == 3
    assert stats.evictions == 1
    assert stats.size == 2
    # mats[0] was evicted (LRU) — running it again is a miss …
    rt.run(mats[0], feats[0])
    assert rt.cache_stats().misses == 4
    # … while mats[2] (recently used) is still cached.
    rt.run(mats[2], feats[2])
    assert rt.cache_stats().hits == 1


def test_plan_cache_lru_order_updates_on_hit():
    rt = KernelRuntime(num_threads=1, cache_size=2)
    mats = [random_csr(40, 40, density=0.1, seed=s) for s in range(3)]
    feats = [random_features(40, 8, seed=s) for s in range(3)]
    rt.run(mats[0], feats[0])
    rt.run(mats[1], feats[1])
    rt.run(mats[0], feats[0])  # refresh 0 → 1 becomes LRU
    rt.run(mats[2], feats[2])  # evicts 1
    rt.run(mats[0], feats[0])
    assert rt.cache_stats().hits == 2
    rt.run(mats[1], feats[1])  # was evicted → miss
    assert rt.cache_stats().misses == 4


def test_clear_cache_resets_entries_not_counters(small_problem):
    A, X, Y = small_problem
    rt = KernelRuntime(num_threads=1)
    rt.run(A, X, Y)
    rt.clear_cache()
    assert rt.cache_stats().size == 0
    rt.run(A, X, Y)
    assert rt.cache_stats().misses == 2


# ---------------------------------------------------------------------- #
# Execution correctness
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("pattern", PATTERNS)
def test_run_bitwise_equals_fusedmm(pattern, small_problem):
    A, X, Y = small_problem
    rt = KernelRuntime(num_threads=1)
    ref = fusedmm(A, X, Y, pattern=pattern, num_threads=1)
    assert np.array_equal(rt.run(A, X, Y, pattern=pattern), ref)
    # Cached second call: still identical.
    assert np.array_equal(rt.run(A, X, Y, pattern=pattern), ref)


@pytest.mark.parametrize("rung", ["generic", "optimized", "generated", "auto", "jit"])
def test_run_honours_backend(rung, small_problem):
    """fusedmm ≡ FusedMM ≡ KernelRuntime.run, bitwise, for every registered
    pattern the backend supports (and the same BackendError otherwise)."""
    A, X, Y = small_problem
    rt = KernelRuntime(num_threads=1)
    for name in list_patterns():
        pattern, backend = kernel_rung(name, rung)
        try:
            ref = fusedmm(A, X, Y, pattern=pattern, backend=backend, num_threads=1)
        except BackendError:
            with pytest.raises(BackendError):
                rt.run(A, X, Y, pattern=pattern, backend=backend)
            continue
        Z = rt.run(A, X, Y, pattern=pattern, backend=backend)
        assert np.array_equal(Z, ref), pattern
        Z = FusedMM(A, pattern=pattern, backend=backend)(X, Y)
        assert np.array_equal(Z, ref), pattern


def test_unknown_backend_rejected(small_problem):
    A, X, Y = small_problem
    rt = KernelRuntime(num_threads=1)
    with pytest.raises(BackendError):
        rt.run(A, X, Y, backend="cuda")


def test_plan_reuse_skips_planning(small_problem):
    A, X, Y = small_problem
    rt = KernelRuntime(num_threads=1)
    plan1 = rt.plan(A, pattern="sigmoid_embedding")
    plan2 = rt.plan(A, pattern="sigmoid_embedding")
    assert plan1 is plan2
    assert plan1.describe()["pattern"] == "sigmoid_embedding"


def test_autotuned_plan_cached_once(small_problem):
    A, X, Y = small_problem
    rt = KernelRuntime(num_threads=1, autotune=True, autotune_dim=8)
    p1 = rt.plan(A)
    p2 = rt.plan(A)
    assert p1 is p2
    assert p1.tuning is not None


# ---------------------------------------------------------------------- #
# Batching
# ---------------------------------------------------------------------- #
def _mixed_requests(pattern="sigmoid_embedding", seed0=0):
    """Small (packable), medium (single) and large (split) requests."""
    reqs, refs = [], []
    # 60-node: packable; 400-node: too big a footprint to pack, too small
    # to split (runs as a single); 700-node: split across partitions.
    shapes = [(60, 0.06, 10)] * 6 + [(400, 0.015, 10)] * 2 + [(700, 0.05, 10)]
    for i, (n, dens, d) in enumerate(shapes):
        A = random_csr(n, n, density=dens, seed=seed0 + i)
        X = random_features(n, d, seed=seed0 + i)
        reqs.append(KernelRequest(A, X, pattern=pattern, tag=i))
        refs.append(fusedmm(A, X, X, pattern=pattern, num_threads=1))
    return reqs, refs


@pytest.mark.parametrize("pattern", PATTERNS)
def test_run_batch_bitwise_equals_sequential(pattern):
    reqs, refs = _mixed_requests(pattern)
    rt = KernelRuntime(num_threads=1, split_nnz=4000)
    outs = rt.run_batch(reqs)
    assert len(outs) == len(refs)
    for out, ref in zip(outs, refs):
        assert np.array_equal(out, ref)


def test_run_batch_uses_all_three_schedules():
    reqs, _ = _mixed_requests()
    rt = KernelRuntime(num_threads=1, split_nnz=4000)
    rt.run_batch(reqs)
    stats = rt.stats()
    assert stats["packed_requests"] >= 2
    assert stats["packed_groups"] >= 1
    assert stats["split_jobs"] >= 1
    assert stats["single_jobs"] >= 1
    assert stats["batches"] == 1
    assert stats["requests"] == len(reqs)


def test_run_batch_thread_count_invariance():
    """Same batch, different pool widths → bitwise identical results
    (scheduling depends on the requests, never on the thread count)."""
    reqs, _ = _mixed_requests()
    baseline = KernelRuntime(num_threads=1, split_nnz=4000).run_batch(reqs)
    for nt in (2, 4):
        rt = KernelRuntime(num_threads=nt, split_nnz=4000)
        outs = rt.run_batch(reqs)
        rt.close()
        for a, b in zip(baseline, outs):
            assert np.array_equal(a, b)


def test_run_batch_mixed_patterns_and_dims():
    rt = KernelRuntime(num_threads=1)
    reqs, refs = [], []
    for i, (pattern, d) in enumerate(
        [("sigmoid_embedding", 8), ("gcn", 8), ("sigmoid_embedding", 16), ("fr_layout", 8)]
    ):
        A = random_csr(50, 50, density=0.08, seed=20 + i)
        X = random_features(50, d, seed=i)
        reqs.append(KernelRequest(A, X, pattern=pattern))
        refs.append(fusedmm(A, X, X, pattern=pattern, num_threads=1))
    outs = rt.run_batch(reqs)
    for out, ref in zip(outs, refs):
        assert np.array_equal(out, ref)


def test_run_batch_accepts_dict_requests(small_problem):
    A, X, Y = small_problem
    rt = KernelRuntime(num_threads=1)
    outs = rt.run_batch([{"A": A, "X": X, "Y": Y, "pattern": "gcn"}])
    assert np.array_equal(outs[0], fusedmm(A, X, Y, pattern="gcn", num_threads=1))


def test_run_batch_empty():
    assert KernelRuntime(num_threads=1).run_batch([]) == []


def test_run_batch_rectangular_rejects_missing_y():
    A = random_csr(20, 35, density=0.1, seed=0)
    X = random_features(20, 4, seed=0)
    with pytest.raises(ShapeError):
        KernelRuntime(num_threads=1).run_batch([KernelRequest(A, X)])


def test_run_batch_rejects_request_without_operands():
    A = random_csr(20, 20, density=0.1, seed=0)
    with pytest.raises(ShapeError):
        KernelRuntime(num_threads=1).run_batch([KernelRequest(A, None)])


def test_run_on_splits_large_derived_matrices_deterministically():
    """run_on uses the nnz-aware split policy (shared pool, no per-call
    executors) and stays bitwise equal across pool widths."""
    A = random_csr(600, 600, density=0.05, seed=9)  # ~18k nnz > split_nnz
    X = random_features(600, 8, seed=9)
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    outs = []
    for nt in (1, 3):
        rt = KernelRuntime(num_threads=nt, split_nnz=4000)
        stream = rt.epochs(random_csr(50, 50, density=0.1, seed=1),
                           pattern="sigmoid_embedding")
        outs.append(stream.run_on(A, X, X))
        assert rt.stats()["split_jobs"] >= 1
        rt.close()
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], ref)


def test_pack_requests_block_diagonal_structure():
    reqs = [
        KernelRequest(random_csr(10, 10, density=0.3, seed=s),
                      random_features(10, 4, seed=s)).normalized()
        for s in range(3)
    ]
    packed = pack_requests(reqs)
    assert packed.A.shape == (30, 30)
    assert packed.A.nnz == sum(r.A.nnz for r in reqs)
    assert [p.num_rows for p in packed.parts] == [10, 10, 10]
    # Every edge of request i stays inside request i's column block.
    dense = packed.A.to_dense()
    assert np.allclose(dense[0:10, 10:], 0.0)
    assert np.allclose(dense[10:20, 0:10], 0.0)
    assert np.allclose(dense[10:20, 20:], 0.0)
    assert np.allclose(dense[20:30, 0:20], 0.0)


def test_submit_returns_future_with_correct_result(small_problem):
    A, X, Y = small_problem
    ref = fusedmm(A, X, Y, num_threads=1)
    for nt in (1, 2):
        rt = KernelRuntime(num_threads=nt)
        fut = rt.submit_sharded(A, X, Y)
        assert np.array_equal(fut.result(timeout=30), ref)
        rt.close()
        # After close the call runs in process and the future is done.
        fut = rt.submit_sharded(A, X, Y)
        assert fut.done() and np.array_equal(fut.result(), ref)


# ---------------------------------------------------------------------- #
# Epoch streams
# ---------------------------------------------------------------------- #
def test_epochs_stream_step_and_accounting(small_problem):
    A, X, Y = small_problem
    rt = KernelRuntime(num_threads=1)
    stream = rt.epochs(A, pattern="sigmoid_embedding")
    ref = fusedmm(A, X, Y, pattern="sigmoid_embedding", num_threads=1)
    assert np.array_equal(stream.step(X, Y), ref)
    assert np.array_equal(stream(X, Y), ref)  # __call__ alias
    assert stream.epochs_run == 2
    assert stream.kernel_seconds > 0.0
    info = stream.describe()
    assert info["epochs_run"] == 2
    assert info["pattern"] == "sigmoid_embedding"


def test_epochs_streams_share_cached_plan(small_problem):
    A, X, Y = small_problem
    rt = KernelRuntime(num_threads=1)
    s1 = rt.epochs(A, pattern="gcn")
    s2 = rt.epochs(A, pattern="gcn")
    assert s1.plan is s2.plan
    assert rt.cache_stats().hits == 1


def test_epochs_run_on_minibatch_slices(small_problem):
    """run_on reuses dispatch for derived matrices (the Force2Vec case)."""
    A, X, Y = small_problem
    rt = KernelRuntime(num_threads=1)
    stream = rt.epochs(A, pattern="sigmoid_embedding")
    rows = np.array([3, 7, 11, 20])
    A_batch = A.select_rows(rows)
    Z = stream.run_on(A_batch, X[rows], Y)
    ref = fusedmm(A_batch, X[rows], Y, pattern="sigmoid_embedding", num_threads=1)
    assert np.array_equal(Z, ref)


def test_epochs_run_on_spmm_without_x(small_problem):
    A, _, Y = small_problem
    rt = KernelRuntime(num_threads=1)
    stream = rt.epochs(A, pattern="gcn")
    Z = stream.run_on(A, None, Y)
    assert np.allclose(Z, A.spmm(Y), atol=1e-4)


def test_run_on_non_spmm_requires_x(small_problem):
    A, _, Y = small_problem
    rt = KernelRuntime(num_threads=1)
    stream = rt.epochs(A, pattern="sigmoid_embedding")
    with pytest.raises(BackendError):
        stream.run_on(A, None, Y)


# ---------------------------------------------------------------------- #
# Kept edge-block schedules
# ---------------------------------------------------------------------- #
# ``backend="generated"`` throughout: only the edge-block driver keeps a
# schedule, and ``auto`` may resolve to the jit tier.  ``gcn`` is
# SpMM-shaped: it runs without blocks, so its plan keeps none.
SCHEDULE_PATTERNS = ["sigmoid_embedding", "gcn", "fr_layout", "gnn_mlp"]


@pytest.mark.parametrize("pattern", SCHEDULE_PATTERNS)
@pytest.mark.parametrize("threads", [1, 2])
def test_kept_schedule_replays_bitwise(pattern, threads):
    """A plan's kept schedule gives the bits of a one-call schedule, on
    its first execution and on every replay, over several partitions; an
    SpMM-shaped plan keeps none and gives the same bits every run."""
    A = random_csr(700, 700, density=0.05, seed=4)  # ~24k nnz: 3 partitions
    X = random_features(700, 6, seed=4)
    opts = dict(pattern=pattern, backend="generated", block_size=512)
    ref = fusedmm(A, X, X, num_threads=1, **opts)
    with KernelRuntime(num_threads=threads, split_nnz=9000) as rt:
        plan = rt.plan(A, **opts)
        assert plan.schedule is None  # planning builds no schedule
        Z1 = rt.run(A, X, **opts)
        schedule = plan.schedule
        assert len(plan.partitions) == 3
        if plan.resolved.is_spmm_like:
            assert schedule is None
        else:
            assert list(schedule.parts) == list(plan.partitions)
        Z2 = rt.run(A, X, **opts)
        assert plan.schedule is schedule
    assert np.array_equal(Z1, ref) and np.array_equal(Z2, ref)


def test_schedule_bytes_are_plan_bytes():
    A = random_csr(300, 300, density=0.03, seed=2)
    X = random_features(300, 8, seed=2)
    opts = dict(pattern="sigmoid_embedding", backend="generated")
    with KernelRuntime(num_threads=1) as rt:
        plan = rt.plan(A, **opts)
        fp = plan.key.fingerprint
        assert rt.plan_bytes(fp) == {"plans": 1, "plan_bytes": 0}
        rt.run(A, X, **opts)
        nbytes = plan.schedule.nbytes
        # A summed schedule keeps no per-edge copy: its blocks read the
        # matrix's edge arrays in place, beside one row id per edge and,
        # per block, the rows and bounds of its row segments.
        blocks = [b for part in plan.schedule.blocks for b in part]
        assert all(
            np.shares_memory(b.dst, A.indices) and np.shares_memory(b.vals, A.data)
            for b in blocks
        )
        assert 8 * A.nnz < nbytes <= 8 * A.nnz + 16 * A.nrows + 24 * len(blocks)
        assert rt.plan_bytes(fp) == {"plans": 1, "plan_bytes": nbytes}
        assert rt.cache_stats().retained_bytes == nbytes
        assert rt.release_matrix(fp)["plans"] == 1
        assert rt.plan_bytes(fp) == {"plans": 0, "plan_bytes": 0}
        assert rt.cache_stats().retained_bytes == 0


def test_plan_cache_byte_budget_evicts_plans_with_kept_schedules():
    """The plan LRU bounds the bytes its plans retain, not just the entry
    count: an executed plan weighs its kept schedule, an unexecuted one
    nothing."""
    from repro.runtime import PlanCache

    A = random_csr(300, 300, density=0.03, seed=2)
    X = random_features(300, 8, seed=2)
    opts = dict(pattern="sigmoid_embedding", backend="generated")
    with KernelRuntime(num_threads=1) as rt:
        plan = rt.plan(A, **opts)
        assert plan.retained_bytes() == 0
        rt.run(A, X, **opts)
    weight = plan.retained_bytes()
    assert weight == plan.schedule.nbytes > 0

    cache = PlanCache(capacity=8, byte_budget=weight + 1)
    cache.put("a", plan)
    cache.put("b", plan)  # two executed plans exceed the budget
    stats = cache.stats()
    assert stats.size == 1 and stats.evictions == 1
    assert stats.retained_bytes == weight
    assert "b" in cache and "a" not in cache


def test_concurrent_first_execution_builds_one_schedule(monkeypatch):
    import threading
    import time

    import repro.runtime.plan as plan_module

    builds = []
    build = plan_module.edge_schedule

    def slow_build(*args, **kwargs):
        builds.append(threading.current_thread().name)
        time.sleep(0.05)  # the other thread arrives while this one builds
        return build(*args, **kwargs)

    monkeypatch.setattr(plan_module, "edge_schedule", slow_build)
    A = random_csr(400, 400, density=0.03, seed=6)
    X = random_features(400, 8, seed=6)
    opts = dict(pattern="sigmoid_embedding", backend="generated")
    ref = fusedmm(A, X, X, num_threads=1, **opts)
    results = [None, None]
    with KernelRuntime(num_threads=1) as rt:
        plan = rt.plan(A, **opts)
        barrier = threading.Barrier(2)

        def first_use(i):
            barrier.wait(timeout=10)
            results[i] = rt.run(A, X, **opts)

        threads = [threading.Thread(target=first_use, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert len(builds) == 1 and plan.schedule is not None
        fingerprint = plan.key.fingerprint
        assert rt.plan_bytes(fingerprint)["plan_bytes"] == plan.schedule.nbytes
    for Z in results:
        assert np.array_equal(Z, ref)


def test_run_on_never_reads_the_bound_schedule(monkeypatch):
    """A derived matrix — even a row slice with the bound matrix's shape
    and nnz — runs a one-call schedule of its own."""
    A = random_csr(400, 400, density=0.03, seed=8)
    X = random_features(400, 8, seed=8)
    opts = dict(pattern="sigmoid_embedding", backend="generated")
    with KernelRuntime(num_threads=1, split_nnz=1000) as rt:
        stream = rt.epochs(A, **opts)
        stream.step(X)
        assert stream.plan.schedule is not None

        def refuse(_A):
            raise AssertionError("a derived matrix read the bound schedule")

        monkeypatch.setattr(stream.plan, "bound_schedule", refuse)
        for start, stop in [(0, 150), (150, 400), (0, 400)]:
            A_sub = A.row_slice(start, stop)
            Z = stream.run_on(A_sub, X[start:stop], X)
            ref = fusedmm(A_sub, X[start:stop], X, num_threads=1, **opts)
            assert np.array_equal(Z, ref)


def test_run_batch_runs_registered_graphs_through_their_warm_plans():
    """A request on a planned matrix instance hits its plan (read from the
    fingerprint memo) and keeps a schedule; an inline copy of the same
    content is neither hashed nor looked up."""
    from repro.runtime.fingerprint import memoized_fingerprint

    graphs = [random_csr(256, 256, density=8 / 256, seed=s) for s in range(3)]
    feats = [random_features(256, 16, seed=s) for s in range(3)]
    opts = dict(pattern="sigmoid_embedding", backend="generated")
    with KernelRuntime(num_threads=1) as rt:
        plans = [rt.plan(A, **opts) for A in graphs]
        inline = graphs[0].copy()
        reqs = [KernelRequest(A, X, **opts) for A, X in zip(graphs, feats)]
        reqs.append(KernelRequest(inline, feats[0], **opts))
        for _ in range(2):
            outs = rt.run_batch(reqs)
            for out, A, X in zip(outs, graphs + [inline], feats + [feats[0]]):
                assert np.array_equal(out, fusedmm(A, X, X, num_threads=1, **opts))
        stats = rt.cache_stats()
        assert (stats.hits, stats.misses) == (2 * len(graphs), len(graphs))
        assert all(p.schedule is not None for p in plans)
        assert memoized_fingerprint(inline) is None


def test_run_batch_follows_a_re_registered_pattern_name():
    """The config cache keys on the registered pattern object, so a name
    registered again with ``overwrite=True`` runs its new pattern."""
    A = random_csr(256, 256, density=8 / 256, seed=4)
    X = random_features(256, 16, seed=4)
    name = "rebind_test_pattern"
    with KernelRuntime(num_threads=1) as rt:
        outs = []
        for base in ("sigmoid_embedding", "gcn", "sigmoid_embedding"):
            register_pattern(get_pattern(base).with_ops(name=name), overwrite=True)
            (Z,) = rt.run_batch([KernelRequest(A, X, pattern=name)])
            assert np.array_equal(Z, fusedmm(A, X, X, pattern=base, num_threads=1))
            outs.append(Z)
        assert not np.array_equal(outs[0], outs[1])


# ---------------------------------------------------------------------- #
# Runtime lifecycle / misc
# ---------------------------------------------------------------------- #
def test_context_manager_closes_pool(small_problem):
    A, X, Y = small_problem
    with KernelRuntime(num_threads=2) as rt:
        rt.run(A, X, Y)
        assert rt.pool is None or rt.stats()["num_threads"] == 2
    assert rt.pool is None  # closed runtimes stay usable sequentially
    rt.run(A, X, Y)


def test_stats_shape(small_problem):
    A, X, Y = small_problem
    rt = KernelRuntime(num_threads=1)
    rt.run(A, X, Y)
    stats = rt.stats()
    for key in ("plan_cache", "requests", "batches", "num_threads"):
        assert key in stats
