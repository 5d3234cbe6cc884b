"""Tests for the locality tier: vertex reordering.

The contracts under test:

* **True permutations** — every strategy returns a bijection on the
  vertices (hypothesis property test over random graphs), and the
  permuted matrix is exactly ``A[perm][:, perm]``, each row in its source
  row's edge order.
* **Equivalence** — permute → execute → inverse-permute matches direct
  execution across patterns × backends × shard counts; on the edge-block
  driver it is bitwise natural order, since a permuted row sums the same
  messages in the same order.
* **One permuted matrix on every path** — a reordered result is bitwise
  identical across thread counts, shard counts and the in-process/sharded
  split, because every path runs the plan's partitions of its permuted
  matrix through the one edge-block driver and its kept schedule.
* **``reorder="none"`` stays bitwise identical** to the natural-order
  path — the locality tier must not perturb the repo's existing
  guarantees, in process or through 1/2/4 worker shards.
* **Plan-cache integration** — the reorder strategy is part of the plan
  key, the plan owns its permutation (the plan cache is its only cache),
  and ``"auto"`` records a measured sweep on the plan.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.fused import fusedmm
from repro.errors import BackendError, ShapeError
from repro.graphs import random_features, rmat
from repro.runtime import KernelRuntime
from repro.runtime import plan as plan_module
from repro.sparse import (
    REORDER_STRATEGIES,
    random_csr,
    reorder_matrix,
    reorder_permutation,
)

from _helpers import kernel_rung, make_xy

PATTERNS = ["sigmoid_embedding", "fr_layout", "gcn"]
CONCRETE = [s for s in REORDER_STRATEGIES if s != "none"]


@pytest.fixture(scope="module")
def graph():
    """A power-law graph big enough for plan splits."""
    A = rmat(1500, 24_000, seed=11)
    X = random_features(A.nrows, 12, seed=3)
    return A, X


# ---------------------------------------------------------------------- #
# Permutation correctness
# ---------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    density=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=10_000),
    strategy=st.sampled_from(REORDER_STRATEGIES),
)
def test_every_strategy_returns_a_true_permutation(n, density, seed, strategy):
    A = random_csr(n, n, density=density, seed=seed)
    perm = reorder_permutation(A, strategy)
    assert perm.shape == (n,)
    assert np.array_equal(np.sort(perm), np.arange(n))


@pytest.mark.parametrize("strategy", REORDER_STRATEGIES)
def test_permuted_matrix_is_symmetric_permutation(graph, strategy):
    A, _ = graph
    result = reorder_matrix(A, strategy)
    assert np.array_equal(result.perm[result.inv_perm], np.arange(A.nrows))
    # A_p[i, j] == A[perm[i], perm[j]] — checked densely on a row sample.
    dense = A.to_dense()
    dense_p = result.matrix.to_dense()
    rows = np.arange(0, A.nrows, 97)
    assert np.allclose(
        dense_p[np.ix_(rows, rows)],
        dense[np.ix_(result.perm[rows], result.perm[rows])],
    )
    # Each permuted row keeps its source row's edge order (columns renamed,
    # not re-sorted).
    source = A.select_rows(result.perm)
    assert np.array_equal(result.matrix.indptr, source.indptr)
    assert np.array_equal(result.perm[result.matrix.indices], source.indices)
    assert np.array_equal(result.matrix.data, source.data)
    assert result.matrix.nnz == A.nnz


def test_reorder_requires_square_matrix():
    A = random_csr(20, 30, density=0.2, seed=0)
    with pytest.raises(ShapeError):
        reorder_permutation(A, "degree")
    # Unknown strategies and "auto" share the validate_reorder error shape
    # ("auto" is resolved by the plan builder, not here).
    B = random_csr(10, 10, density=0.2, seed=0)
    with pytest.raises(BackendError):
        reorder_permutation(B, "bogus")
    with pytest.raises(BackendError):
        reorder_permutation(B, "auto")


# ---------------------------------------------------------------------- #
# Allclose equivalence: permute → execute → inverse-permute
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("strategy", CONCRETE)
def test_reordered_run_allclose_across_patterns(graph, pattern, strategy):
    A, X = graph
    ref = fusedmm(A, X, X, pattern=pattern, num_threads=1)
    rt = KernelRuntime(num_threads=1)
    Z = rt.run(A, X, pattern=pattern, reorder=strategy)
    assert Z.shape == ref.shape and Z.dtype == ref.dtype
    np.testing.assert_allclose(Z, ref, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("rung", ["optimized", "generated", "jit"])
def test_reordered_run_allclose_across_backends(graph, rung):
    A, X = graph
    pattern, backend = kernel_rung("sigmoid_embedding", rung)
    ref = fusedmm(A, X, X, pattern=pattern, backend=backend)
    rt = KernelRuntime(num_threads=1)
    Z = rt.run(A, X, pattern=pattern, backend=backend, reorder="degree")
    np.testing.assert_allclose(Z, ref, rtol=1e-4, atol=1e-5)


def test_reordered_exact_at_float64(graph):
    A, X = graph
    X64 = X.astype(np.float64)
    ref = fusedmm(A, X64, X64, pattern="sigmoid_embedding", num_threads=1)
    rt = KernelRuntime(num_threads=1)
    for strategy in CONCRETE:
        Z = rt.run(A, X64, pattern="sigmoid_embedding", reorder=strategy)
        np.testing.assert_allclose(Z, ref, rtol=1e-9, atol=1e-12)


def test_reordered_spmm_and_derived_matrices(graph):
    A, X = graph
    rt = KernelRuntime(num_threads=1)
    stream = rt.epochs(A, pattern="gcn", reorder="degree")
    ref = fusedmm(A, X, X, pattern="gcn", num_threads=1)
    np.testing.assert_allclose(stream.step(None, X), ref, rtol=1e-4, atol=1e-5)
    # Derived matrices (minibatch slices) bypass the reorder tier and stay
    # bitwise identical to the direct kernel.
    sub = A.row_slice(100, 400)
    Zsub = stream.run_on(sub, None, X)
    ref_sub = fusedmm(sub, X[100:400], X, pattern="gcn", num_threads=1)
    assert np.array_equal(Zsub, ref_sub)


def test_reordered_thread_count_invariant(graph):
    A, X = graph
    rt1 = KernelRuntime(num_threads=1)
    rt4 = KernelRuntime(num_threads=4)
    try:
        Z1 = rt1.run(A, X, pattern="sigmoid_embedding", reorder="rcm")
        Z4 = rt4.run(A, X, pattern="sigmoid_embedding", reorder="rcm")
        # Partitions are fixed at plan build, so the fan-out width cannot
        # change the arithmetic: bitwise equal across thread counts.
        assert np.array_equal(Z1, Z4)
    finally:
        rt4.close()


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_reordered_sharded_allclose(graph, shards):
    A, X = graph
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    rt = KernelRuntime(num_threads=1, processes=shards)
    try:
        Z = rt.run_sharded(A, X, pattern="sigmoid_embedding", reorder="degree")
        np.testing.assert_allclose(Z, ref, rtol=1e-4, atol=1e-5)
        fut = rt.submit_sharded(A, X, pattern="sigmoid_embedding", reorder="degree")
        np.testing.assert_allclose(fut.result(), ref, rtol=1e-4, atol=1e-5)
    finally:
        rt.close()


def test_reordered_sharded_bitwise_across_shard_counts(graph):
    """Within the sharded tier the reordered result is itself
    deterministic: every shard count executes the same permuted
    partitions on the absolute edge grid."""
    A, X = graph
    results = []
    for shards in (1, 2, 4):
        rt = KernelRuntime(num_threads=1, processes=shards)
        try:
            results.append(
                rt.run_sharded(A, X, pattern="sigmoid_embedding", reorder="hub")
            )
        finally:
            rt.close()
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


# ---------------------------------------------------------------------- #
# One permuted matrix, every path
# ---------------------------------------------------------------------- #
#: Small enough that the hypothesis graphs split into several partitions,
#: so thread and shard counts actually change who runs which rows.
PATH_SPLIT_NNZ = 64


@pytest.fixture(scope="module")
def path_runtimes():
    """In-process runtimes on 1/2/4 threads and sharded ones on 1/2/4
    worker processes, all with one split threshold (partitions are part
    of the plan, so they must agree for results to)."""
    threaded = {
        t: KernelRuntime(num_threads=t, split_nnz=PATH_SPLIT_NNZ) for t in (1, 2, 4)
    }
    sharded = {
        s: KernelRuntime(num_threads=1, processes=s, split_nnz=PATH_SPLIT_NNZ)
        for s in (1, 2, 4)
    }
    try:
        yield threaded, sharded
    finally:
        for rt in (*threaded.values(), *sharded.values()):
            rt.close()


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=120),
    density=st.floats(min_value=0.05, max_value=0.4),
    seed=st.integers(min_value=0, max_value=1_000),
    strategy=st.sampled_from(CONCRETE),
    pattern=st.sampled_from(PATTERNS),
)
def test_property_reordered_bitwise_across_threads_shards_and_paths(
    path_runtimes, n, density, seed, strategy, pattern
):
    """``run`` on 1/2/4 threads, ``run_sharded`` and ``submit_sharded`` on
    1/2/4 shards give one result, byte for byte, at block sizes that cut
    rows (64) or not (8192), on the generated kernel and on its all-calls
    form (the ``optimized`` rung, whose operators do not pickle, so its
    sharded calls run in process); that result is natural order's, byte
    for byte.  The jit rung is left out (interpreted without numba); the
    generic backend never reorders."""
    A = random_csr(n, n, density=density, seed=seed)
    assume(A.nnz > 0)
    X, Y = make_xy(A, 8, seed=seed)
    threaded, sharded = path_runtimes
    for rung in ("optimized", "generated"):
        pat, backend = kernel_rung(pattern, rung)
        for block_size in (64, 8192):
            opts = dict(
                pattern=pat, backend=backend, block_size=block_size, reorder=strategy
            )
            assert threaded[1].plan(A, **opts).reorder == strategy
            ref = threaded[1].run(A, X, Y, **opts)
            for rt in threaded.values():
                assert np.array_equal(rt.run(A, X, Y, **opts), ref)
            for rt in sharded.values():
                assert np.array_equal(rt.run_sharded(A, X, Y, **opts), ref)
                fut = rt.submit_sharded(A, X, Y, **opts)
                assert np.array_equal(fut.result(), ref)
            natural = fusedmm(A, X, Y, pattern=pat, backend=backend, num_threads=1)
            assert np.array_equal(ref, natural)
    assert all(rt.stats()["sharded_jobs"] > 0 for rt in sharded.values())


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("block_size", [64, 8192])
@pytest.mark.parametrize("strategy", CONCRETE)
def test_reordered_generated_is_natural_order_bit_for_bit(strategy, block_size, threads):
    """On a power-law graph with hub rows far longer than a block, each
    strategy's reordered ``generated`` result equals natural order byte
    for byte: a permuted row keeps its source edge order, and the driver
    sums a row the same way wherever it sits."""
    A = rmat(3000, 40_000, seed=5)
    X = random_features(A.nrows, 16, seed=5)
    opts = dict(backend="generated", block_size=block_size)
    with KernelRuntime(num_threads=threads, split_nnz=8000) as rt:
        for pattern in PATTERNS:
            natural = fusedmm(A, X, X, pattern=pattern, num_threads=1, **opts)
            Z = rt.run(A, X, pattern=pattern, reorder=strategy, **opts)
            assert rt.plan(A, pattern=pattern, reorder=strategy, **opts).reorder == strategy
            assert np.array_equal(Z, natural)


def test_reordered_plan_keeps_one_schedule_of_the_permuted_matrix(graph, monkeypatch):
    """The first bound-matrix run builds the reordered plan's edge-block
    schedule over ``plan.reordered`` and its partitions; later runs replay
    it, and its bytes count in ``retained()``, the cache weight and
    ``plan_bytes``."""
    A, X = graph
    built = []
    edge_schedule = plan_module.edge_schedule

    def counting_schedule(M, parts, **kw):
        built.append((M, parts))
        return edge_schedule(M, parts, **kw)

    monkeypatch.setattr(plan_module, "edge_schedule", counting_schedule)
    opts = dict(pattern="sigmoid_embedding", backend="generated", reorder="rcm")
    with KernelRuntime(num_threads=2, split_nnz=4000) as rt:
        plan = rt.plan(A, **opts)
        assert len(plan.partitions) > 1 and plan.schedule is None
        before = plan.retained()
        Z = rt.run(A, X, **opts)
        for _ in range(2):
            assert np.array_equal(rt.run(A, X, **opts), Z)
        assert len(built) == 1
        M, parts = built[0]
        assert M is plan.reordered and parts is plan.partitions
        schedule = plan.schedule
        assert schedule is not None
        assert (schedule.shape, schedule.nnz) == (M.shape, M.nnz)
        assert all(
            np.shares_memory(b.dst, M.indices)
            for blocks in schedule.blocks
            for b in blocks
        )
        assert plan.retained() == {**before, id(schedule): schedule.nbytes}
        assert rt.cache_stats().retained_bytes == plan.retained_bytes()
        lineage = rt.plan_bytes(plan.key.fingerprint)
        assert lineage["plan_bytes"] == plan.retained_bytes()


# ---------------------------------------------------------------------- #
# reorder="none" keeps the bitwise guarantees
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("rung", ["auto", "optimized", "generated", "jit"])
def test_none_is_bitwise_identical_per_backend(graph, rung):
    A, X = graph
    pattern, backend = kernel_rung("sigmoid_embedding", rung)
    ref = fusedmm(A, X, X, pattern=pattern, backend=backend)
    rt = KernelRuntime(num_threads=1)
    Z = rt.run(A, X, pattern=pattern, backend=backend, reorder="none")
    assert np.array_equal(Z, ref)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_none_is_bitwise_identical_through_shards(graph, shards):
    A, X = graph
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    rt = KernelRuntime(num_threads=1, processes=shards)
    try:
        Z = rt.run_sharded(A, X, pattern="sigmoid_embedding", reorder="none")
        assert np.array_equal(Z, ref)
    finally:
        rt.close()


def test_default_reorder_is_none(graph):
    A, X = graph
    rt = KernelRuntime(num_threads=1)
    plan = rt.plan(A, pattern="sigmoid_embedding")
    assert plan.key.reorder == "none"
    assert plan.reorder == "none"
    assert plan.reordered is None


# ---------------------------------------------------------------------- #
# Plan-cache and autotune integration
# ---------------------------------------------------------------------- #
def test_reorder_is_a_plan_cache_dimension(graph):
    A, X = graph
    rt = KernelRuntime(num_threads=1)
    p_none = rt.plan(A, pattern="sigmoid_embedding", reorder="none")
    p_deg = rt.plan(A, pattern="sigmoid_embedding", reorder="degree")
    assert p_none is not p_deg
    assert p_none.key != p_deg.key
    assert rt.plan(A, pattern="sigmoid_embedding", reorder="degree") is p_deg
    info = p_deg.describe()
    assert info["reorder"] == "degree"
    assert info["partitions"] == len(p_deg.partitions) > 0
    assert "panels" not in info


def test_runtime_default_reorder_applies_to_plans(graph):
    A, X = graph
    rt = KernelRuntime(num_threads=1, reorder="degree")
    assert rt.plan(A, pattern="sigmoid_embedding").reorder == "degree"
    assert rt.stats()["reorder"] == "degree"
    # Per-call override wins over the runtime default.
    assert rt.plan(A, pattern="sigmoid_embedding", reorder="none").reorder == "none"


def test_run_batch_stays_bitwise_under_reorder_default(graph):
    """Batch requests are one-shot: the locality tier is pinned off so
    run_batch keeps its bitwise-identity promise even when the runtime
    has a reorder default."""
    A, X = graph
    rt = KernelRuntime(num_threads=1, reorder="degree")
    (Z,) = rt.run_batch([{"A": A, "X": X, "pattern": "sigmoid_embedding"}])
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    assert np.array_equal(Z, ref)


def test_auto_reorder_records_a_measured_sweep(graph):
    A, X = graph
    rt = KernelRuntime(num_threads=1)
    plan = rt.plan(A, pattern="sigmoid_embedding", reorder="auto")
    sweep = plan.reorder_tuning
    assert sweep is not None
    assert set(sweep.trials) == set(REORDER_STRATEGIES)
    assert plan.reorder == sweep.strategy
    assert all(t >= 0.0 for t in sweep.trials.values())
    Z = rt.run(A, X, pattern="sigmoid_embedding", reorder="auto")
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    np.testing.assert_allclose(Z, ref, rtol=1e-4, atol=1e-5)


def test_auto_sweep_is_cached_and_losers_not_memoised(graph):
    """The measured verdict lives on the plan: a second ``plan()`` call in
    the same runtime is a plan-cache hit (no re-sweep), and the plan holds
    exactly the winner's permutation, named by its tag."""
    A, _ = graph
    rt = KernelRuntime(num_threads=1)
    p1 = rt.plan(A, pattern="fr_layout", reorder="auto")
    misses = rt.cache_stats().misses
    p2 = rt.plan(A, pattern="fr_layout", reorder="auto")
    assert p2 is p1
    assert rt.cache_stats().misses == misses
    assert p2.reorder_tuning is p1.reorder_tuning
    assert p1.reorder == p1.reorder_tuning.strategy
    if p1.reorder == "none":
        assert p1.reordered is None and p1.reorder_tag is None
    else:
        # The winner's trial moved into the plan: its permutation is the
        # strategy's, and the tag names exactly that permutation.
        fresh = reorder_matrix(A, p1.reorder)
        assert np.array_equal(p1.perm, fresh.perm)
        assert p1.reorder_tag.startswith(f"reorder={p1.reorder}:")
        pinned = rt.plan(A, pattern="fr_layout", reorder=p1.reorder)
        assert pinned.reorder_tag == p1.reorder_tag


def test_plan_cache_byte_budget_evicts_heavy_reordered_plans(graph):
    """Reordered plans pin ~2x their adjacency; the plan LRU bounds the
    total retained bytes, not just the entry count."""
    from repro.runtime import PlanCache

    A, _ = graph
    rt = KernelRuntime(num_threads=1)
    plan = rt.plan(A, pattern="sigmoid_embedding", reorder="degree")
    weight = plan.retained_bytes()
    assert weight > A.memory_bytes()  # permuted copy + permutation
    assert rt.plan(A, pattern="sigmoid_embedding").retained_bytes() == 0

    cache = PlanCache(capacity=8, byte_budget=weight + 1)
    cache.put("a", plan)
    cache.put("b", plan)  # two heavy plans exceed the budget
    stats = cache.stats()
    assert stats.size == 1 and stats.evictions == 1
    assert stats.retained_bytes <= weight + 1
    assert "b" in cache and "a" not in cache


def test_invalid_reorder_rejected(graph):
    A, _ = graph
    rt = KernelRuntime(num_threads=1)
    with pytest.raises(BackendError):
        rt.plan(A, pattern="sigmoid_embedding", reorder="sideways")
    with pytest.raises(BackendError):
        KernelRuntime(reorder="sideways")


def test_reorder_falls_back_for_ineligible_matrices():
    rt = KernelRuntime(num_threads=1)
    # Rectangular: silently "none" (the knob is a performance hint).
    A = random_csr(40, 60, density=0.1, seed=2)
    X = random_features(40, 8, seed=0)
    Y = random_features(60, 8, seed=1)
    plan = rt.plan(A, pattern="sigmoid_embedding", reorder="degree")
    assert plan.reorder == "none"
    assert np.array_equal(
        rt.run(A, X, Y, pattern="sigmoid_embedding", reorder="degree"),
        fusedmm(A, X, Y, pattern="sigmoid_embedding", num_threads=1),
    )
    # Generic backend keeps reference semantics.
    B = random_csr(30, 30, density=0.2, seed=3)
    plan = rt.plan(B, pattern="sigmoid_embedding", backend="generic", reorder="rcm")
    assert plan.reorder == "none"


# ---------------------------------------------------------------------- #
# App plumbing
# ---------------------------------------------------------------------- #
def test_apps_take_reorder_in_configs():
    from repro.apps import Force2Vec, Force2VecConfig
    from repro.apps.fr_layout import FRLayoutConfig
    from repro.apps.gcn import GCNConfig
    from repro.apps.verse import VerseConfig
    from repro.graphs.graph import Graph

    for cfg_cls in (Force2VecConfig, VerseConfig, GCNConfig, FRLayoutConfig):
        with pytest.raises(BackendError):
            cfg_cls(reorder="bogus")
        assert cfg_cls(reorder="degree").reorder == "degree"

    g = Graph(rmat(300, 3_000, seed=1), name="tiny")
    model = Force2Vec(g, Force2VecConfig(dim=8, epochs=1, reorder="degree", seed=0))
    model.train()
    assert model._stream.plan.key.reorder == "degree"
    stats = model.runtime_stats()
    assert stats["reorder"] == "none"  # runtime default; plans override per call
    assert "hit_rate" in stats["plan_cache"]


# ---------------------------------------------------------------------- #
# Hypothesis: end-to-end equivalence over random problems
# ---------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=80),
    density=st.floats(min_value=0.02, max_value=0.4),
    seed=st.integers(min_value=0, max_value=1_000),
    strategy=st.sampled_from(CONCRETE),
    pattern=st.sampled_from(PATTERNS),
)
def test_property_reordered_matches_direct(n, density, seed, strategy, pattern):
    A = random_csr(n, n, density=density, seed=seed)
    X, Y = make_xy(A, 6, seed=seed)
    ref = fusedmm(A, X, Y, pattern=pattern, num_threads=1)
    rt = KernelRuntime(num_threads=1)
    Z = rt.run(A, X, Y, pattern=pattern, reorder=strategy)
    np.testing.assert_allclose(Z, ref, rtol=1e-4, atol=1e-5)
