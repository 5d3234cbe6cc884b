"""Tests for the locality tier: vertex reordering + cache-blocked execution.

The contracts under test:

* **True permutations** — every strategy returns a bijection on the
  vertices (hypothesis property test over random graphs), and the
  permuted matrix is exactly ``A[perm][:, perm]`` in canonical CSR form.
* **Allclose equivalence** — permute → execute → inverse-permute matches
  direct execution across patterns × backends × shard counts; exact at
  float64 up to reassociation (tight tolerance), loose float32 tolerance
  otherwise.
* **``reorder="none"`` stays bitwise identical** to the natural-order
  path — the locality tier must not perturb the repo's existing
  guarantees, in process or through 1/2/4 worker shards.
* **Plan-cache integration** — the reorder strategy is part of the plan
  key, permutations are memoised by fingerprint, and ``"auto"`` records a
  measured sweep.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fused import fusedmm
from repro.errors import BackendError, ShapeError
from repro.graphs import random_features, rmat
from repro.runtime import KernelRuntime
from repro.sparse import (
    REORDER_STRATEGIES,
    build_panels,
    cache_block_partitions,
    clear_reorder_memo,
    random_csr,
    reorder_matrix,
    reorder_memo_info,
    reorder_permutation,
)

from _helpers import make_xy

PATTERNS = ["sigmoid_embedding", "fr_layout", "gcn"]
CONCRETE = [s for s in REORDER_STRATEGIES if s != "none"]


@pytest.fixture(scope="module")
def graph():
    """A power-law graph big enough for multiple panels and plan splits."""
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
    assert result.matrix.has_sorted_indices()
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


def test_reorder_memo_is_keyed_by_fingerprint():
    clear_reorder_memo()
    A = random_csr(40, 40, density=0.2, seed=1)
    r1 = reorder_matrix(A, "degree", memo_key="fp-1")
    r2 = reorder_matrix(A, "degree", memo_key="fp-1")
    assert r1 is r2
    assert reorder_memo_info()["memoized"] == 1
    r3 = reorder_matrix(A, "rcm", memo_key="fp-1")
    assert r3 is not r1
    clear_reorder_memo()
    assert reorder_memo_info()["memoized"] == 0


# ---------------------------------------------------------------------- #
# Cache-blocked panels
# ---------------------------------------------------------------------- #
def test_cache_block_partitions_cover_all_rows(graph):
    A, _ = graph
    parts = cache_block_partitions(A, dim=32, budget_bytes=1 << 16)
    assert parts[0].start == 0 and parts[-1].stop == A.nrows
    for a, b in zip(parts, parts[1:]):
        assert a.stop == b.start
    assert sum(p.nnz for p in parts) == A.nnz
    assert len(parts) > 1  # the tiny budget must actually tile


def test_cache_block_partitions_respect_bounds(graph):
    A, _ = graph
    few = cache_block_partitions(A, dim=32, budget_bytes=1 << 16, max_parts=4)
    assert len(few) <= 4
    many = cache_block_partitions(A, dim=32, budget_bytes=1 << 30, min_parts=6)
    assert len(many) >= 6
    assert sum(p.nnz for p in many) == A.nnz


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=300),
    density=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=10_000),
    dim=st.sampled_from([4, 32, 128]),
    budget=st.sampled_from([1 << 10, 1 << 14, 1 << 20]),
)
def test_cache_block_vectorized_matches_loop(n, density, seed, dim, budget):
    """The chunk-vectorized panel path is boundary-for-boundary identical
    to the Python row loop (also asserted at scale by
    ``repro bench cache_block``)."""
    A = random_csr(n, n, density=density, seed=seed)
    loop = cache_block_partitions(
        A, dim=dim, budget_bytes=budget, impl="loop"
    )
    vec = cache_block_partitions(
        A, dim=dim, budget_bytes=budget, impl="vectorized"
    )
    assert loop == vec
    auto = cache_block_partitions(A, dim=dim, budget_bytes=budget)
    assert auto == loop


def test_cache_block_vectorized_matches_loop_on_reordered(graph):
    A, _ = graph
    for strategy in CONCRETE:
        Ap = reorder_matrix(A, strategy).matrix
        assert cache_block_partitions(
            Ap, dim=64, budget_bytes=1 << 15, impl="loop"
        ) == cache_block_partitions(
            Ap, dim=64, budget_bytes=1 << 15, impl="vectorized"
        )


def test_cache_block_rejects_unknown_impl(graph):
    A, _ = graph
    with pytest.raises(ValueError):
        cache_block_partitions(A, impl="numba")


def test_build_panels_localises_columns(graph):
    A, _ = graph
    parts = cache_block_partitions(A, dim=32, budget_bytes=1 << 16)
    panels = build_panels(A, parts)
    assert len(panels) == len(parts)
    for panel in panels:
        if panel.matrix is None:
            continue
        # Local indices reference exactly the panel's distinct columns.
        assert panel.matrix.ncols == panel.cols.shape[0]
        restored = panel.cols[panel.matrix.indices]
        lo, hi = int(A.indptr[panel.start]), int(A.indptr[panel.stop])
        assert np.array_equal(restored, A.indices[lo:hi])


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


@pytest.mark.parametrize("backend", ["optimized", "generated", "jit"])
def test_reordered_run_allclose_across_backends(graph, backend):
    A, X = graph
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", backend=backend)
    rt = KernelRuntime(num_threads=1)
    Z = rt.run(A, X, pattern="sigmoid_embedding", backend=backend, reorder="degree")
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
        # Panels are fixed at plan build, so the fan-out width cannot
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
# reorder="none" keeps the bitwise guarantees
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["auto", "optimized", "generated", "jit"])
def test_none_is_bitwise_identical_per_backend(graph, backend):
    A, X = graph
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", backend=backend)
    rt = KernelRuntime(num_threads=1)
    Z = rt.run(A, X, pattern="sigmoid_embedding", backend=backend, reorder="none")
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
    assert info["panels"] == len(p_deg.partitions) > 0


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
    """Rebuilding an auto plan reuses the measured verdict without
    re-sweeping, and only the winning strategy's permutation stays in the
    reorder memo."""
    A, _ = graph
    clear_reorder_memo()
    rt1 = KernelRuntime(num_threads=1)
    p1 = rt1.plan(A, pattern="fr_layout", reorder="auto")
    memoized = reorder_memo_info()["memoized"]
    assert memoized <= 1  # the winner at most; losers garbage-collected
    if p1.reorder != "none":
        # The winner's reordering was transplanted from its measured
        # trial and memoised — not recomputed.
        assert memoized == 1
        hit = reorder_matrix(A, p1.reorder, memo_key=p1.key.fingerprint)
        assert hit.matrix is p1.reordered
    rt2 = KernelRuntime(num_threads=1)  # fresh runtime, fresh plan cache
    p2 = rt2.plan(A, pattern="fr_layout", reorder="auto")
    assert p2.reorder_tuning is p1.reorder_tuning  # cache hit, no re-sweep
    assert p2.reorder == p1.reorder


def test_plan_cache_byte_budget_evicts_heavy_reordered_plans(graph):
    """Reordered plans pin ~2x their adjacency; the plan LRU bounds the
    total retained bytes, not just the entry count."""
    from repro.runtime import PlanCache

    A, _ = graph
    rt = KernelRuntime(num_threads=1)
    plan = rt.plan(A, pattern="sigmoid_embedding", reorder="degree")
    weight = plan.retained_bytes()
    assert weight > A.memory_bytes()  # permuted copy + panels
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
