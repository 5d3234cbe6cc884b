"""Property-based tests (hypothesis) for the FusedMM kernels.

The central invariant: for any random sparse operand and any pattern built
from standard operators, every backend computes the same result as the
Algorithm 1 reference, and the fused result equals the unfused
SDDMM→SpMM pipeline.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import unfused_fusedmm
from repro.core import (
    fusedmm,
    fusedmm_generic,
    compile_kernel,
    get_pattern,
)
from repro.experiments.ablations import all_calls_pattern
from repro.runtime import KernelRequest, KernelRuntime
from repro.sparse import COOMatrix, CSRMatrix, random_csr

settings.register_profile("repro-kernels", deadline=None, max_examples=25)
settings.load_profile("repro-kernels")

ATOL = 2e-3


@st.composite
def problems(draw, max_rows=16, max_cols=16, max_d=6):
    """A random (A, X, Y) problem with float32 operands."""
    nrows = draw(st.integers(min_value=1, max_value=max_rows))
    ncols = draw(st.integers(min_value=1, max_value=max_cols))
    d = draw(st.integers(min_value=1, max_value=max_d))
    nnz = draw(st.integers(min_value=0, max_value=nrows * ncols))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, nrows, size=nnz)
    cols = rng.integers(0, ncols, size=nnz)
    vals = rng.uniform(0.1, 2.0, size=nnz).astype(np.float32)
    A = CSRMatrix.from_coo(COOMatrix(nrows, ncols, rows, cols, vals))
    X = rng.standard_normal((nrows, d)).astype(np.float32)
    Y = rng.standard_normal((ncols, d)).astype(np.float32)
    return A, X, Y


PATTERN_NAMES = st.sampled_from(["sigmoid_embedding", "fr_layout", "gcn", "spmm", "sddmm_dot"])


@given(problems(), PATTERN_NAMES)
def test_blocked_kernels_match_reference(problem, pattern):
    A, X, Y = problem
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    for form in (pattern, all_calls_pattern(pattern)):
        out = fusedmm(A, X, Y, pattern=form, backend="generated", block_size=5)
        assert np.allclose(out, ref, atol=ATOL)


@given(problems(), PATTERN_NAMES)
def test_fused_equals_unfused_pipeline(problem, pattern):
    A, X, Y = problem
    fused = fusedmm_generic(A, X, Y, pattern=pattern)
    unfused = unfused_fusedmm(A, X, Y, pattern=pattern)
    assert np.allclose(fused, unfused, atol=ATOL)


@given(problems(), PATTERN_NAMES)
def test_generated_kernel_matches_reference(problem, pattern):
    A, X, Y = problem
    kernel = compile_kernel(get_pattern(pattern).resolved())
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    assert np.allclose(kernel(A, X, Y, block_size=7), ref, atol=ATOL)


@given(problems())
def test_gcn_linearity_in_y(problem):
    """The SpMM-like pattern is linear in Y: F(A, X, aY) == a F(A, X, Y)."""
    A, X, Y = problem
    base = fusedmm_generic(A, X, Y, pattern="gcn")
    scaled = fusedmm_generic(A, X, (2.0 * Y).astype(np.float32), pattern="gcn")
    assert np.allclose(scaled, 2.0 * base, atol=1e-2)


@given(problems())
def test_output_rows_of_isolated_vertices_are_zero(problem):
    A, X, Y = problem
    Z = fusedmm_generic(A, X, Y, pattern="sigmoid_embedding")
    empty = A.row_degrees() == 0
    assert np.allclose(Z[empty], 0.0)


@given(problems(), st.integers(min_value=1, max_value=4))
def test_thread_invariance(problem, threads):
    A, X, Y = problem
    kernel = compile_kernel(get_pattern("sigmoid_embedding").resolved())
    single = kernel(A, X, Y, num_threads=1)
    multi = kernel(A, X, Y, num_threads=threads)
    assert np.allclose(single, multi, atol=1e-5)


@given(problems(), PATTERN_NAMES)
def test_runtime_run_matches_generic(problem, pattern):
    """KernelRuntime.run agrees with the Algorithm 1 reference for random
    CSR operands across all Table III patterns."""
    A, X, Y = problem
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    rt = KernelRuntime(num_threads=1, cache_size=4)
    assert np.allclose(rt.run(A, X, Y, pattern=pattern), ref, atol=ATOL)
    # A second (plan-cached) call computes the same thing.
    assert np.allclose(rt.run(A, X, Y, pattern=pattern), ref, atol=ATOL)


@given(problems(), PATTERN_NAMES)
def test_runtime_batch_matches_generic(problem, pattern):
    """run_batch equals the generic reference regardless of which schedule
    (packed / single / split) the request lands on."""
    A, X, Y = problem
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    # Tiny thresholds force interesting scheduling decisions even for the
    # small matrices hypothesis generates.
    rt = KernelRuntime(num_threads=1, pack_nnz=64, split_nnz=96)
    outs = rt.run_batch([KernelRequest(A, X, Y, pattern=pattern)] * 3)
    for Z in outs:
        assert np.allclose(Z, ref, atol=ATOL)


@settings(max_examples=20)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    pattern=st.sampled_from(["sigmoid_embedding", "gcn", "gnn_mlp"]),
    block_size=st.sampled_from([64, 8192]),
    threads=st.sampled_from([1, 2]),
    registered=st.lists(st.booleans(), min_size=2, max_size=6),
)
def test_run_batch_mixes_planned_and_inline_requests(
    seed, pattern, block_size, threads, registered
):
    """One window mixes requests on registered (planned) matrices with
    inline ones — packed, single and split alike; every result equals a
    sequential single-threaded ``fusedmm`` call, bit for bit, and so does
    the next window, which replays the kept schedules."""
    rng = np.random.default_rng(seed)
    opts = dict(pattern=pattern, backend="generated", block_size=block_size)
    reqs, refs = [], []
    with KernelRuntime(num_threads=threads, split_nnz=500) as rt:
        for planned in registered:
            n = int(rng.integers(8, 120))
            density = float(rng.uniform(0.02, 0.15))
            A = random_csr(n, n, density=density, seed=int(rng.integers(2**31)))
            X = rng.standard_normal((n, 4)).astype(np.float32)
            if planned:  # what registering a graph does
                rt.plan(A, reorder="none", **opts)
            reqs.append(KernelRequest(A, X, **opts))
            refs.append(fusedmm(A, X, X, num_threads=1, **opts))
        for _ in range(2):
            for out, ref in zip(rt.run_batch(reqs), refs):
                assert np.array_equal(out, ref)


@given(problems(), PATTERN_NAMES, st.integers(min_value=1, max_value=4))
def test_runtime_thread_invariance(problem, pattern, threads):
    """Runtime results are bitwise identical across pool widths (the
    determinism invariant of core/parallel.py, inherited by the runtime's
    nnz-aware scheduling)."""
    A, X, Y = problem
    rt1 = KernelRuntime(num_threads=1, split_nnz=64)
    rtn = KernelRuntime(num_threads=threads, split_nnz=64)
    try:
        assert np.array_equal(
            rt1.run(A, X, Y, pattern=pattern), rtn.run(A, X, Y, pattern=pattern)
        )
    finally:
        rtn.close()


@given(problems())
def test_fr_antisymmetry_on_symmetric_graphs(problem):
    """On a symmetric unweighted graph the FR forces sum to ~zero (every
    edge's pull on u is the opposite of its pull on v)."""
    A, X, _ = problem
    if A.nrows != A.ncols:
        return
    sym = CSRMatrix.from_coo(A.to_coo().symmetrize())
    ones = sym.copy()
    ones.data = np.ones_like(ones.data)
    Z = fusedmm_generic(ones, X, X, pattern="fr_layout")
    assert np.allclose(Z.sum(axis=0), 0.0, atol=1e-2)
