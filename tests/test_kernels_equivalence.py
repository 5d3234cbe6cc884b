"""Cross-backend equivalence tests — the core correctness property.

For every application pattern of Table III and a variety of graph shapes,
all kernel backends (reference Algorithm 1, the generated kernels in
their specialised and all-calls forms) and the unfused SDDMM→SpMM
pipeline must produce the same output up to floating-point tolerance.
"""

import numpy as np
import pytest

from repro.baselines import dense_fusedmm, unfused_fusedmm
from repro.core import (
    compile_kernel,
    fusedmm,
    fusedmm_generic,
    generate_kernel_source,
    get_pattern,
)
from repro.experiments.ablations import all_calls_pattern
from repro.sparse import random_bipartite, random_csr
from _helpers import make_xy

PATTERNS = ["sigmoid_embedding", "fr_layout", "gcn", "spmm", "sddmm_dot"]
ATOL = 1e-3


@pytest.fixture(scope="module")
def square_problem():
    A = random_csr(80, 80, density=0.07, seed=3)
    X, Y = make_xy(A, 24, seed=5)
    return A, X, Y


@pytest.fixture(scope="module")
def rect_problem():
    A = random_bipartite(30, 120, avg_degree=6, seed=4)
    X, Y = make_xy(A, 24, seed=6)
    return A, X, Y


@pytest.mark.parametrize("pattern", PATTERNS)
def test_edgeblocked_matches_generic(square_problem, pattern):
    A, X, Y = square_problem
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    calls = all_calls_pattern(pattern)
    out = fusedmm(A, X, Y, pattern=calls, backend="generated", block_size=64)
    assert np.allclose(out, ref, atol=ATOL)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_generated_matches_generic(square_problem, pattern):
    A, X, Y = square_problem
    kernel = compile_kernel(get_pattern(pattern).resolved())
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    assert np.allclose(kernel(A, X, Y, block_size=128), ref, atol=ATOL)


@pytest.mark.parametrize("pattern", ["sigmoid_embedding", "fr_layout", "gcn"])
def test_specialized_matches_generic(pattern):
    """The pattern-specialized kernel ``auto`` resolves for a Table III row
    (jit with numba, else generated) on a graph with non-unit edge values."""
    A = random_csr(80, 80, density=0.07, seed=3, value_range=(0.5, 2.0))
    X, Y = make_xy(A, 24, seed=5)
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    assert np.allclose(fusedmm(A, X, Y, pattern=pattern), ref, atol=ATOL)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_unfused_pipeline_matches_generic(square_problem, pattern):
    A, X, Y = square_problem
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    out = unfused_fusedmm(A, X, Y, pattern=pattern)
    assert np.allclose(out, ref, atol=ATOL)


@pytest.mark.parametrize("pattern", PATTERNS)
def test_rectangular_operands_all_backends(rect_problem, pattern):
    A, X, Y = rect_problem
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    for backend in ["auto", "generated"]:
        out = fusedmm(A, X, Y, pattern=pattern, backend=backend)
        assert np.allclose(out, ref, atol=ATOL), backend
    assert np.allclose(unfused_fusedmm(A, X, Y, pattern=pattern), ref, atol=ATOL)


@pytest.mark.parametrize("pattern", ["sigmoid_embedding", "gcn"])
def test_empty_rows_are_zero(pattern):
    # Matrix with several empty rows exercises the empty-row handling of
    # every backend.
    A = random_csr(50, 50, density=0.02, seed=9)
    X, Y = make_xy(A, 8, seed=0)
    empty_rows = A.row_degrees() == 0
    assert empty_rows.any(), "fixture should contain empty rows"
    for backend in ["generic", "auto", "generated"]:
        Z = fusedmm(A, X, Y, pattern=pattern, backend=backend)
        assert np.allclose(Z[empty_rows], 0.0), backend


def test_gnn_mlp_pattern_all_backends():
    from repro.core import make_mlp_vop
    from repro.graphs.features import xavier_init

    A = random_csr(40, 40, density=0.1, seed=2)
    X, Y = make_xy(A, 12, seed=1)
    mlp = make_mlp_vop(xavier_init(24, 12, seed=3))
    pattern = get_pattern("gnn_mlp", vop=mlp)
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    for backend in ["auto", "generated"]:
        out = fusedmm(A, X, Y, pattern=pattern, backend=backend)
        assert np.allclose(out, ref, atol=ATOL), backend


def test_amax_aggregation_equivalence():
    # AMAX exercises the non-sum accumulator path in every backend.
    A = random_csr(60, 60, density=0.08, seed=12)
    X, Y = make_xy(A, 10, seed=2)
    pattern = get_pattern(None, vop="MUL", rop="NOOP", sop="RELU", mop="NOOP", aop="AMAX")
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    out = fusedmm(A, X, Y, pattern=pattern, backend="generated", block_size=32)
    assert np.allclose(out, ref, atol=ATOL)
    assert np.allclose(unfused_fusedmm(A, X, Y, pattern=pattern), ref, atol=ATOL)


def test_weighted_graph_gcn_uses_edge_values():
    # GCN output must depend on the edge weights (EDGESCALE), not just the
    # structure.
    A = random_csr(30, 30, density=0.15, seed=4, value_range=(0.5, 2.0))
    X, Y = make_xy(A, 6, seed=3)
    Z = fusedmm(A, X, Y, pattern="gcn")
    ones = A.copy()
    ones.data = np.ones_like(ones.data)
    Z_unweighted = fusedmm(ones, X, Y, pattern="gcn")
    assert not np.allclose(Z, Z_unweighted)


# One slot away from a Table III row: each must run the operators it names,
# not the row's kernel (the Student-t force, the edge-value scaling).
NEAR_MISSES = [
    ("fr_layout", "sop", "NOOP"),
    ("fr_layout", "sop", "RELU"),
    ("spmm", "mop", "SEL2ND"),
    ("spmm", "mop", "NOOP"),
]


@pytest.mark.parametrize("name,slot,op", NEAR_MISSES)
def test_near_miss_patterns_match_generic(name, slot, op):
    A = random_csr(60, 60, density=0.1, seed=13, value_range=(0.5, 2.0))
    X, Y = make_xy(A, 8, seed=4)
    pattern = get_pattern(name, **{slot: op})
    ref = fusedmm_generic(A, X, Y, pattern=pattern)
    outs = {
        backend: fusedmm(A, X, Y, pattern=pattern, backend=backend)
        for backend in ("auto", "generated", "jit")
    }
    outs["unfused"] = unfused_fusedmm(A, X, Y, pattern=pattern)
    outs["dense"] = dense_fusedmm(A, X, Y, pattern=pattern)
    for backend, out in outs.items():
        assert np.allclose(out, ref, rtol=1e-4, atol=ATOL), backend


def test_generated_spmm_never_gathers_source_rows():
    assert "np.take(X" not in generate_kernel_source(get_pattern("spmm").resolved())


def test_thread_count_does_not_change_result(medium_graph_csr):
    A = medium_graph_csr
    X, Y = make_xy(A, 16, seed=7)
    base = fusedmm(A, X, Y, pattern="sigmoid_embedding", backend="generated", num_threads=1)
    for threads in (2, 4):
        out = fusedmm(A, X, Y, pattern="sigmoid_embedding", backend="generated", num_threads=threads)
        assert np.allclose(out, base, atol=1e-5)


def test_block_size_does_not_change_result(square_problem):
    A, X, Y = square_problem
    ref = fusedmm(A, X, Y, pattern="sigmoid_embedding", backend="generated", block_size=7)
    for block in (1, 16, 1024, 10**6):
        out = fusedmm(A, X, Y, pattern="sigmoid_embedding", backend="generated", block_size=block)
        assert np.allclose(out, ref, atol=1e-5)
