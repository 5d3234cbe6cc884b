"""Additional coverage tests for paths not exercised elsewhere: the scaled
generic-timing path of the harness, dataset seed overrides, codegen edge
cases, and the measured-allocation ordering behind Fig. 10(b)."""

import numpy as np

from repro.baselines import unfused_fusedmm
from repro.bench.harness import GENERIC_TIMING_MAX_NNZ, compare_kernels
from repro.core import (
    compile_kernel,
    fusedmm,
    fusedmm_generic,
    get_pattern,
)
from repro.graphs import load_dataset, random_features, rmat
from repro.perf import measure_peak_allocation
from repro.sparse import random_csr
from _helpers import make_xy


def test_compare_kernels_scales_generic_on_large_graphs():
    """Graphs above the generic-timing cap take the sampled/extrapolated
    path and still report a positive generic time."""
    n = 3000
    A = rmat(n, GENERIC_TIMING_MAX_NNZ, seed=0)
    assert A.nnz > GENERIC_TIMING_MAX_NNZ
    row = compare_kernels("big", A, 8, pattern="gcn", repeats=1)
    assert row["fusedmm_s"] > 0
    assert row["speedup_opt_vs_gen"] > 0


def test_load_dataset_seed_override_changes_graph():
    a = load_dataset("youtube", scale=0.05)
    b = load_dataset("youtube", scale=0.05, seed=999)
    assert a.adjacency != b.adjacency
    # Same registry statistics targets though.
    assert abs(a.adjacency.avg_degree() - b.adjacency.avg_degree()) < 2.0


def test_codegen_edgescale_vop_pattern():
    pattern = get_pattern(None, vop="EDGESCALE", rop="RSUM", sop="TANH", mop="MUL", aop="ASUM")
    resolved = pattern.resolved()
    A = random_csr(40, 40, density=0.1, seed=3, value_range=(0.5, 1.5))
    X, Y = make_xy(A, 6, seed=0)
    kernel = compile_kernel(resolved)
    assert np.allclose(kernel(A, X, Y), fusedmm_generic(A, X, Y, pattern=pattern), atol=1e-3)


def test_codegen_add_rsum_fused_template():
    pattern = get_pattern(None, vop="ADD", rop="RSUM", sop="SCAL", mop="MUL", aop="ASUM")
    resolved = pattern.resolved()
    A = random_csr(30, 30, density=0.12, seed=4)
    X, Y = make_xy(A, 5, seed=1)
    kernel = compile_kernel(resolved)
    assert np.allclose(kernel(A, X, Y), fusedmm_generic(A, X, Y, pattern=pattern), atol=1e-3)


def test_measured_allocation_fused_below_unfused_for_fr():
    """tracemalloc-measured peak allocation: the unfused FR pipeline must
    allocate substantially more than the fused kernel (the measured version
    of Fig. 10b)."""
    g = load_dataset("flickr", scale=0.2)
    A = g.adjacency
    X = random_features(A.nrows, 64, seed=0)
    fused = measure_peak_allocation(
        fusedmm, A, X, X, pattern="fr_layout", backend="generated"
    )
    unfused = measure_peak_allocation(unfused_fusedmm, A, X, X, pattern="fr_layout")
    assert unfused["peak_mb"] > 1.5 * fused["peak_mb"]


def test_specialized_spmm_multithreaded_matches_single():
    """The SpMM specialisation of FusedMM (Table VII) is thread-invariant."""
    A = random_csr(500, 500, density=0.02, seed=6)
    Y = random_features(500, 16, seed=1)

    def spmm(num_threads):
        return fusedmm(
            A, None, Y, pattern="spmm", backend="generated", num_threads=num_threads
        )

    assert np.allclose(spmm(1), spmm(4), atol=1e-6)


def test_attention_aggregate_thread_invariance():
    from repro.core.extensions import attention_aggregate

    A = random_csr(200, 200, density=0.05, seed=7)
    X = random_features(200, 8, seed=2)
    assert np.allclose(
        attention_aggregate(A, X, num_threads=1),
        attention_aggregate(A, X, num_threads=3),
        atol=1e-5,
    )


def test_run_all_quick_report_sections(tmp_path):
    from repro.experiments.run_all import generate_report

    path = generate_report(tmp_path / "r.md", scale=0.1, quick=True)
    text = path.read_text()
    for heading in ["Table V", "Table VI", "Table VII", "Table VIII", "Fig. 7", "Fig. 10", "Fig. 11", "Section V.D"]:
        assert heading in text
