"""Experiment: Table VII — SpMM specialisation of FusedMM vs the vendor SpMM.

The paper compares the SpMM specialisation of FusedMM (the GCN row of
Table III) against Intel MKL's SpMM, single-threaded and with all cores,
for d ∈ {64, 128, 256} on Ogbprot., Youtube and Orkut, and finds the two
comparable — the point being that the general-purpose fused kernel matches
a dedicated vendor SpMM on the one pattern where a vendor kernel exists.

MKL is unavailable offline; the vendor stand-in is SciPy's compiled CSR
SpMM (see :mod:`repro.baselines.mkl_like`).  The generated spmm kernel
runs the same compiled loop (``csr_matvecs``) once per row partition, so
this comparison measures the partitioning and call overhead around one
shared loop, not a fused kernel against a slower vendor one.  The claim
under test is that the fused SpMM stays within a small constant factor
of the whole-matrix call rather than orders of magnitude away (as the
naive per-row Python reference would be).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..baselines.mkl_like import InspectorExecutorSpMM
from ..bench.tables import format_table
from ..core.fused import fusedmm
from ..graphs.datasets import load_dataset
from ..graphs.features import random_features
from ..perf.timer import time_kernel

__all__ = ["PAPER_TABLE7", "run", "main"]

#: Paper Table VII kernel times in seconds (single thread / 48 threads).
PAPER_TABLE7: List[Dict[str, object]] = [
    {"graph": "ogbprot", "method": "MKL", "d": 64, "t1": 1.017, "t48": 0.034},
    {"graph": "ogbprot", "method": "FusedMM", "d": 64, "t1": 0.951, "t48": 0.031},
    {"graph": "ogbprot", "method": "MKL", "d": 128, "t1": 2.310, "t48": 0.094},
    {"graph": "ogbprot", "method": "FusedMM", "d": 128, "t1": 1.990, "t48": 0.075},
    {"graph": "ogbprot", "method": "MKL", "d": 256, "t1": 5.318, "t48": 0.264},
    {"graph": "ogbprot", "method": "FusedMM", "d": 256, "t1": 4.125, "t48": 0.336},
    {"graph": "youtube", "method": "MKL", "d": 64, "t1": 0.142, "t48": 0.012},
    {"graph": "youtube", "method": "FusedMM", "d": 64, "t1": 0.132, "t48": 0.015},
    {"graph": "youtube", "method": "MKL", "d": 128, "t1": 0.310, "t48": 0.031},
    {"graph": "youtube", "method": "FusedMM", "d": 128, "t1": 0.261, "t48": 0.028},
    {"graph": "youtube", "method": "MKL", "d": 256, "t1": 0.606, "t48": 0.071},
    {"graph": "youtube", "method": "FusedMM", "d": 256, "t1": 0.524, "t48": 0.082},
    {"graph": "orkut", "method": "MKL", "d": 64, "t1": 6.336, "t48": 0.380},
    {"graph": "orkut", "method": "FusedMM", "d": 64, "t1": 5.876, "t48": 0.389},
    {"graph": "orkut", "method": "MKL", "d": 128, "t1": 14.356, "t48": 0.852},
    {"graph": "orkut", "method": "FusedMM", "d": 128, "t1": 11.897, "t48": 0.828},
    {"graph": "orkut", "method": "MKL", "d": 256, "t1": 29.348, "t48": 1.961},
    {"graph": "orkut", "method": "FusedMM", "d": 256, "t1": 23.292, "t48": 2.775},
]

DEFAULT_GRAPHS = ("ogbprot", "youtube", "orkut")
FAST_DIMS = (64, 128)
FULL_DIMS = (64, 128, 256)


def _fused_spmm(A, Y, num_threads=1):
    return fusedmm(
        A, None, Y, pattern="spmm", backend="generated", num_threads=num_threads
    )


def run(
    *,
    graphs: Sequence[str] = DEFAULT_GRAPHS,
    dims: Iterable[int] | None = None,
    full: bool = False,
    scale: float = 1.0,
    repeats: int = 5,
    num_threads: int = 1,
) -> List[Dict]:
    """Time the FusedMM SpMM specialisation against the vendor SpMM.

    Each row reports both kernels' mean seconds and the ratio
    ``fusedmm / vendor`` (lower is better; 1.0 means parity, the paper's
    finding), and names the compiled loop both kernels sum with."""
    dims = tuple(dims) if dims is not None else (FULL_DIMS if full else FAST_DIMS)
    rows: List[Dict] = []
    for graph_name in graphs:
        graph = load_dataset(graph_name, scale=scale)
        A = graph.adjacency
        for d in dims:
            Y = random_features(A.ncols, int(d), seed=1)
            fused_t = time_kernel(
                _fused_spmm, A, Y, num_threads=num_threads, repeats=repeats
            ).mean
            vendor_t = time_kernel(InspectorExecutorSpMM(A), Y, repeats=repeats).mean
            rows.append({
                "graph": graph_name,
                "d": int(d),
                "fusedmm_spmm_s": fused_t,
                "vendor_spmm_s": vendor_t,
                "fused_over_vendor": fused_t / max(vendor_t, 1e-12),
                "shared_sum_loop": "scipy csr_matvecs",
            })
    return rows


def main(full: bool = False) -> None:
    """Print the paper's Table VII and the regenerated comparison."""
    print(format_table(PAPER_TABLE7, title="Table VII (paper, seconds)"))
    print()
    print(
        format_table(
            run(full=full),
            title="Table VII (this reproduction: FusedMM SpMM vs SciPy vendor SpMM, one shared sum loop)",
        )
    )


if __name__ == "__main__":  # pragma: no cover
    main()
