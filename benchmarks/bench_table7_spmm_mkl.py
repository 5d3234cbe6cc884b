"""Benchmarks regenerating Table VII — FusedMM SpMM vs the vendor SpMM.

Each group pairs the SpMM specialisation of FusedMM with the vendor
(SciPy-compiled) SpMM on the same graph and dimension; the table's claim is
that the two stay within a small factor of each other.
"""

from __future__ import annotations

import pytest

from repro.baselines import InspectorExecutorSpMM
from repro.core import fusedmm
from repro.graphs import random_features

DIMS = [64, 128, 256]


def _fused_spmm(A, Y):
    return fusedmm(A, None, Y, pattern="spmm", backend="generated")


@pytest.mark.parametrize("d", DIMS)
def bench_table7_fusedmm_spmm_youtube(benchmark, youtube_graph, d):
    """FusedMM SpMM specialisation on the Youtube twin."""
    A = youtube_graph.adjacency
    Y = random_features(A.ncols, d, seed=1)
    benchmark.group = f"table7-youtube-d{d}"
    benchmark(lambda: _fused_spmm(A, Y))


@pytest.mark.parametrize("d", DIMS)
def bench_table7_vendor_spmm_youtube(benchmark, youtube_graph, d):
    """Vendor (SciPy-compiled) SpMM on the Youtube twin."""
    A = youtube_graph.adjacency
    Y = random_features(A.ncols, d, seed=1)
    handle = InspectorExecutorSpMM(A)
    benchmark.group = f"table7-youtube-d{d}"
    benchmark(lambda: handle(Y))


@pytest.mark.parametrize("d", [128])
def bench_table7_fusedmm_spmm_ogbprot(benchmark, ogbprot_graph, d):
    """FusedMM SpMM specialisation on the dense Ogbprot twin."""
    A = ogbprot_graph.adjacency
    Y = random_features(A.ncols, d, seed=1)
    benchmark.group = f"table7-ogbprot-d{d}"
    benchmark(lambda: _fused_spmm(A, Y))


@pytest.mark.parametrize("d", [128])
def bench_table7_vendor_spmm_ogbprot(benchmark, ogbprot_graph, d):
    """Vendor (SciPy-compiled) SpMM on the dense Ogbprot twin."""
    A = ogbprot_graph.adjacency
    Y = random_features(A.ncols, d, seed=1)
    handle = InspectorExecutorSpMM(A)
    benchmark.group = f"table7-ogbprot-d{d}"
    benchmark(lambda: handle(Y))
