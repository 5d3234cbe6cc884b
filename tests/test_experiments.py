"""Smoke and shape tests for the experiment modules (scaled-down runs).

Each experiment is executed at a tiny scale so the suite stays fast; the
assertions check the *structure* of the results (the expected columns and
the qualitative relationships the paper reports), not absolute timings.
"""

import pytest

from repro.experiments import (
    accuracy_f1,
    ablations,
    fig7_roofline,
    fig8_arm,
    fig9_amd,
    fig10_scaling_memory,
    fig11_sensitivity,
    table5_datasets,
    table6_kernels,
    table7_spmm_mkl,
    table8_end2end,
)
from repro.experiments.registry import get_experiment, list_experiments


def test_table5_rows_match_registry():
    results = table5_datasets.run(scale=0.2)
    assert len(results["measured"]) == len(results["paper"]) == 8
    for row in results["measured"]:
        assert row["vertices"] > 0 and row["edges"] > 0
        assert row["avg_degree"] > 0


def test_table6_fast_subset_shape_and_speedups():
    rows = table6_kernels.run(
        graphs=("youtube",), dims=(32,), applications=("embedding", "gcn"),
        scale=0.15, repeats=3, include_generic=False,
    )
    assert len(rows) == 2
    for row in rows:
        assert row["dgl_s"] > 0 and row["fusedmmopt_s"] > 0
        # The fused kernel should not lose to the unfused pipeline.
        assert row["speedup_opt_vs_dgl"] > 0.8


def test_table6_paper_constants_present():
    assert table6_kernels.PAPER_SPEEDUPS[("ogbprot", "fr", 128)] == pytest.approx(34.389)
    assert set(table6_kernels.APPLICATIONS) == {"embedding", "fr", "gcn"}


def test_table7_rows(monkeypatch):
    rows = table7_spmm_mkl.run(graphs=("youtube",), dims=(64,), scale=0.15, repeats=1)
    assert len(rows) == 1
    row = rows[0]
    assert row["fusedmm_spmm_s"] > 0
    if "vendor_spmm_s" in row:
        assert row["fused_over_vendor"] > 0
    assert len(table7_spmm_mkl.PAPER_TABLE7) == 18


def test_table8_end2end_ordering():
    rows = table8_end2end.run(
        graphs=("cora",), backends=("unfused", "fused"), dim=32, epochs=1, scale=1.0
    )
    by_method = {row["method"]: row["seconds_per_epoch"] for row in rows}
    assert len(by_method) == 2
    fused_t = by_method["FusedMM"]
    unfused_t = by_method["DGL (unfused)"]
    assert fused_t > 0 and unfused_t > 0
    # Fused end-to-end training must not be slower than the unfused pipeline.
    assert unfused_t >= 0.8 * fused_t


def test_fig7_roofline_rows():
    rows = fig7_roofline.run(graphs=("youtube",), d=32, scale=0.15, repeats=1)
    assert len(rows) == 1
    row = rows[0]
    assert 0 < row["AI"] < 1.5
    assert row["attained_gflops"] > 0
    assert row["attainable_gflops"] > 0


def test_fig8_arm_rows_have_model_and_host_speedups():
    rows = fig8_arm.run(graphs=("amazon",), applications=("embedding",), d=32, scale=0.1, repeats=1)
    assert len(rows) == 1
    row = rows[0]
    assert row["host_speedup"] > 0
    assert row["model_speedup"] > 1.0  # fused wins in the traffic model
    assert row["paper_speedup"] == pytest.approx(1.4)


def test_fig9_amd_uses_its_own_paper_numbers():
    rows = fig9_amd.run(graphs=("harvard",), applications=("fr",), d=32, scale=0.1, repeats=1)
    assert rows[0]["paper_speedup"] == pytest.approx(11.4)


def test_fig10_scaling_and_memory():
    scaling = fig10_scaling_memory.run_scaling(graph="youtube", d=32, scale=0.1, thread_counts=(1, 2), repeats=1)
    assert scaling["measured"][0]["speedup"] == pytest.approx(1.0)
    assert scaling["modelled"][-1]["speedup"] > 10
    memory = fig10_scaling_memory.run_memory(graph="youtube", dims=(16, 64), scale=0.1)
    assert memory[1]["ratio"] > memory[0]["ratio"]


def test_fig11_degree_sweep_speedup_trend():
    rows = fig11_sensitivity.run_degree_sweep(
        num_vertices=2000, avg_degrees=(4, 32), applications=("sigmoid_embedding",), d=64, repeats=3
    )
    assert len(rows) == 2
    low, high = rows[0], rows[1]
    assert high["realised_avg_degree"] > low["realised_avg_degree"]
    # The paper's trend: the fused advantage grows with density.
    assert high["speedup_opt_vs_dgl"] >= 0.8 * low["speedup_opt_vs_dgl"]


def test_fig11_dimension_sweep_times_grow():
    rows = fig11_sensitivity.run_dimension_sweep(graph="flickr", dims=(32, 128), scale=0.1, repeats=1)
    assert rows[1]["fusedmmopt_s"] > rows[0]["fusedmmopt_s"]
    assert rows[1]["dgl_s"] > rows[0]["dgl_s"]


def test_accuracy_experiment_backend_parity():
    rows = accuracy_f1.run(graphs=("cora",), backends=("fused", "unfused"), dim=16, epochs=3, scale=1.0)
    assert len(rows) == 2
    by_backend = {r["backend"]: r for r in rows}
    assert abs(by_backend["fused"]["f1_micro"] - by_backend["unfused"]["f1_micro"]) < 0.08
    assert by_backend["fused"]["paper_f1_micro"] == pytest.approx(0.78)


def test_ablation_runners_shapes():
    ladder = ablations.run_backend_ladder(graph="youtube", d=32, scale=0.1, repeats=1)
    assert any(r["backend"].startswith("generic") for r in ladder)
    assert all(r["seconds"] > 0 for r in ladder)

    blocks = ablations.run_block_size_sweep(graph="youtube", d=32, scale=0.1, block_sizes=(256, 4096), repeats=1)
    assert {r["block_size"] for r in blocks} == {256, 4096}

    balance = ablations.run_partition_balance(graph="youtube", num_parts=4, scale=0.1)
    schemes = {r["scheme"] for r in balance}
    assert len(schemes) == 2
    nnz_balanced = [r for r in balance if "part1d" in r["scheme"]][0]
    naive = [r for r in balance if "naive" in r["scheme"]][0]
    assert nnz_balanced["balance_factor"] <= naive["balance_factor"] + 1e-6


def test_registry_covers_all_experiments():
    keys = list_experiments()
    for expected in ["table5", "table6", "table7", "table8", "fig7", "fig8", "fig9", "fig10", "fig11", "accuracy", "ablations"]:
        assert expected in keys
    exp = get_experiment("table5")
    assert exp.paper_reference == "Table V"
    results = exp.run_all(scale=0.2)
    assert "datasets" in results
    with pytest.raises(KeyError):
        get_experiment("table99")
