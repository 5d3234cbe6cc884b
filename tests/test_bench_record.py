"""Tests for the benchmark record helper and the shard-scaling bench."""

import json

import numpy as np

from repro.bench.record import (
    SCHEMA_VERSION,
    bench_environment,
    load_benchmark,
    record_benchmark,
)
from repro.bench.shard_bench import bench_shard_scaling
from repro.cli import main


def test_bench_environment_shape():
    env = bench_environment()
    for key in ("python", "platform", "cpus", "numpy", "repro"):
        assert key in env
    assert env["cpus"] >= 1


def test_record_benchmark_roundtrip(tmp_path):
    rows = [
        {"metric": "speedup", "value": np.float64(2.5), "sizes": np.array([1, 2])},
        {"metric": "nnz", "value": np.int64(42)},
    ]
    path = record_benchmark(
        "unittest", rows, path=tmp_path / "BENCH_unittest.json",
        extra={"config": {"quick": True}},
    )
    assert path.name == "BENCH_unittest.json"
    payload = load_benchmark(path)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["benchmark"] == "unittest"
    assert payload["config"] == {"quick": True}
    assert payload["rows"][0]["value"] == 2.5
    assert payload["rows"][0]["sizes"] == [1, 2]
    assert payload["rows"][1]["value"] == 42
    # NumPy scalars were coerced: the file is plain JSON.
    json.loads(path.read_text())


def test_record_benchmark_default_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = record_benchmark("demo", [{"a": 1}])
    assert path.name == "BENCH_demo.json"
    assert load_benchmark(path)["rows"] == [{"a": 1}]


def test_bench_shard_scaling_rows_verify_identity():
    rows = bench_shard_scaling(
        num_nodes=400, avg_degree=8, dim=8, repeats=1, shard_counts=(1, 2)
    )
    assert [r["shards"] for r in rows] == [1, 2]
    assert all(r["identical"] for r in rows)
    assert rows[0]["speedup_vs_1shard"] == 1.0
    for r in rows:
        assert r["edges_per_s"] > 0


def test_cli_bench_shard_writes_json(tmp_path, capsys):
    out = tmp_path / "BENCH_shard.json"
    code = main(
        [
            "bench", "shard",
            "--nodes", "400",
            "--dim", "8",
            "--shards", "1", "2",
            "--repeats", "1",
            "--no-check",
            "--json", str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "Shard scaling" in captured
    payload = load_benchmark(out)
    assert payload["benchmark"] == "shard"
    assert len(payload["rows"]) == 2
