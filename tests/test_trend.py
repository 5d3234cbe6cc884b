"""Tests for the benchmark trend comparison (repro.bench.trend)."""

import numpy as np
import pytest

from repro.bench.record import record_benchmark
from repro.bench.trend import compare_paths, compare_records


def _record(seconds, speedup, *, pattern="sigmoid_embedding"):
    return {
        "rows": [
            {
                "benchmark": "plan_cache",
                "graph": "rmat n=2000",
                "d": 64,
                "pattern": pattern,
                "seconds": seconds,
                "speedup": speedup,
            }
        ]
    }


def test_no_regression_within_threshold():
    report = compare_records(_record(1.0, 10.0), _record(1.1, 9.5))
    assert report.ok
    assert {d.metric for d in report.deltas} == {"seconds", "speedup"}


def test_slower_seconds_flagged():
    report = compare_records(_record(1.0, 10.0), _record(1.3, 10.0))
    assert not report.ok
    (reg,) = report.regressions
    assert reg.metric == "seconds"
    assert reg.ratio == pytest.approx(1.3)
    assert reg.direction == -1


def test_lower_speedup_flagged():
    report = compare_records(_record(1.0, 10.0), _record(1.0, 7.0))
    assert not report.ok
    (reg,) = report.regressions
    assert reg.metric == "speedup"
    assert reg.direction == +1


def test_faster_is_never_a_regression():
    report = compare_records(_record(1.0, 10.0), _record(0.2, 50.0))
    assert report.ok


def test_noise_floor_ignores_tiny_timings():
    report = compare_records(_record(1e-4, 10.0), _record(9e-4, 10.0))
    assert report.ok
    assert all(d.metric != "seconds" for d in report.deltas)


def test_noise_floor_also_skips_ratios_of_noisy_timings():
    """A speedup derived from sub-floor timings is itself noise: a 2x
    jitter in a 0.5ms measurement must not trip the gate."""
    report = compare_records(_record(5e-4, 1.9), _record(9e-4, 1.1))
    assert report.ok
    assert not report.deltas  # both the timing and its ratio are skipped
    # ...but a speedup built on solid timings still gates:
    report = compare_records(_record(1.0, 1.9), _record(1.0, 1.1))
    assert not report.ok


def test_counter_fields_do_not_break_row_matching():
    """Run-dependent counters (cache_hits, packed_requests, ...) are not
    identity: a regression that also changes a counter must still match
    the baseline row and be flagged."""
    base = {
        "rows": [
            {
                "benchmark": "plan_cache",
                "pattern": "sigmoid_embedding",
                "d": 64,
                "cache_hits": 2,
                "batches": 16,
                "warm_s": 0.006,
                "speedup": 36.0,
            }
        ]
    }
    cur = {
        "rows": [
            {
                "benchmark": "plan_cache",
                "pattern": "sigmoid_embedding",
                "d": 64,
                "cache_hits": 0,  # plan cache broke...
                "batches": 23,
                "warm_s": 0.200,  # ...and the warm path got 33x slower
                "speedup": 1.1,
            }
        ]
    }
    report = compare_records(base, cur)
    assert not report.unmatched  # the row still matches
    assert not report.ok
    assert {d.metric for d in report.regressions} == {"warm_s", "speedup"}


@pytest.mark.parametrize(
    "metric, direction",
    [
        ("edges_per_s", +1),
        ("seconds", -1),
        ("warm_s", -1),
        ("speedup_vs_1shard", +1),
        ("speedup_vs_rebuild", +1),
    ],
)
def test_metric_direction(metric, direction):
    """A rate ending in ``_per_s`` is higher-is-better even though it
    also ends in ``_s``: a faster run must never be flagged."""
    base = {"rows": [{"benchmark": "x", metric: 1.0}]}
    better = {"rows": [{"benchmark": "x", metric: 1.0 + 0.5 * direction}]}
    worse = {"rows": [{"benchmark": "x", metric: 1.0 - 0.5 * direction}]}
    (delta,) = compare_records(base, better).deltas
    assert delta.direction == direction
    assert compare_records(base, better).ok
    assert not compare_records(base, worse).ok


def test_unmatched_rows_reported_not_failed():
    report = compare_records(
        _record(1.0, 10.0), _record(1.0, 10.0, pattern="fr_layout")
    )
    assert report.ok
    assert len(report.unmatched) == 2  # one current-only, one baseline-only


def test_compare_paths_files_and_directories(tmp_path):
    base_dir = tmp_path / "base"
    cur_dir = tmp_path / "cur"
    base_dir.mkdir()
    cur_dir.mkdir()
    record_benchmark(
        "runtime", _record(1.0, 10.0)["rows"], path=base_dir / "BENCH_runtime.json"
    )
    record_benchmark(
        "runtime", _record(2.0, 10.0)["rows"], path=cur_dir / "BENCH_runtime.json"
    )
    record_benchmark(
        "jit", _record(1.0, 10.0)["rows"], path=cur_dir / "BENCH_jit.json"
    )

    # file mode
    report = compare_paths(
        base_dir / "BENCH_runtime.json", cur_dir / "BENCH_runtime.json"
    )
    assert not report.ok

    # directory mode: BENCH_jit.json is current-only → noted, not failed
    report = compare_paths(base_dir, cur_dir)
    assert not report.ok
    assert any("BENCH_jit.json" in note for note in report.missing)

    with pytest.raises(ValueError):
        compare_paths(base_dir, cur_dir / "BENCH_runtime.json")


def test_cli_bench_compare_exit_codes(tmp_path, capsys):
    from repro.cli import main

    base = tmp_path / "BENCH_a.json"
    cur = tmp_path / "BENCH_b.json"
    record_benchmark("a", _record(1.0, 10.0)["rows"], path=base)
    record_benchmark("a", _record(2.0, 10.0)["rows"], path=cur)
    assert main(["bench", "compare", str(base), str(cur)]) == 1
    assert main(["bench", "compare", str(base), str(cur), "--no-fail"]) == 0
    assert main(["bench", "compare", str(base), str(base)]) == 0
    out = capsys.readouterr().out
    assert "regressed" in out


def test_jsonable_rows_round_trip(tmp_path):
    """Records written by record_benchmark feed straight into the trend
    comparison (numpy scalars and all)."""
    rows = [
        {
            "benchmark": "jit_speedup",
            "pattern": "sigmoid_embedding",
            "backend": "jit",
            "seconds": np.float64(0.5),
            "speedup_vs_optimized": np.float64(4.0),
        }
    ]
    p1 = record_benchmark("jit", rows, path=tmp_path / "BENCH_jit.json")
    slower = [
        dict(rows[0], seconds=np.float64(0.9), speedup_vs_optimized=np.float64(2.0))
    ]
    p2 = record_benchmark("jit", slower, path=tmp_path / "BENCH_jit2.json")
    report = compare_paths(p1, p2)
    assert {d.metric for d in report.regressions} == {
        "seconds",
        "speedup_vs_optimized",
    }
