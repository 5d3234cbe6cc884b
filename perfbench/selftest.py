"""Self-tests of the benchmark at tiny sizes (about two minutes).

Run from the repository root::

    python3 perfbench/selftest.py

The file name keeps it out of the repository's default test collection:
these tests start servers and worker processes and belong to the
benchmark, not to the package.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.run import END_TO_END, WORKLOADS  # noqa: E402
from perfbench.tracing import Span, self_times  # noqa: E402

SECONDS = "2"


def _run(tmp: Path, workload: str, trace: int, *extra: str):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", str(trace), "--tiny", "--out", str(tmp), *extra],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((tmp / f"run-{workload}-7-{trace}.json").read_text())
    return result, record


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(request.param)
    return request.param, tmp, {t: _run(tmp, request.param, t) for t in (0, 1)}


def test_every_metric_printed_with_its_unit(runs):
    _, _, by_trace = runs
    for trace, names in ((0, END_TO_END), (1, {k: u for k, (u, _) in PER_LAYER.items()})):
        result, record = by_trace[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        assert record["leftover_processes"] == [] and record["untraced_targets"] == []
    assert all(v["value"] > 0 for v in by_trace[0][0]["metrics"].values())


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (u, _) in PER_LAYER.items()
    }


def test_traced_spans_nest_and_self_time_fits(runs):
    workload, tmp, _ = runs
    rows = [json.loads(line) for line in (tmp / f"spans-{workload}-7.jsonl").read_text().splitlines()]
    spans = [Span(r["id"], r["parent"], r["name"], r["t0"], r["t1"], r["thread"]) for r in rows]
    assert spans
    by_id = {s.sid: s for s in spans}
    eps = 1e-6
    for s in spans:
        assert s.t1 >= s.t0
        if s.parent:
            parent = by_id[s.parent]
            assert parent.t0 - eps <= s.t0 and s.t1 <= parent.t1 + eps, (s, parent)
    selfs = self_times(spans)
    assert min(selfs.values()) >= -eps
    # Within every tree the self times add up to at most the root's span;
    # the roots themselves may overlap when requests are concurrent.
    root_of = {}
    for s in spans:
        r = s
        while r.parent:
            r = by_id[r.parent]
        root_of[s.sid] = r
    totals = {}
    for sid, t in selfs.items():
        totals[root_of[sid].sid] = totals.get(root_of[sid].sid, 0.0) + t
    for rid, total in totals.items():
        assert total <= by_id[rid].t1 - by_id[rid].t0 + eps
    if workload == "train-embed":  # one thread, no concurrency
        wall = max(s.t1 for s in spans) - min(s.t0 for s in spans)
        assert sum(selfs.values()) <= wall + eps


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_reference_fails_every_op(workload, tmp_path):
    result, _ = _run(tmp_path, workload, 0, "--corrupt-reference")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_no_sources_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-embed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0 and out.stdout.strip() == ""


if __name__ == "__main__":
    base = ROOT / ".perfbench_out" / "selftest"
    base.parent.mkdir(parents=True, exist_ok=True)
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider", f"--basetemp={base}"]))
