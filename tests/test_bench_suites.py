"""The ``repro bench <suite>`` front end: every suite's gate on hand-built
rows, and the parser against the command lines CI runs."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _BENCH_SUITES, _bench_suite, build_parser

_CI = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


def _pair(base, **row):
    """A natural/baseline row followed by the row under test."""
    return [dict(base), {**base, **row}]


_SHARD = {"shards": 1, "identical": True, "speedup_vs_1shard": 1.0}
_SERVE = {"mode": "serial", "clients": 8, "bitwise_identical": True}
_WIRE = {"payload": "tiny", "transport": "http", "bitwise_identical": True}
_JIT = {"backend": "jit", "pattern": "sigmoid_embedding", "max_abs_err": 0.0}
_BACKENDS = {"pattern": "gcn", "d": 16, "block_bitwise": True, "block_drift": 0.0, "max_abs_err": 0.0}

# (suite, rows, quick, fails without --no-check, fails with --no-check)
_CASES = {
    "backends identical": ("backends", [_BACKENDS], False, False, False),
    "backends block drift": (
        "backends",
        [{**_BACKENDS, "block_bitwise": False, "block_drift": 1e-7}],
        True,
        True,
        True,
    ),
    "backends drifted from generic": (
        "backends",
        [{**_BACKENDS, "max_abs_err": 0.01}],
        True,
        True,
        True,
    ),
    "runtime slow plan cache": (
        "runtime",
        [{"benchmark": "plan_cache", "graph": "g", "speedup": 1.5}],
        False,
        True,
        False,
    ),
    "runtime quick plan cache": (
        "runtime",
        [{"benchmark": "plan_cache", "graph": "g", "speedup": 1.5}],
        True,
        False,
        False,
    ),
    "runtime slow batch": (
        "runtime",
        [{"benchmark": "batch_packing", "graph": "g", "speedup": 0.9}],
        True,
        True,
        False,
    ),
    "shard not identical": (
        "shard",
        _pair(_SHARD, shards=2, identical=False, speedup_vs_1shard=1.8),
        True,
        True,
        True,
    ),
    "shard slow": (
        "shard",
        _pair(_SHARD, shards=2, speedup_vs_1shard=0.9),
        True,
        True,
        False,
    ),
    "jit drifted": (
        "jit",
        [{**_JIT, "max_abs_err": 0.01, "speedup_vs_optimized": 5.0}],
        True,
        True,
        True,
    ),
    "jit slow": (
        "jit",
        [{**_JIT, "speedup_vs_optimized": 2.0}],
        True,
        True,
        False,
    ),
    "serve not identical": (
        "serve",
        _pair(_SERVE, mode="coalesced", bitwise_identical=False, speedup_vs_serial=2.0),
        True,
        True,
        True,
    ),
    "serve slow": (
        "serve",
        _pair(_SERVE, mode="coalesced", speedup_vs_serial=1.2),
        False,
        True,
        False,
    ),
    "serve quick waiver": (
        "serve",
        _pair(_SERVE, mode="coalesced", speedup_vs_serial=1.2),
        True,
        False,
        False,
    ),
    "wire not identical": (
        "wire",
        _pair(_WIRE, transport="wire", bitwise_identical=False, speedup_vs_http=2.0),
        True,
        True,
        True,
    ),
    "wire slow": (
        "wire",
        _pair(_WIRE, transport="wire", speedup_vs_http=1.1),
        True,
        True,
        False,
    ),
    "remote not identical": (
        "remote",
        [{"leg": "scale", "workers": 2, "identical": False}],
        True,
        True,
        True,
    ),
    "remote failover not exercised": (
        "remote",
        [
            {
                "leg": "failover",
                "workers": 2,
                "identical": True,
                "hosts_lost": 0,
                "retries": 0,
            }
        ],
        True,
        True,
        True,
    ),
    "remote hedge not exercised": (
        "remote",
        [
            {
                "leg": "hedge",
                "workers": 2,
                "identical": True,
                "hedges": 1,
                "hedge_wins": 0,
            }
        ],
        True,
        True,
        True,
    ),
    "dynamic not identical": (
        "dynamic",
        [{"leg": "shard_identity", "identical": False}],
        True,
        True,
        True,
    ),
    "dynamic no delta ship": (
        "dynamic",
        [
            {
                "leg": "remote_delta",
                "identical": True,
                "delta_ships": 0,
                "delta_fallbacks": 1,
            }
        ],
        True,
        True,
        True,
    ),
    "dynamic slow": (
        "dynamic",
        [{"leg": "update_vs_rebuild", "identical": True, "speedup_vs_rebuild": 4.0}],
        False,
        True,
        False,
    ),
    "dynamic quick waiver": (
        "dynamic",
        [{"leg": "update_vs_rebuild", "identical": True, "speedup_vs_rebuild": 4.0}],
        True,
        False,
        False,
    ),
    "jobs not identical": (
        "jobs",
        [{"app": "gcn", "bitwise_identical": False, "overhead_frac": 0.01}],
        True,
        True,
        True,
    ),
    "jobs slow": (
        "jobs",
        [{"app": "gcn", "bitwise_identical": True, "overhead_frac": 0.2}],
        True,
        True,
        False,
    ),
}


@pytest.mark.parametrize(
    "suite, rows, quick, fails, fails_no_check",
    list(_CASES.values()),
    ids=list(_CASES),
)
def test_suite_gate(monkeypatch, suite, rows, quick, fails, fails_no_check):
    """Correctness failures gate with and without ``--no-check``; a missed
    wall-clock target gates only without it, and not where its size
    waiver applies."""
    module = _bench_suite(suite)
    if hasattr(module, "available_threads"):
        # The shard and serve speed targets apply on multi-core hosts only.
        monkeypatch.setattr(module, "available_threads", lambda: 4)
    assert bool(module.gate(rows, quick=quick, no_check=False)) is fails
    assert bool(module.gate(rows, quick=quick, no_check=True)) is fails_no_check


def test_parser_accepts_every_ci_bench_command():
    """Every ``python -m repro bench ...`` line CI runs parses, and CI
    runs every suite."""
    commands = re.findall(r"python -m repro (bench [^\n]+)", _CI.read_text())
    parser = build_parser()
    suites = set()
    for command in commands:
        args = parser.parse_args(shlex.split(command))
        suites.add(args.bench_command)
    assert suites == set(_BENCH_SUITES) | {"compare"}
