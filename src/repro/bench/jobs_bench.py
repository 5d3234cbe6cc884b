"""Checkpoint-overhead benchmark for durable training jobs.

Answers the durability contract's performance question: how much epoch
time does ``checkpoint_every=1`` cost over running with durability off?
Each app trains the same synthetic workload twice — without a store and
with per-epoch checkpoints — and every row carries ``bitwise_identical``
(the checkpointed run's output compared against the bare run), so the
record doubles as a regression gate: overhead is only meaningful if
durability did not perturb the arithmetic.

Run by ``repro bench jobs [--quick]``.  The acceptance gate is
``overhead_frac <= 0.10`` (checkpointing costs at most 10% of epoch
time) on the default scaled-harvard workload, a wall-clock target that
``--no-check`` waives; ``bitwise_identical`` always gates.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..apps import APP_KINDS
from ..jobs import CheckpointStore, JobSpec, build_app, run_training

__all__ = ["bench_checkpoint_overhead", "MAX_OVERHEAD"]

TITLE = "Checkpoint overhead (per-epoch durable saves vs none)"

#: Acceptance gate: per-epoch checkpointing may cost at most this
#: fraction of the bare epoch time.
MAX_OVERHEAD = 0.10

#: Per-app workload dataset and its full-scale node count (``scale``
#: maps the requested ``nodes`` onto it).  The embedding/layout apps get
#: harvard — edge-heavy (~109 avg degree), so epoch compute is
#: edge-dominated while checkpoint bytes scale with nodes and the
#: measured overhead reflects realistic long-epoch jobs instead of the
#: fsync latency floor.  GCN needs a labelled graph, so it runs pubmed.
_WORKLOADS = {
    "force2vec": ("harvard", 6_000),
    "verse": ("harvard", 6_000),
    "fr_layout": ("harvard", 6_000),
    "gcn": ("pubmed", 19_717),
}


def _spec(app: str, *, nodes: int, dim: int, epochs: int, every: int) -> JobSpec:
    dataset, full_nodes = _WORKLOADS[app]
    return JobSpec(
        app=app,
        dataset=dataset,
        scale=min(1.0, nodes / full_nodes),
        dim=dim,
        epochs=epochs,
        seed=7,
        checkpoint_every=every,
    )


def bench_checkpoint_overhead(
    *,
    nodes: int = 6000,
    dim: int = 32,
    epochs: int = 4,
    repeats: int = 3,
    apps: Sequence[str] = APP_KINDS,
) -> List[Dict[str, object]]:
    """Per-app epoch-vs-save timings plus the bitwise-identity verdict.

    ``overhead_frac`` is the direct ratio: best (min over ``repeats``)
    time of one durable :meth:`~repro.jobs.CheckpointStore.save` of the
    app's real exported state, over the best bare epoch time.  The ratio
    is measured from separately-timed components rather than diffing two
    full-run wall times — per-save fsync latency is far too volatile for
    a subtraction of totals to gate on.  The durable run still executes
    end to end so every row also verifies the durability contract:
    ``bitwise_identical`` compares its output against the bare run's.
    """
    rows: List[Dict[str, object]] = []
    for app in apps:
        bare_spec = _spec(app, nodes=nodes, dim=dim, epochs=epochs, every=0)
        durable_spec = _spec(app, nodes=nodes, dim=dim, epochs=epochs, every=1)
        # Warm caches (dataset memos, plan cache, JIT) outside the timings.
        build_app(bare_spec)

        bare_best = float("inf")
        bare_out = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            result = run_training(bare_spec)
            bare_best = min(bare_best, time.perf_counter() - start)
            bare_out = result.output
        epoch_seconds = bare_best / max(1, epochs)

        with tempfile.TemporaryDirectory(prefix="repro-bench-ck-") as tmp:
            store = CheckpointStore(tmp, keep_last=2)
            durable = run_training(durable_spec, store=store)
            written = store.stats()["checkpoints_written"]
            # Time the save in isolation on the trained app's real state.
            # More iterations than the epoch timing: one save is ~ms-scale
            # and fsync latency jitters by several ms on loaded hosts, so
            # min-of-few is not a stable floor.
            _, trained = build_app(durable_spec)
            trained.load_state(store.latest().state)
            state = trained.export_state()
            save_best = float("inf")
            for i in range(max(10, repeats)):
                start = time.perf_counter()
                store.save(epochs + 1 + i, state)
                save_best = min(save_best, time.perf_counter() - start)

        identical = bool(
            np.array_equal(bare_out, durable.output)
            and bare_out.dtype == durable.output.dtype
        )
        rows.append(
            {
                "app": app,
                "dataset": _WORKLOADS[app][0],
                "nodes": nodes,
                "dim": dim,
                "epochs": epochs,
                "epoch_seconds": epoch_seconds,
                "save_seconds": save_best,
                "overhead_frac": save_best / epoch_seconds,
                "checkpoints_written": written,
                "bitwise_identical": identical,
            }
        )
    return rows


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--dim", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--apps", nargs="+", default=list(APP_KINDS), choices=APP_KINDS)


def run(args: argparse.Namespace) -> Tuple[List[Dict[str, object]], Optional[Dict]]:
    """The suite's rows; its record carries no ``config`` block."""
    rows = bench_checkpoint_overhead(
        nodes=args.nodes or (3_000 if args.quick else 6_000),
        dim=args.dim or (16 if args.quick else 32),
        epochs=args.epochs or (3 if args.quick else 4),
        repeats=args.repeats or (2 if args.quick else 3),
        apps=args.apps,
    )
    return rows, None


def gate(
    rows: List[Dict[str, object]], *, quick: bool = False, no_check: bool = False
) -> List[str]:
    """The failure messages of ``rows``."""
    failures = []
    for r in rows:
        if not r["bitwise_identical"]:
            failures.append(
                f"{r['app']}: checkpointed run diverged bitwise from the bare run"
            )
        if not no_check and r["overhead_frac"] > MAX_OVERHEAD:
            failures.append(
                f"{r['app']}: checkpoint overhead {r['overhead_frac']:.1%} > "
                f"allowed {MAX_OVERHEAD:.0%}"
            )
    return failures
