"""Command-line interface: ``python -m repro <command>``.

Sub-commands
------------
``datasets``      list the synthetic dataset registry (Table V twin)
``patterns``      list the built-in operator patterns (Table III)
``experiments``   list the registered paper experiments
``run``           run one experiment and print its tables
``kernel``        time one kernel comparison on one graph/dimension
``bench``         system benchmarks: ``bench <suite> [--quick] [--no-check]
                  [--json PATH]`` runs one suite, prints its table,
                  writes its ``BENCH_<suite>.json`` record and exits 1 when
                  a gate fails (``--no-check`` waives only the wall-clock
                  targets).  Suites: ``runtime`` (plan cache + batch
                  packing), ``shard`` (multi-process shard scaling),
                  ``jit`` (JIT backend vs the NumPy backends),
                  ``serve`` (micro-batching vs serial dispatch), ``wire``
                  (binary wire protocol vs HTTP), ``remote`` (TCP worker
                  hosts, failover and hedging legs), ``dynamic``
                  (incremental update vs rebuild, shard and remote
                  identity) and ``jobs`` (checkpoint overhead).
                  ``bench compare`` diffs BENCH_*.json trend records and
                  gates on regressions
``runtime``       runtime observability (``runtime stats``: drive a
                  KernelRuntime through an epoch workload and print its
                  counters — plan-cache hit rate, scheduling, shard tier;
                  ``--serve`` also drives the micro-batching coalescer and
                  prints its window/queue metrics)
``serve``         start the async HTTP serving front-end: request
                  coalescing + micro-batching over the kernel runtime
                  (``/v1/kernel``, ``/v1/embed/<model>``, ``/healthz``,
                  ``/statz``); ``--remote-port`` additionally opens the
                  distributed controller for ``repro worker`` hosts
``worker``        start one distributed worker host: connects to a
                  controller (a ``KernelRuntime`` with ``remote_port``
                  set, e.g. ``repro serve --remote-port``), receives CSR
                  shards once per matrix and executes row-ranges;
                  ``--fault-plan`` arms deterministic fault injection
``chaos``         deterministic chaos soak over the resilience layer:
                  seeded faults against workers, controller and serving
                  front-ends, gated on bitwise outputs and zero hangs
``report``        regenerate EXPERIMENTS.md style results (all experiments,
                  scaled down) and write them to a Markdown file

The CLI is a thin veneer over the library — everything it does is also
available programmatically through :mod:`repro.experiments` and
:mod:`repro.bench`.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import List, Optional

from .apps import APP_KINDS
from .bench.record import record_benchmark
from .bench.tables import format_table
from .core.patterns import PATTERNS, get_pattern
from .graphs.datasets import list_datasets, load_dataset, paper_table5

__all__ = ["main", "build_parser"]


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    paper = {row["graph"]: row for row in paper_table5()}
    for name in list_datasets():
        graph = load_dataset(name, scale=args.scale)
        row = graph.stats().as_row()
        row["paper_vertices"] = paper[name]["vertices"]
        row["paper_avg_degree"] = paper[name]["avg_degree"]
        rows.append(row)
    print(format_table(rows, title=f"Synthetic dataset registry (scale={args.scale})"))
    return 0


def _cmd_patterns(_args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(PATTERNS):
        resolved = get_pattern(name).resolved()
        row = {"pattern": name, **resolved.op_names()}
        row["description"] = PATTERNS[name].description[:60]
        rows.append(row)
    print(format_table(rows, title="Built-in operator patterns (Table III)"))
    return 0


def _cmd_experiments(_args: argparse.Namespace) -> int:
    from .experiments.registry import EXPERIMENTS

    rows = [
        {"key": exp.key, "paper": exp.paper_reference, "description": exp.description}
        for exp in EXPERIMENTS.values()
    ]
    print(format_table(rows, title="Registered paper experiments"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments.registry import get_experiment

    experiment = get_experiment(args.key)
    print(f"# {experiment.paper_reference}: {experiment.description}\n")
    main_fn = getattr(experiment.module, "main", None)
    if main_fn is not None and not args.raw:
        main_fn()
        return 0
    for name, runner in experiment.runners.items():
        results = runner()
        if isinstance(results, list):
            print(format_table(results, title=name))
        else:
            print(name, results)
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    from .bench.harness import compare_kernels

    graph = load_dataset(args.graph, scale=args.scale)
    rows = [
        compare_kernels(
            graph.name,
            graph.adjacency,
            d,
            pattern=args.pattern,
            repeats=args.repeats,
            include_generic=not args.no_generic,
            num_threads=args.threads,
        )
        for d in args.dims
    ]
    print(format_table(rows, title=f"Kernel comparison on {graph.name} ({args.pattern})"))
    return 0


#: ``repro bench <suite>`` runs the suite that ``repro.bench.<suite>_bench``
#: owns: its arguments and ``--quick`` sizes (``add_arguments``), its rows
#: and record ``config`` (``run``), its table ``TITLE`` and its ``gate``.
_BENCH_SUITES = (
    "backends",
    "runtime",
    "shard",
    "jit",
    "serve",
    "wire",
    "remote",
    "dynamic",
    "jobs",
)


def _bench_suite(name: str):
    return importlib.import_module(f".bench.{name}_bench", __package__)


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run one suite, print its table, write its record, apply its gate."""
    suite = _bench_suite(args.bench_command)
    rows, config = suite.run(args)
    print(format_table(rows, title=suite.TITLE))
    if args.json:
        extra = {"config": config} if config is not None else None
        path = record_benchmark(
            args.bench_command, rows, path=args.json, extra=extra
        )
        print(f"wrote {path}")
    failures = suite.gate(rows, quick=args.quick, no_check=args.no_check)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    waived = " (wall-clock targets waived by --no-check)" if args.no_check else ""
    print(f"{args.bench_command} targets met{waived}")
    return 0


def _drive_coalescer(runtime, args: argparse.Namespace) -> dict:
    """Push a concurrent mixed workload through a Coalescer and return
    its window/queue metrics (batches formed, mean occupancy, p50/p99
    wait) — the serving tier's health counters, observable without
    standing up an HTTP server."""
    import asyncio

    from .graphs.features import random_features
    from .runtime import KernelRequest
    from .serve import Coalescer
    from .sparse import random_csr

    problems = []
    for i in range(8):
        A = random_csr(96, 96, density=4.0 / 96, seed=i)
        problems.append((A, random_features(96, args.dim, seed=100 + i)))

    async def _workload() -> dict:
        coalescer = Coalescer(runtime, max_batch=16, max_wait_ms=2.0)
        try:

            async def _client(cid: int) -> None:
                for r in range(args.epochs):
                    A, X = problems[(cid + r) % len(problems)]
                    await coalescer.submit(
                        KernelRequest(A=A, X=X, pattern=args.pattern)
                    )

            await asyncio.gather(*(_client(c) for c in range(8)))
            await coalescer.drain()
            # Snapshot through the runtime: while attached, the section
            # rides runtime.stats() — the same surface the apps'
            # runtime_stats() and /statz expose.
            return runtime.stats()["coalescer"]
        finally:
            coalescer.close()

    return asyncio.run(_workload())


def _drive_jobs(runtime, _args: argparse.Namespace) -> dict:
    """Run one tiny checkpointed training job through a JobManager whose
    counters are attached to the runtime — the same ``jobs`` block
    ``/statz`` exposes, observable without standing up a server."""
    from .jobs import JobManager, JobSpec

    manager = JobManager(max_active=1)
    runtime.attach_stats_section("jobs", manager.stats)
    try:
        job_id = manager.submit(
            JobSpec(app="force2vec", dataset="cora", scale=0.05, dim=8, epochs=2)
        )
        manager.wait(job_id, timeout=120)
        return runtime.stats()["jobs"]
    finally:
        manager.close()
        runtime.attach_stats_section("jobs", None)


def _cmd_runtime_stats(args: argparse.Namespace) -> int:
    from .graphs import rmat
    from .graphs.features import random_features
    from .runtime import KernelRuntime

    epochs = max(1, args.epochs)
    runtime = KernelRuntime(
        num_threads=args.threads,
        processes=args.processes,
        autotune_dim=args.dim,
    )
    try:
        A = rmat(args.nodes, args.nodes * args.avg_degree, seed=0)
        X = random_features(A.nrows, args.dim, seed=0)
        # run() exercises the plan cache each epoch; run_sharded() also
        # routes through the worker tier so its counters show activity.
        for _ in range(epochs):
            if args.processes > 0:
                runtime.run_sharded(A, X, pattern=args.pattern)
            else:
                runtime.run(A, X, pattern=args.pattern)
        coalescer_stats = _drive_coalescer(runtime, args) if args.serve else None
        jobs_stats = _drive_jobs(runtime, args) if args.jobs else None
        stats = runtime.stats()
        stats.pop("coalescer", None)
        stats.pop("jobs", None)
    finally:
        runtime.close()
    cache = stats.pop("plan_cache")
    workers = stats.pop("workers")
    remote = stats.pop("remote", None)
    rows = [{"section": "plan_cache", **cache}]
    if workers is not None:
        rows.append({"section": "workers", **workers})
    if remote is not None:
        rows.append({"section": "remote", **remote})
    print(
        format_table(
            rows,
            title=(
                f"KernelRuntime stats after {epochs} epochs "
                f"({args.pattern}, n={args.nodes})"
            ),
        )
    )
    print(format_table([stats], title="Runtime counters"))
    if coalescer_stats is not None:
        print(
            format_table(
                [coalescer_stats],
                title="Coalescer (micro-batching windows, admission queue)",
            )
        )
    if jobs_stats is not None:
        print(
            format_table(
                [jobs_stats],
                title="Training jobs (submission/requeue/checkpoint counters)",
            )
        )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .resilience import Fault, FaultPlan
    from .runtime.remote import REPRO_WORKER_FAULT_PLAN, WorkerAgent

    # Fault-injection hooks for tests/CI: --fault-plan (or the env
    # equivalents) schedules crash/disconnect/delay/drop_frame faults
    # against RUN requests; fired faults are logged to stderr so a chaos
    # harness can assert coverage.
    fault_spec = args.fault_plan or os.environ.get(REPRO_WORKER_FAULT_PLAN)
    fault_plan = FaultPlan.from_spec(fault_spec) if fault_spec else None

    def _log_fault(fault: Fault, step: int) -> None:
        print(
            f"CHAOS-FAULT host={args.name or 'worker'} kind={fault.kind} "
            f"step={step}",
            file=sys.stderr,
            flush=True,
        )

    agent = WorkerAgent(
        args.controller_host,
        args.port,
        name=args.name,
        threads=args.threads,
        matrix_cache=args.matrix_cache,
        token=args.token or os.environ.get("REPRO_WORKER_TOKEN") or None,
        fault_plan=fault_plan,
        fault_log=_log_fault,
        exit_on_crash=True,
    )
    print(
        f"repro worker: connecting to {args.controller_host}:{args.port} "
        f"(threads={args.threads})",
        flush=True,
    )
    reason = "stopped"
    try:
        if args.once:
            reason = agent.serve()
        else:
            reason = agent.run_forever(reconnect_delay=args.reconnect_delay)
    except KeyboardInterrupt:
        pass
    finally:
        agent.stop()
    if reason == "rejected":
        print(
            f"repro worker: {agent.last_error or 'registration rejected'}",
            file=sys.stderr,
            flush=True,
        )
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .bench.chaos import run_chaos

    report = run_chaos(
        seed=args.seed,
        duration_s=args.duration,
        workers=args.workers,
        nodes=args.nodes,
        avg_degree=args.avg_degree,
        dim=args.dim,
        pattern=args.pattern,
        stall_timeout_s=args.stall_timeout,
    )
    printable = []
    for row in report["rows"]:
        flat = dict(row)
        counts = flat.pop("fault_counts", {})
        flat["faults"] = (
            ",".join(f"{k}:{v}" for k, v in sorted(counts.items())) or "-"
        )
        printable.append(flat)
    print(
        format_table(
            printable,
            title=f"Chaos soak (seed={report['seed']}, "
            f"{report['duration_s']:.0f}s)",
        )
    )
    print(format_table([report["gates"]], title="Gates"))
    if not report["ok"]:
        failed = [k for k, v in report["gates"].items() if not v]
        print(f"repro chaos: FAILED gates: {failed}", file=sys.stderr)
        return 1
    print("repro chaos: all gates held (faults cost time, never bytes)")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    """Local durable training: one job, checkpointed, auto-resuming.

    With ``--checkpoint-dir``, a killed run restarted with the same
    command resumes from its newest durable checkpoint and finishes
    bitwise identical to an uninterrupted run — the chaos harness's
    training leg drives exactly this loop.
    """
    import numpy as np

    from .jobs import CheckpointStore, JobSpec, run_training

    spec = JobSpec(
        app=args.app,
        dataset=args.dataset,
        scale=args.scale,
        dim=args.dim,
        epochs=args.epochs,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        num_threads=args.threads,
    )
    store = None
    if args.checkpoint_dir:
        store = CheckpointStore(args.checkpoint_dir)
        checkpoint = store.latest()
        if checkpoint is not None:
            print(
                f"repro train: resuming from epoch {checkpoint.epoch}",
                flush=True,
            )

    def _progress(entry: dict) -> None:
        detail = " ".join(
            f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in entry.items()
            if key != "epoch"
        )
        print(
            f"repro train: epoch {entry['epoch'] + 1}/{spec.epochs} {detail}",
            flush=True,
        )

    result = run_training(spec, store=store, on_progress=_progress)
    print(
        f"repro train: done app={spec.app} epochs={result.epochs_done} "
        f"output={'x'.join(str(s) for s in result.output.shape)}",
        flush=True,
    )
    if args.output:
        np.save(args.output, result.output)
        print(f"repro train: wrote {args.output}", flush=True)
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    """Control training jobs on a running ``repro serve`` instance."""
    import json as _json
    import time as _time

    import numpy as np

    from .serve import connect

    terminal = ("completed", "failed", "cancelled")
    with connect(args.url) as client:
        if args.jobs_command == "submit":
            doc = client.train(
                app=args.app,
                dataset=args.dataset,
                scale=args.scale,
                dim=args.dim,
                epochs=args.epochs,
                seed=args.seed,
            )
            job_id = doc["job_id"]
            print(f"repro jobs: submitted {job_id}", flush=True)
            if not args.wait:
                return 0
            last_epoch = -1
            while True:
                status = client.job(job_id)
                for entry in status.get("progress", []):
                    if entry["epoch"] > last_epoch:
                        last_epoch = entry["epoch"]
                        print(
                            f"repro jobs: {job_id} epoch "
                            f"{entry['epoch'] + 1}/{status['epochs_total']}",
                            flush=True,
                        )
                if status["state"] in terminal:
                    print(f"repro jobs: {job_id} {status['state']}", flush=True)
                    return 0 if status["state"] == "completed" else 1
                _time.sleep(args.poll)
        if args.jobs_command == "list":
            rows = [
                {
                    "id": j["id"],
                    "app": j["spec"]["app"],
                    "state": j["state"],
                    "epochs": f"{j['epochs_done']}/{j['epochs_total']}",
                    "attempts": j["attempts"],
                    "error": (j.get("error") or "-")[:40],
                }
                for j in client.jobs()
            ]
            print(format_table(rows, title=f"Training jobs on {args.url}"))
            return 0
        if args.jobs_command == "status":
            print(_json.dumps(client.job(args.job_id), indent=2))
            return 0
        if args.jobs_command == "cancel":
            doc = client.cancel_job(args.job_id)
            print(f"repro jobs: {args.job_id} -> {doc['state']}")
            return 0
        # result
        rows = client.job_result(args.job_id)
        if args.output:
            np.save(args.output, rows)
            print(f"repro jobs: wrote {args.output} {rows.shape} {rows.dtype}")
        else:
            print(
                f"repro jobs: result {rows.shape} {rows.dtype} "
                f"(use --output to save)"
            )
        return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import DEFAULT_MODELS, KernelServer, ModelSpec, ServeConfig

    if args.models is None:
        models = DEFAULT_MODELS
    elif args.models == []:
        models = ()
    else:
        models = tuple(
            ModelSpec(
                name=f"{name}-{args.app}",
                dataset=name,
                app=args.app,
                dim=args.model_dim,
                scale=args.scale,
                train_epochs=args.train_epochs,
            )
            for name in args.models
        )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        wire_port=args.wire_port,
        wire_credits=args.wire_credits,
        remote_port=args.remote_port,
        remote_token=(
            args.remote_token or os.environ.get("REPRO_WORKER_TOKEN") or None
        ),
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.max_queue,
        default_deadline_ms=args.deadline_ms,
        num_threads=args.threads,
        processes=args.processes,
        heartbeat_strikes=args.heartbeat_strikes,
        fault_spec=args.fault_spec,
        job_dir=args.job_dir,
        max_jobs=args.max_jobs,
        models=models,
    )
    KernelServer(config).run()
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from .bench.trend import compare_paths, render_report

    report = compare_paths(
        args.baseline,
        args.current,
        threshold=args.threshold,
        min_seconds=args.min_seconds,
    )
    return render_report(report, threshold=args.threshold, no_fail=args.no_fail)


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.run_all import generate_report

    path = generate_report(args.output, scale=args.scale, quick=args.quick)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FusedMM reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_data = sub.add_parser("datasets", help="list the synthetic dataset registry")
    p_data.add_argument("--scale", type=float, default=0.25)
    p_data.set_defaults(func=_cmd_datasets)

    p_pat = sub.add_parser("patterns", help="list the built-in operator patterns")
    p_pat.set_defaults(func=_cmd_patterns)

    p_exp = sub.add_parser("experiments", help="list the registered paper experiments")
    p_exp.set_defaults(func=_cmd_experiments)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("key", help="experiment key, e.g. table6 or fig11")
    p_run.add_argument("--raw", action="store_true", help="print raw runner output")
    p_run.set_defaults(func=_cmd_run)

    p_kernel = sub.add_parser("kernel", help="time one kernel comparison")
    p_kernel.add_argument("--graph", default="youtube")
    p_kernel.add_argument("--pattern", default="sigmoid_embedding")
    p_kernel.add_argument("--dims", type=int, nargs="+", default=[32, 128])
    p_kernel.add_argument("--scale", type=float, default=0.5)
    p_kernel.add_argument("--repeats", type=int, default=3)
    p_kernel.add_argument("--threads", type=int, default=1)
    p_kernel.add_argument("--no-generic", action="store_true")
    p_kernel.set_defaults(func=_cmd_kernel)

    p_bench = sub.add_parser("bench", help="system benchmarks")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    for name in _BENCH_SUITES:
        suite = _bench_suite(name)
        p_suite = bench_sub.add_parser(name, help=suite.__doc__.splitlines()[0])
        p_suite.add_argument(
            "--quick",
            action="store_true",
            help="CI smoke sizes; skips the targets that need full size",
        )
        p_suite.add_argument(
            "--no-check",
            action="store_true",
            help="waive the wall-clock targets; correctness checks still fail "
            "the run",
        )
        p_suite.add_argument(
            "--json", metavar="PATH", default=None, help="write the record to PATH"
        )
        suite.add_arguments(p_suite)
        p_suite.set_defaults(func=_cmd_bench)
    p_bench_cmp = bench_sub.add_parser(
        "compare", help="diff BENCH_*.json trend records, gate on regressions"
    )
    p_bench_cmp.add_argument("baseline", help="baseline file or directory")
    p_bench_cmp.add_argument("current", help="current file or directory")
    p_bench_cmp.add_argument("--threshold", type=float, default=0.15)
    p_bench_cmp.add_argument("--min-seconds", type=float, default=5e-3)
    p_bench_cmp.add_argument("--no-fail", action="store_true")
    p_bench_cmp.set_defaults(func=_cmd_bench_compare)

    p_runtime = sub.add_parser("runtime", help="runtime observability")
    runtime_sub = p_runtime.add_subparsers(dest="runtime_command", required=True)
    p_rt_stats = runtime_sub.add_parser(
        "stats", help="drive a KernelRuntime through an epoch workload, print stats"
    )
    p_rt_stats.add_argument("--nodes", type=int, default=5_000)
    p_rt_stats.add_argument("--avg-degree", type=int, default=8)
    p_rt_stats.add_argument("--dim", type=int, default=32)
    p_rt_stats.add_argument("--epochs", type=int, default=5)
    p_rt_stats.add_argument("--pattern", default="sigmoid_embedding")
    p_rt_stats.add_argument("--threads", type=int, default=1)
    p_rt_stats.add_argument("--processes", type=int, default=0)
    p_rt_stats.add_argument(
        "--serve",
        action="store_true",
        help="also drive the micro-batching coalescer and print its "
        "window/queue metrics",
    )
    p_rt_stats.add_argument(
        "--jobs",
        action="store_true",
        help="also run one tiny checkpointed training job and print the "
        "job-manager counters (the jobs block of /statz)",
    )
    p_rt_stats.set_defaults(func=_cmd_runtime_stats)

    p_serve = sub.add_parser(
        "serve", help="start the async micro-batching HTTP serving front-end"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8571)
    p_serve.add_argument(
        "--wire-port",
        type=int,
        default=None,
        help="also listen with the binary wire protocol on this port "
        "(0 = ephemeral; omit to serve HTTP only)",
    )
    p_serve.add_argument(
        "--wire-credits",
        type=int,
        default=32,
        help="per-connection credit grant (max pipelined requests)",
    )
    p_serve.add_argument("--max-batch", type=int, default=32)
    p_serve.add_argument("--max-wait-ms", type=float, default=2.0)
    p_serve.add_argument("--max-queue", type=int, default=256)
    p_serve.add_argument(
        "--deadline-ms",
        type=float,
        default=0.0,
        help="default per-request deadline (0 = none)",
    )
    p_serve.add_argument(
        "--remote-port",
        type=int,
        default=None,
        help="open the distributed controller on this port so repro "
        "worker hosts can join the sharded tier (0 = ephemeral; omit "
        "for local-only execution)",
    )
    p_serve.add_argument(
        "--remote-token",
        default=None,
        help="shared secret repro worker hosts must present to register "
        "(defaults to $REPRO_WORKER_TOKEN; omit both to admit any peer "
        "— loopback/trusted networks only)",
    )
    p_serve.add_argument(
        "--heartbeat-strikes",
        type=int,
        default=3,
        help="consecutive missed heartbeat pings before the distributed "
        "controller evicts an idle worker host",
    )
    p_serve.add_argument(
        "--fault-spec",
        default=None,
        metavar="SPEC",
        help="inject faults into incoming requests, e.g. "
        "'delay@3:0.2,disconnect@5' (chaos/testing only)",
    )
    p_serve.add_argument("--threads", type=int, default=1)
    p_serve.add_argument("--processes", type=int, default=0)
    p_serve.add_argument(
        "--models",
        nargs="*",
        default=None,
        metavar="DATASET",
        help="datasets to pre-load as models (default: the built-in set; "
        "pass no values to serve kernels only)",
    )
    p_serve.add_argument(
        "--app",
        choices=APP_KINDS,
        default="force2vec",
        help="application trained for --models entries",
    )
    p_serve.add_argument("--model-dim", type=int, default=32)
    p_serve.add_argument("--scale", type=float, default=0.25)
    p_serve.add_argument("--train-epochs", type=int, default=1)
    p_serve.add_argument(
        "--job-dir",
        default=None,
        metavar="DIR",
        help="durable root for /v1/train jobs: checkpoints + supervision "
        "records live here and unfinished jobs are requeued at startup "
        "(default: a temporary directory, lost on restart)",
    )
    p_serve.add_argument(
        "--max-jobs",
        type=int,
        default=2,
        help="training jobs running concurrently",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_train = sub.add_parser(
        "train",
        help="run one durable training job locally: checkpoint every N "
        "epochs, auto-resume from --checkpoint-dir after a crash",
    )
    p_train.add_argument(
        "--app",
        choices=APP_KINDS,
        default="force2vec",
    )
    p_train.add_argument("--dataset", default="cora")
    p_train.add_argument("--scale", type=float, default=0.25)
    p_train.add_argument("--dim", type=int, default=32)
    p_train.add_argument("--epochs", type=int, default=4)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="epochs between durable checkpoints (0 = final only)",
    )
    p_train.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="durable checkpoint directory; a rerun with the same command "
        "resumes from the newest valid checkpoint found here",
    )
    p_train.add_argument(
        "--output",
        default=None,
        metavar="PATH.npy",
        help="write the final output matrix (embeddings/positions/"
        "probabilities) as .npy",
    )
    p_train.add_argument("--threads", type=int, default=1)
    p_train.set_defaults(func=_cmd_train)

    p_jobs = sub.add_parser(
        "jobs", help="control training jobs on a running repro serve instance"
    )
    jobs_sub = p_jobs.add_subparsers(dest="jobs_command", required=True)
    _url_kwargs = dict(
        default="http://127.0.0.1:8571",
        help="server URL (http://host:port or wire://host:port)",
    )
    p_jobs_submit = jobs_sub.add_parser("submit", help="submit a training job")
    p_jobs_submit.add_argument("--url", **_url_kwargs)
    p_jobs_submit.add_argument(
        "--app",
        choices=APP_KINDS,
        default="force2vec",
    )
    p_jobs_submit.add_argument("--dataset", default="cora")
    p_jobs_submit.add_argument("--scale", type=float, default=0.25)
    p_jobs_submit.add_argument("--dim", type=int, default=32)
    p_jobs_submit.add_argument("--epochs", type=int, default=4)
    p_jobs_submit.add_argument("--seed", type=int, default=0)
    p_jobs_submit.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job reaches a terminal state, printing "
        "per-epoch progress",
    )
    p_jobs_submit.add_argument("--poll", type=float, default=0.5)
    p_jobs_submit.set_defaults(func=_cmd_jobs)
    p_jobs_list = jobs_sub.add_parser("list", help="list known jobs")
    p_jobs_list.add_argument("--url", **_url_kwargs)
    p_jobs_list.set_defaults(func=_cmd_jobs)
    p_jobs_status = jobs_sub.add_parser(
        "status", help="status + per-epoch progress of one job"
    )
    p_jobs_status.add_argument("job_id")
    p_jobs_status.add_argument("--url", **_url_kwargs)
    p_jobs_status.set_defaults(func=_cmd_jobs)
    p_jobs_cancel = jobs_sub.add_parser("cancel", help="cancel one job")
    p_jobs_cancel.add_argument("job_id")
    p_jobs_cancel.add_argument("--url", **_url_kwargs)
    p_jobs_cancel.set_defaults(func=_cmd_jobs)
    p_jobs_result = jobs_sub.add_parser(
        "result", help="fetch a completed job's output matrix"
    )
    p_jobs_result.add_argument("job_id")
    p_jobs_result.add_argument("--url", **_url_kwargs)
    p_jobs_result.add_argument("--output", default=None, metavar="PATH.npy")
    p_jobs_result.set_defaults(func=_cmd_jobs)

    p_worker = sub.add_parser(
        "worker", help="start one distributed worker host (joins a controller)"
    )
    p_worker.add_argument(
        "--controller-host",
        default="127.0.0.1",
        help="host the controller listens on",
    )
    p_worker.add_argument(
        "--port", type=int, required=True, help="controller port to register with"
    )
    p_worker.add_argument(
        "--name", default=None, help="host name reported to the controller"
    )
    p_worker.add_argument(
        "--token",
        default=None,
        help="shared secret presented at registration (defaults to "
        "$REPRO_WORKER_TOKEN; must match the controller's token)",
    )
    p_worker.add_argument(
        "--threads", type=int, default=1, help="kernel threads per run request"
    )
    p_worker.add_argument(
        "--matrix-cache",
        type=int,
        default=16,
        help="CSR matrices kept resident (LRU)",
    )
    p_worker.add_argument(
        "--reconnect-delay",
        type=float,
        default=1.0,
        help="seconds between reconnect attempts after a controller restart",
    )
    p_worker.add_argument(
        "--once",
        action="store_true",
        help="exit when the controller disconnects instead of reconnecting",
    )
    p_worker.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="fault-injection schedule applied to RUN requests, e.g. "
        "'delay@2:0.5,drop_frame@4,crash@7+' (defaults to "
        "$REPRO_WORKER_FAULT_PLAN; chaos/testing only)",
    )
    p_worker.set_defaults(func=_cmd_worker)

    p_chaos = sub.add_parser(
        "chaos",
        help="deterministic chaos soak: inject faults everywhere, gate on "
        "bitwise outputs and zero hangs",
    )
    p_chaos.add_argument("--seed", type=int, default=7)
    p_chaos.add_argument(
        "--duration", type=float, default=60.0, help="target soak seconds"
    )
    p_chaos.add_argument(
        "--workers", type=int, default=2, help="fault-injected worker hosts"
    )
    p_chaos.add_argument("--nodes", type=int, default=3_000)
    p_chaos.add_argument("--avg-degree", type=int, default=8)
    p_chaos.add_argument("--dim", type=int, default=16)
    p_chaos.add_argument("--pattern", default="sigmoid_embedding")
    p_chaos.add_argument(
        "--stall-timeout",
        type=float,
        default=None,
        help="watchdog hang threshold in seconds (default: "
        "max(120, 2x duration))",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_report = sub.add_parser("report", help="regenerate the experiments report")
    p_report.add_argument("--output", default="EXPERIMENTS_GENERATED.md")
    p_report.add_argument("--scale", type=float, default=0.5)
    p_report.add_argument("--quick", action="store_true", help="smallest possible runs")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
