"""Deterministic chaos soak over the resilience layer (``repro chaos``).

Three legs, all gated on the same invariant the whole execution stack is
built around: **faults may cost time, never bytes**.

Distributed leg
    A :class:`~repro.runtime.KernelRuntime` with the distributed
    controller open, ``repro worker`` subprocesses carrying *seeded*
    :class:`~repro.resilience.FaultPlan` schedules (crash, disconnect,
    delay, drop_frame), plus one dedicated flapper (``disconnect@1+``)
    that must end up quarantined.  Every batch is asserted bitwise
    against the sequential kernel; halfway through, the controller is
    severed without notice (``close(notify=False)``) and rebuilt on the
    same port — the workers must rejoin through their backoff loops and
    the next batches must still match.

Mutation leg
    A :class:`~repro.runtime.dynamic.DynamicGraph` on the distributed
    tier: seeded edge batches applied between sharded runs while the
    workers carry fault plans (crashes, disconnects, delays, dropped
    frames) and the controller is severed and rebuilt mid-soak — the
    live graph handle survives its controller.  Gates: every
    acknowledged version increments by exactly one (never torn), every
    post-mutation batch is bitwise identical to a kernel on a CSR
    rebuilt from scratch out of the same edge set, and the workers
    rejoin after the restart.

Serve leg
    A :class:`~repro.serve.runner.BackgroundServer` with a seeded
    ``fault_spec`` injecting request-level faults into both the HTTP and
    binary wire front-ends, driven by retry-armed clients
    (:class:`~repro.resilience.RetryPolicy`); every response is asserted
    bitwise.

Training leg
    A real ``repro train`` subprocess with a durable checkpoint
    directory, SIGKILL-ed (``-9`` — no drain, no atexit) as soon as it
    reports epoch 2, then rerun with the same command line.  The rerun
    must print the resume banner and its final output must be bitwise
    identical to an uninterrupted reference run — the
    :mod:`repro.jobs` durability contract under the harshest crash.

A watchdog thread turns "no hangs" into an enforceable gate: if no
batch/request completes for ``stall_timeout_s`` the harness dumps its
progress and hard-exits — a hung soak fails CI instead of timing it out.

Everything is derived from one ``--seed``, so a failing soak replays.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from typing import Dict, List, Optional

import numpy as np

from ..core.fused import fusedmm
from ..graphs import rmat
from ..graphs.features import random_features
from ..resilience import FAULT_KINDS, FaultPlan, RetryPolicy
from ..runtime import KernelRuntime

__all__ = ["run_chaos"]

#: Registration wait after spawning / restarting (CI machines are slow).
_JOIN_TIMEOUT_S = 60.0


class _Watchdog:
    """Hard-exits the process when progress stalls.

    ``beat()`` after every completed unit of work; if no beat lands for
    ``stall_timeout_s`` the run has hung (a lost future, a deadlocked
    retry loop) and the watchdog prints a diagnosis and ``os._exit``-s —
    the one failure mode a soak must never convert into "wait for the CI
    timeout".
    """

    def __init__(self, stall_timeout_s: float) -> None:
        import threading

        self.stall_timeout_s = stall_timeout_s
        self._last = time.monotonic()
        self._label = "startup"
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._watch, name="repro-chaos-watchdog", daemon=True
        )
        self._thread.start()

    def beat(self, label: str) -> None:
        with self._lock:
            self._last = time.monotonic()
            self._label = label

    def close(self) -> None:
        self._stop.set()

    def _watch(self) -> None:
        while not self._stop.wait(1.0):
            with self._lock:
                stale = time.monotonic() - self._last
                label = self._label
            if stale > self.stall_timeout_s:
                print(
                    f"repro chaos: HANG — no progress for {stale:.0f}s "
                    f"(last unit: {label}); failing hard",
                    file=sys.stderr,
                    flush=True,
                )
                os._exit(3)


def _free_port() -> int:
    """An OS-assigned free TCP port (released immediately — the tiny
    reuse race is acceptable on a loopback CI box)."""
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _worker_plans(seed: int, workers: int) -> List[Optional[str]]:
    """One fault-plan spec per worker, fully determined by ``seed``.

    Worker 0 carries an explicit schedule so every fault kind is
    guaranteed to fire within a handful of batches (a purely random
    draw could leave a kind uncovered in a short soak); the rest get
    seeded random schedules for variety.
    """
    plans: List[Optional[str]] = ["delay@2:0.3,drop_frame@3,crash@6"]
    for i in range(1, workers):
        plan = FaultPlan.seeded(
            seed * 31 + i,
            steps=40,
            rate=0.2,
            kinds=("delay", "drop_frame", "disconnect"),
            max_delay_s=0.4,
        )
        plans.append(plan.to_spec() or None)
    return plans


def _spawn(port: int, name: str, plan: Optional[str], stderr_path: str):
    from .remote_bench import spawn_worker

    handle = open(stderr_path, "ab")
    try:
        return spawn_worker(
            port,
            name,
            fault_plan=plan,
            reconnect_delay=0.05,
            once=False,
            stderr=handle,
        )
    finally:
        handle.close()


def _fault_kinds_logged(paths: List[str]) -> Dict[str, int]:
    """Parse ``CHAOS-FAULT kind=...`` lines out of worker stderr logs."""
    counts: Dict[str, int] = {}
    for path in paths:
        try:
            with open(path, "rb") as fh:
                text = fh.read().decode("utf-8", errors="replace")
        except OSError:
            continue
        for line in text.splitlines():
            if "CHAOS-FAULT" not in line:
                continue
            for token in line.split():
                if token.startswith("kind="):
                    kind = token[len("kind=") :]
                    counts[kind] = counts.get(kind, 0) + 1
    return counts


def _merge_remote_stats(total: Dict[str, int], stats: Dict[str, object]) -> None:
    for key in (
        "hosts_lost",
        "retries",
        "hedges",
        "hedge_wins",
        "quarantined_hosts",
        "probes",
        "registrations_rejected",
        "batches",
        "delta_ships",
        "delta_fallbacks",
    ):
        value = stats.get(key)
        if isinstance(value, (int, float)):
            total[key] = total.get(key, 0) + int(value)


def _distributed_leg(
    *,
    seed: int,
    deadline: float,
    workers: int,
    nodes: int,
    avg_degree: int,
    dim: int,
    pattern: str,
    watchdog: _Watchdog,
    emit,
) -> Dict[str, object]:
    import subprocess

    from .remote_bench import _reap

    A = rmat(nodes, nodes * avg_degree, seed=seed)
    X = random_features(A.nrows, dim, seed=seed)
    ref = fusedmm(A, X, X, pattern=pattern, num_threads=1)

    port = _free_port()
    plans = _worker_plans(seed, workers)
    log_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    names = [f"chaos-w{i}" for i in range(workers)] + ["chaos-flapper"]
    specs = plans + ["disconnect@1+"]
    logs = [os.path.join(log_dir, f"{name}.stderr") for name in names]

    runtime = KernelRuntime(num_threads=1, processes=0, remote_port=port)
    procs: List[subprocess.Popen] = []
    stats_total: Dict[str, int] = {}
    batches = 0
    mismatches = 0
    respawns = 0
    restart_rejoined = -1
    try:
        controller = runtime.controller
        procs = [
            _spawn(port, name, spec, log)
            for name, spec, log in zip(names, specs, logs)
        ]
        controller.wait_for_hosts(workers, timeout=_JOIN_TIMEOUT_S)
        watchdog.beat("distributed: hosts joined")

        restart_at = time.monotonic() + max(
            (deadline - time.monotonic()) / 2.0, 1.0
        )
        restarted = False
        while time.monotonic() < deadline or batches < 6:
            if not restarted and time.monotonic() >= restart_at:
                # Controller "crash": sever every connection without the
                # EXIT handshake, then rebuild on the same port.  Agents
                # observe a disconnect and must rejoin via backoff.
                _merge_remote_stats(stats_total, controller.stats())
                controller.close(notify=False)
                runtime.close()
                runtime = KernelRuntime(
                    num_threads=1, processes=0, remote_port=port
                )
                controller = runtime.controller
                restart_rejoined = controller.wait_for_hosts(
                    workers, timeout=_JOIN_TIMEOUT_S
                )
                restarted = True
                emit(
                    f"repro chaos: controller restarted, "
                    f"{restart_rejoined} hosts rejoined"
                )
                watchdog.beat("distributed: controller restart")
            # Respawn workers whose crash faults killed the process —
            # the respawn replays the same plan from step 1.
            for idx, proc in enumerate(procs[:workers]):
                if proc.poll() is not None:
                    procs[idx] = _spawn(port, names[idx], specs[idx], logs[idx])
                    respawns += 1
            Z = runtime.run_sharded(A, X, pattern=pattern)
            batches += 1
            if not np.array_equal(Z, ref):
                mismatches += 1
            watchdog.beat(f"distributed: batch {batches}")
        _merge_remote_stats(stats_total, controller.stats())
    finally:
        runtime.close()
        _reap(procs)

    fault_counts = _fault_kinds_logged(logs)
    return {
        "leg": "distributed",
        "seconds": 0.0,  # filled by caller
        "batches": batches,
        "bitwise": mismatches == 0,
        "respawns": respawns,
        "restart_rejoined": restart_rejoined,
        "fault_counts": fault_counts,
        **stats_total,
    }


def _mutation_leg(
    *,
    seed: int,
    deadline: float,
    workers: int,
    nodes: int,
    avg_degree: int,
    dim: int,
    pattern: str,
    watchdog: _Watchdog,
    emit,
) -> Dict[str, object]:
    """Edge updates racing worker faults and a controller restart.

    Between sharded batches the graph mutates (seeded hot-row edge
    batches through :class:`DynamicGraph`), so RUN requests land on
    freshly delta-shipped — or, after the controller restart, fully
    re-shipped — matrix versions while the fault plans fire.  Every
    batch is checked bitwise against a kernel on a CSR rebuilt from
    scratch out of the current edge set, and every acknowledged version
    must increment by exactly one.
    """
    import subprocess

    from ..runtime.dynamic import DynamicGraph
    from .dynamic_bench import edge_batch, rebuild_csr
    from .remote_bench import _reap

    rng = np.random.default_rng(seed * 17 + 3)
    A = rmat(nodes, nodes * avg_degree, seed=seed + 2)
    X = random_features(A.nrows, dim, seed=seed + 2)
    half = max(8, A.nnz // 500)

    port = _free_port()
    plans = _worker_plans(seed + 5, workers)
    log_dir = tempfile.mkdtemp(prefix="repro-chaos-mut-")
    names = [f"chaos-m{i}" for i in range(workers)]
    logs = [os.path.join(log_dir, f"{name}.stderr") for name in names]

    runtime = KernelRuntime(num_threads=1, processes=0, remote_port=port)
    procs: List[subprocess.Popen] = []
    stats_total: Dict[str, int] = {}
    batches = 0
    mismatches = 0
    respawns = 0
    versions_ok = True
    restart_rejoined = -1
    try:
        controller = runtime.controller
        procs = [
            _spawn(port, name, spec, log)
            for name, spec, log in zip(names, plans, logs)
        ]
        controller.wait_for_hosts(workers, timeout=_JOIN_TIMEOUT_S)
        watchdog.beat("mutation: hosts joined")

        graph = DynamicGraph(A, runtime=runtime)
        expected_version = 0
        restart_at = time.monotonic() + max(
            (deadline - time.monotonic()) / 2.0, 1.0
        )
        restarted = False
        while time.monotonic() < deadline or batches < 4:
            if not restarted and time.monotonic() >= restart_at:
                # Controller "crash" with a live mutable graph: sever
                # without the EXIT handshake, rebuild on the same port,
                # and hand the graph its new runtime — versions continue,
                # dirty-shard deltas fall back to full re-ships until the
                # rejoined agents hold a base again.
                _merge_remote_stats(stats_total, controller.stats())
                controller.close(notify=False)
                runtime.close()
                runtime = KernelRuntime(
                    num_threads=1, processes=0, remote_port=port
                )
                controller = runtime.controller
                graph.runtime = runtime
                restart_rejoined = controller.wait_for_hosts(
                    workers, timeout=_JOIN_TIMEOUT_S
                )
                restarted = True
                emit(
                    f"repro chaos: mutation-leg controller restarted, "
                    f"{restart_rejoined} hosts rejoined"
                )
                watchdog.beat("mutation: controller restart")
            for idx, proc in enumerate(procs):
                if proc.poll() is not None:
                    procs[idx] = _spawn(port, names[idx], plans[idx], logs[idx])
                    respawns += 1
            insert, delete = edge_batch(rng, graph.matrix, half, half, n_hot=16)
            result = graph.apply_edges(insert=insert, delete=delete)
            expected_version += 1
            if result.version != expected_version:
                versions_ok = False
            Z = runtime.run_sharded(graph.matrix, X, pattern=pattern)
            ref = fusedmm(
                rebuild_csr(graph.matrix), X, X, pattern=pattern, num_threads=1
            )
            batches += 1
            if not np.array_equal(Z, ref):
                mismatches += 1
            watchdog.beat(f"mutation: batch {batches} (v{result.version})")
        _merge_remote_stats(stats_total, controller.stats())
        graph.close()
    finally:
        runtime.close()
        _reap(procs)

    fault_counts = _fault_kinds_logged(logs)
    return {
        "leg": "mutation",
        "seconds": 0.0,
        "batches": batches,
        "bitwise": mismatches == 0,
        "versions_monotonic": versions_ok,
        "respawns": respawns,
        "restart_rejoined": restart_rejoined,
        "fault_counts": fault_counts,
        **stats_total,
    }


def _serve_leg(
    *,
    seed: int,
    deadline: float,
    pattern: str,
    watchdog: _Watchdog,
    emit,
) -> Dict[str, object]:
    from ..serve import ServeConfig, connect
    from ..serve.runner import BackgroundServer

    A = rmat(400, 400 * 6, seed=seed + 1)
    X = random_features(A.nrows, 8, seed=seed + 1)
    ref = fusedmm(A, X, X, pattern=pattern, num_threads=1)

    plan = FaultPlan.seeded(
        seed + 99, steps=150, rate=0.15, kinds=FAULT_KINDS, max_delay_s=0.1
    )
    config = ServeConfig(
        port=0, wire_port=0, models=(), fault_spec=plan.to_spec() or None
    )
    policy = RetryPolicy(
        base_delay=0.05, max_delay=0.5, max_attempts=10, seed=seed
    )
    requests = 0
    mismatches = 0
    retries = 0
    kinds_fired = ()
    with BackgroundServer(config) as bg:
        http = connect(f"http://127.0.0.1:{bg.port}", timeout=10, retry=policy)
        wire = connect(
            f"wire://127.0.0.1:{bg.wire_port}", timeout=10, retry=policy
        )
        try:
            while time.monotonic() < deadline or requests < 40:
                for client in (http, wire):
                    Z = client.kernel(graph=A, x=X, pattern=pattern)
                    requests += 1
                    if not np.array_equal(Z, ref):
                        mismatches += 1
                watchdog.beat(f"serve: request {requests}")
            retries = http.retries_attempted + wire.retries_attempted
        finally:
            http.close()
            wire.close()
        injector = bg.server.fault_injector
        kinds_fired = injector.kinds_fired() if injector is not None else ()
        faults_fired = len(injector.fired) if injector is not None else 0
    return {
        "leg": "serve",
        "seconds": 0.0,
        "requests": requests,
        "bitwise": mismatches == 0,
        "retries": retries,
        "faults_fired": faults_fired,
        "fault_counts": {k: 1 for k in kinds_fired},
    }


def _training_leg(
    *,
    seed: int,
    watchdog: _Watchdog,
    emit,
) -> Dict[str, object]:
    """SIGKILL a real ``repro train`` mid-epoch; resume must be bitwise.

    The durable-jobs analogue of the controller-restart gate: a training
    subprocess with a checkpoint directory is killed with ``-9`` (no
    drain, no atexit) as soon as it reports epoch 2, then rerun with the
    same command line.  The rerun must print the resume banner and the
    final output must be bitwise identical to an uninterrupted
    in-process reference of the same spec.
    """
    import shutil
    import signal
    import subprocess
    from pathlib import Path

    from ..jobs import JobSpec, run_training

    spec = JobSpec(
        app="force2vec",
        dataset="harvard",
        scale=1.0,
        dim=16,
        epochs=12,
        seed=seed,
        checkpoint_every=1,
    )
    work = tempfile.mkdtemp(prefix="repro-chaos-train-")
    out_path = os.path.join(work, "out.npy")
    log_path = os.path.join(work, "train.log")
    argv = [
        sys.executable,
        "-m",
        "repro",
        "train",
        "--app",
        spec.app,
        "--dataset",
        spec.dataset,
        "--scale",
        str(spec.scale),
        "--dim",
        str(spec.dim),
        "--epochs",
        str(spec.epochs),
        "--seed",
        str(spec.seed),
        "--checkpoint-every",
        str(spec.checkpoint_every),
        "--checkpoint-dir",
        os.path.join(work, "ck"),
        "--output",
        out_path,
    ]
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")

    def _run(wait_for: Optional[str]) -> "subprocess.Popen":
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(
                argv, env=env, stdout=log, stderr=subprocess.STDOUT
            )
        if wait_for is None:
            return proc
        deadline = time.monotonic() + _JOIN_TIMEOUT_S
        while time.monotonic() < deadline and proc.poll() is None:
            if wait_for in Path(log_path).read_text(errors="replace"):
                break
            time.sleep(0.02)
        return proc

    killed_at_epoch = -1
    resumed_from = -1
    bitwise = False
    try:
        # Phase 1: kill -9 as soon as epoch 2 is reported (mid-run, with
        # at least one durable checkpoint behind it).
        proc = _run(wait_for="epoch 2/")
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=_JOIN_TIMEOUT_S)
        log_text = Path(log_path).read_text(errors="replace")
        killed_at_epoch = log_text.count("repro train: epoch")
        watchdog.beat("training: killed mid-run")

        # Phase 2: same command, same checkpoint dir — must resume.
        proc = _run(wait_for=None)
        proc.wait(timeout=_JOIN_TIMEOUT_S * 4)
        log_text = Path(log_path).read_text(errors="replace")
        for line in log_text.splitlines():
            if "resuming from epoch" in line:
                resumed_from = int(line.rsplit(" ", 1)[-1])
                break
        watchdog.beat("training: resumed run finished")

        reference = run_training(spec).output
        try:
            resumed = np.load(out_path)
            bitwise = bool(
                np.array_equal(resumed, reference)
                and resumed.dtype == reference.dtype
            )
        except (OSError, ValueError):
            bitwise = False
        watchdog.beat("training: reference compared")
        emit(
            f"repro chaos: training killed -9 after {killed_at_epoch} "
            f"epoch(s), resumed from {resumed_from}, "
            f"bitwise={'yes' if bitwise else 'NO'}"
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "leg": "training",
        "seconds": 0.0,
        "killed_at_epoch": killed_at_epoch,
        "resumed_from": resumed_from,
        "bitwise": bitwise,
        "fault_counts": {},
    }


def run_chaos(
    *,
    seed: int = 7,
    duration_s: float = 60.0,
    workers: int = 2,
    nodes: int = 3_000,
    avg_degree: int = 8,
    dim: int = 16,
    pattern: str = "sigmoid_embedding",
    stall_timeout_s: Optional[float] = None,
    emit=print,
) -> Dict[str, object]:
    """Run the full chaos soak; returns the gated report.

    ``duration_s`` is split ~2:1:1 between the distributed, mutation and
    serve legs (each still runs a minimum number of units so short smoke
    runs exercise every path); the training leg runs one fixed
    kill/resume cycle after them.  The report's ``ok`` is True only when
    every gate held: all responses bitwise, the flapper quarantined,
    workers rejoined after both controller restarts, graph versions
    incremented gaplessly under faults, at least one fault of every kind
    fired, the SIGKILL-ed training run resumed bitwise, and nothing
    hung.
    """
    if stall_timeout_s is None:
        stall_timeout_s = max(120.0, duration_s * 2)
    watchdog = _Watchdog(stall_timeout_s)
    t0 = time.monotonic()
    try:
        leg1_deadline = t0 + duration_s * 0.5
        t1 = time.monotonic()
        row1 = _distributed_leg(
            seed=seed,
            deadline=leg1_deadline,
            workers=workers,
            nodes=nodes,
            avg_degree=avg_degree,
            dim=dim,
            pattern=pattern,
            watchdog=watchdog,
            emit=emit,
        )
        row1["seconds"] = time.monotonic() - t1

        tm = time.monotonic()
        row_m = _mutation_leg(
            seed=seed,
            deadline=t0 + duration_s * 0.75,
            workers=workers,
            nodes=nodes,
            avg_degree=avg_degree,
            dim=dim,
            pattern=pattern,
            watchdog=watchdog,
            emit=emit,
        )
        row_m["seconds"] = time.monotonic() - tm

        t2 = time.monotonic()
        row2 = _serve_leg(
            seed=seed,
            deadline=t0 + duration_s,
            pattern=pattern,
            watchdog=watchdog,
            emit=emit,
        )
        row2["seconds"] = time.monotonic() - t2

        t3 = time.monotonic()
        row3 = _training_leg(seed=seed, watchdog=watchdog, emit=emit)
        row3["seconds"] = time.monotonic() - t3
    finally:
        watchdog.close()

    kinds_seen = (
        set(row1["fault_counts"])
        | set(row_m["fault_counts"])
        | set(row2["fault_counts"])
    )
    gates = {
        "bitwise": bool(row1["bitwise"] and row2["bitwise"]),
        "quarantined": int(row1.get("quarantined_hosts", 0)) >= 1,
        "rejoined_after_restart": int(row1["restart_rejoined"]) >= workers,
        "mutation_bitwise": bool(row_m["bitwise"]),
        "mutation_versions_monotonic": bool(row_m["versions_monotonic"]),
        "mutation_rejoined": int(row_m["restart_rejoined"]) >= workers,
        "all_fault_kinds": all(k in kinds_seen for k in FAULT_KINDS),
        "train_resumed": int(row3["resumed_from"]) >= 1,
        "train_bitwise": bool(row3["bitwise"]),
        "no_hang": True,  # the watchdog exits the process otherwise
    }
    return {
        "seed": seed,
        "duration_s": time.monotonic() - t0,
        "rows": [row1, row_m, row2, row3],
        "kinds_seen": tuple(sorted(kinds_seen)),
        "gates": gates,
        "ok": all(gates.values()),
    }
