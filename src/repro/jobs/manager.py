"""Supervised training jobs: specs, the epoch driver and the manager.

Three layers, smallest first:

* :class:`JobSpec` — the JSON-able description of one training run
  (which app, which dataset, how many epochs, checkpoint cadence).
* :func:`run_training` — the uniform epoch loop.  Every application
  exposes ``train_epoch`` / ``export_state`` / ``load_state`` /
  ``epochs_completed``, so one driver serves all four; it resumes from
  the newest valid checkpoint, checkpoints on the configured cadence and
  stops cooperatively at epoch boundaries (cancel / drain).
* :class:`JobManager` — bounded concurrent execution of specs:
  admission control (429 past the queue bound, 503 while draining),
  crash requeue under a :class:`~repro.resilience.RetryPolicy`, graceful
  drain that checkpoints in-flight jobs, and :meth:`JobManager.recover`
  which requeues unfinished jobs found on disk after a restart.

The determinism contract: a run resumed from any checkpoint finishes
bitwise identical to the uninterrupted seeded run — minibatch order is a
pure function of ``seed + epoch`` and each app's stateful randomness
(negative/noise samplers, the FR cooling temperature) is part of its
exported state.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import apps
from ..errors import (
    CheckpointError,
    DrainingError,
    JobError,
    JobNotFoundError,
    QueueFullError,
)
from ..resilience import FaultInjector, FaultPlan, RetryPolicy
from ..runtime import matrix_fingerprint
from .checkpoint import CheckpointStore, atomic_write

__all__ = [
    "JOB_APPS",
    "JOB_STATES",
    "JobSpec",
    "Job",
    "JobManager",
    "TrainingResult",
    "build_app",
    "run_training",
]

#: The app kinds a job can train (:data:`repro.apps.APP_KINDS`).
JOB_APPS = apps.APP_KINDS

JOB_STATES = ("pending", "running", "completed", "failed", "cancelled")
TERMINAL_STATES = frozenset({"completed", "failed", "cancelled"})


# ---------------------------------------------------------------------- #
# Spec
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class JobSpec:
    """One training run, fully described by JSON-able values.

    ``checkpoint_every`` is the cadence in epochs (``0`` disables
    periodic checkpoints; a final one is still written so a completed
    job's state survives).  ``extra`` is forwarded verbatim to the app's
    config dataclass for knobs this spec doesn't name (learning rate,
    batch size, ...).
    """

    app: str = "force2vec"
    dataset: str = "cora"
    scale: float = 0.25
    dim: int = 32
    epochs: int = 4
    seed: int = 0
    checkpoint_every: int = 1
    kernel_backend: str = "auto"
    num_threads: int = 1
    extra: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.app not in JOB_APPS:
            raise JobError(
                f"unknown app kind {self.app!r}; expected one of {JOB_APPS}"
            )
        if self.epochs < 1:
            raise JobError(f"epochs must be >= 1, got {self.epochs}")
        if self.dim <= 0 or self.scale <= 0:
            raise JobError("dim and scale must be positive")
        if self.checkpoint_every < 0:
            raise JobError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.num_threads < 1:
            raise JobError(f"num_threads must be >= 1, got {self.num_threads}")
        if not isinstance(self.extra, dict):
            raise JobError(f"extra must be a dict, got {type(self.extra).__name__}")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "JobSpec":
        """Build a spec from a client payload; unknown keys are a 400, not
        a silent drop — a typoed knob should fail the submission."""
        if not isinstance(doc, dict):
            raise JobError(f"job spec must be an object, got {type(doc).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise JobError(f"unknown job spec fields: {unknown}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise JobError(f"invalid job spec: {exc}") from exc


def build_app(spec: JobSpec):
    """Instantiate the (untrained) application behind ``spec`` through
    :func:`repro.apps.build_app`; training is left to the job driver,
    which owns the epoch loop.  Returns ``(graph, app)``."""
    try:
        return apps.build_app(
            spec.app,
            spec.dataset,
            scale=spec.scale,
            dim=spec.dim,
            epochs=spec.epochs,
            seed=spec.seed,
            num_threads=spec.num_threads,
            kernel_backend=spec.kernel_backend,
            **spec.extra,
        )
    except TypeError as exc:
        raise JobError(f"invalid extra config for app {spec.app!r}: {exc}") from exc


def _train_one(app, kind: str, epoch: int) -> Dict[str, object]:
    """One epoch through the app's uniform surface, normalised to a
    JSON-able progress entry."""
    result = app.train_epoch(epoch)
    entry: Dict[str, object] = {"epoch": epoch}
    if kind in ("force2vec", "verse"):
        entry["seconds"] = float(result.seconds)
        if result.loss is not None:
            entry["loss"] = float(result.loss)
    elif kind == "gcn":
        entry["seconds"] = float(result["seconds"])
        entry["loss"] = float(result["loss"])
    elif kind == "fr_layout":
        entry["displacement"] = float(result)
    return entry


# ---------------------------------------------------------------------- #
# The epoch driver
# ---------------------------------------------------------------------- #
@dataclass
class TrainingResult:
    """What one :func:`run_training` call produced."""

    output: np.ndarray
    epochs_done: int
    resumed_from: Optional[int]
    progress: List[Dict[str, object]]
    #: ``True`` when the loop stopped at an epoch boundary (cancel/drain)
    #: before reaching ``spec.epochs`` — the checkpoint holds the state.
    stopped: bool = False


def _validate_resume(
    saved: Dict[str, object], current: Optional[Dict[str, object]]
) -> None:
    """A checkpoint may only resume the job that wrote it: same graph
    fingerprint, same spec (``epochs`` excepted — extending a finished
    schedule is legitimate)."""
    if not current:
        return
    saved_fp = saved.get("fingerprint")
    if saved_fp is not None and current.get("fingerprint") is not None:
        if saved_fp != current["fingerprint"]:
            raise CheckpointError(
                f"checkpoint belongs to a different graph: fingerprint "
                f"{saved_fp} != {current['fingerprint']}"
            )
    saved_spec = dict(saved.get("spec") or {})
    current_spec = dict(current.get("spec") or {})
    for doc in (saved_spec, current_spec):
        doc.pop("epochs", None)
        doc.pop("checkpoint_every", None)
    if saved_spec and current_spec and saved_spec != current_spec:
        diff = sorted(
            k
            for k in set(saved_spec) | set(current_spec)
            if saved_spec.get(k) != current_spec.get(k)
        )
        raise CheckpointError(
            f"checkpoint spec does not match the submitted job (differs in "
            f"{diff}); delete the checkpoint directory to start fresh"
        )


def run_training(
    spec: JobSpec,
    *,
    store: Optional[CheckpointStore] = None,
    app_factory: Optional[Callable[[JobSpec], Tuple[object, object]]] = None,
    on_progress: Optional[Callable[[Dict[str, object]], None]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    fault: Optional[FaultInjector] = None,
) -> TrainingResult:
    """Drive ``spec`` to completion (or a cooperative stop).

    With a ``store``, training resumes from the newest valid checkpoint
    and writes one every ``spec.checkpoint_every`` epochs plus a final
    one.  ``should_stop`` is polled at every epoch boundary; a stop
    checkpoints and returns ``stopped=True`` with the partial state.
    ``fault`` (when set) is stepped once per epoch — ``crash`` raises a
    :class:`RuntimeError` (a transient failure the job retries),
    ``delay`` sleeps briefly, the transport-only kinds just count as
    fired.
    """
    graph, app = (app_factory or build_app)(spec)
    meta: Optional[Dict[str, object]] = None
    if store is not None:
        meta = {"spec": spec.to_dict()}
        if graph is not None:
            meta["fingerprint"] = matrix_fingerprint(graph.adjacency)

    resumed_from: Optional[int] = None
    if store is not None:
        checkpoint = store.latest()
        if checkpoint is not None:
            _validate_resume(checkpoint.meta, meta)
            app.load_state(checkpoint.state)
            resumed_from = checkpoint.epoch

    progress: List[Dict[str, object]] = []
    every = spec.checkpoint_every
    last_saved = resumed_from if resumed_from is not None else -1

    def _checkpoint(epoch: int) -> None:
        nonlocal last_saved
        if store is not None and epoch > last_saved:
            store.save(epoch, app.export_state(), meta=meta)
            last_saved = epoch

    for epoch in range(app.epochs_completed, spec.epochs):
        if should_stop is not None and should_stop():
            _checkpoint(app.epochs_completed)
            return TrainingResult(
                output=app.serve_output(),
                epochs_done=app.epochs_completed,
                resumed_from=resumed_from,
                progress=progress,
                stopped=True,
            )
        if fault is not None:
            fired = fault.step()
            if fired is not None:
                if fired.kind == "crash":
                    raise RuntimeError(f"injected fault: {fired.to_spec()}")
                if fired.kind == "delay":
                    time.sleep(min(float(fired.arg or 0.01), 0.25))
        entry = _train_one(app, spec.app, epoch)
        progress.append(entry)
        if on_progress is not None:
            on_progress(entry)
        if every > 0 and (epoch + 1) % every == 0:
            _checkpoint(epoch + 1)

    _checkpoint(app.epochs_completed)
    return TrainingResult(
        output=app.serve_output(),
        epochs_done=app.epochs_completed,
        resumed_from=resumed_from,
        progress=progress,
    )


# ---------------------------------------------------------------------- #
# Jobs + manager
# ---------------------------------------------------------------------- #
_PROGRESS_KEPT = 200  # progress entries persisted/reported per job


class Job:
    """One submitted training run and its live supervision state."""

    def __init__(self, job_id: str, spec: JobSpec) -> None:
        self.id = job_id
        self.spec = spec
        self.state = "pending"
        self.attempts = 0
        self.epochs_done = 0
        self.progress: List[Dict[str, object]] = []
        self.error: Optional[str] = None
        self.resumed_from: Optional[int] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.output: Optional[np.ndarray] = None
        self.cancel_event = threading.Event()
        self.store: Optional[CheckpointStore] = None
        #: bumped for every record snapshot (under the manager lock)
        self.revision = 0
        #: newest revision written to ``job.json`` (under ``record_lock``)
        self.revision_on_disk = 0
        self.record_lock = threading.Lock()

    def describe(self, *, with_progress: bool = True) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "attempts": self.attempts,
            "epochs_done": self.epochs_done,
            "epochs_total": self.spec.epochs,
            "error": self.error,
            "resumed_from": self.resumed_from,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
        }
        if with_progress:
            doc["progress"] = list(self.progress[-_PROGRESS_KEPT:])
        return doc


class JobManager:
    """Bounded, crash-tolerant execution of training jobs.

    Parameters
    ----------
    job_dir:
        Durable root; each job gets ``<job_dir>/<job_id>/`` with its
        ``job.json``, checkpoints and (on completion) ``result.npy``.
        ``None`` uses a temporary directory — jobs then survive faults
        within this process but not a restart.
    max_active / max_queue:
        Concurrency bound and admission bound.  More than
        ``max_active + max_queue`` non-terminal jobs → 429.
    retry:
        Requeue budget for crashed/faulted attempts; exhausting it marks
        the job ``failed``.
    keep_last:
        Checkpoints retained per job.
    fault_spec:
        :meth:`~repro.resilience.FaultPlan.from_spec` schedule stepped
        once per trained epoch across all jobs — the chaos hook.
    app_factory:
        Test hook replacing :func:`build_app` (``spec -> (graph, app)``).
    """

    def __init__(
        self,
        job_dir: Optional[os.PathLike] = None,
        *,
        max_active: int = 2,
        max_queue: int = 8,
        retry: Optional[RetryPolicy] = None,
        keep_last: int = 2,
        fault_spec: Optional[str] = None,
        app_factory: Optional[Callable[[JobSpec], Tuple[object, object]]] = None,
    ) -> None:
        if max_active < 1 or max_queue < 0:
            raise JobError(
                f"max_active must be >= 1 and max_queue >= 0, got "
                f"{max_active}/{max_queue}"
            )
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if job_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-jobs-")
            job_dir = self._tmp.name
        self.job_dir = Path(job_dir)
        self.job_dir.mkdir(parents=True, exist_ok=True)
        self.max_active = int(max_active)
        self.max_queue = int(max_queue)
        self.keep_last = int(keep_last)
        self.retry = retry or RetryPolicy(
            base_delay=0.05, max_delay=0.5, multiplier=2.0, jitter=0.0,
            max_attempts=3, seed=0,
        )
        self._fault = (
            FaultInjector(FaultPlan.from_spec(fault_spec)) if fault_spec else None
        )
        self.app_factory = app_factory
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_active, thread_name_prefix="repro-job"
        )
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._draining = False
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.requeued = 0

    # ------------------------------------------------------------------ #
    # Paths + persistence
    # ------------------------------------------------------------------ #
    def _job_path(self, job_id: str) -> Path:
        return self.job_dir / job_id

    def _persist(self, job: Job) -> None:
        """Atomically rewrite the job's supervision record."""
        self._write_record(job, *self._snapshot(job))

    def _snapshot(self, job: Job) -> Tuple[int, bytes]:
        """The job's record as of now, stamped with the next revision.
        Taken under the manager lock, so revision order is state order."""
        with self._lock:
            job.revision += 1
            revision = job.revision
            doc = job.describe()
        doc["revision"] = revision
        return revision, json.dumps(doc, indent=2).encode("utf-8")

    def _write_record(self, job: Job, revision: int, blob: bytes) -> None:
        """Write one snapshot unless a newer one has landed already.  The
        job thread and ``cancel()`` both persist; serialising their writes
        and dropping stale snapshots means the record on disk only moves
        forward (a late ``running`` never overwrites ``cancelled``)."""
        with job.record_lock:
            if revision <= job.revision_on_disk:
                return
            path = self._job_path(job.id)
            path.mkdir(parents=True, exist_ok=True)
            atomic_write(path / "job.json", blob)
            job.revision_on_disk = revision

    def _persist_result(self, job: Job) -> None:
        if job.output is None:
            return
        buffer = io.BytesIO()
        np.save(buffer, job.output)
        atomic_write(self._job_path(job.id) / "result.npy", buffer.getvalue())

    # ------------------------------------------------------------------ #
    # Submission + admission
    # ------------------------------------------------------------------ #
    def submit(self, spec: JobSpec, *, job_id: Optional[str] = None) -> str:
        """Admit ``spec``; returns the job id.

        Raises :class:`~repro.errors.DrainingError` while shutting down
        and :class:`~repro.errors.QueueFullError` past the admission
        bound — the same typed 503/429 outcomes the request path uses.
        """
        return self._admit(Job(job_id or f"job-{uuid.uuid4().hex[:12]}", spec))

    def _admit(self, job: Job) -> str:
        with self._lock:
            if self._draining:
                raise DrainingError("job manager is draining; not accepting jobs")
            live = sum(
                1 for j in self._jobs.values() if j.state not in TERMINAL_STATES
            )
            if live >= self.max_active + self.max_queue:
                raise QueueFullError(
                    f"job queue full ({live} live jobs >= "
                    f"{self.max_active + self.max_queue})"
                )
            existing = self._jobs.get(job.id)
            if existing is not None and existing.state not in TERMINAL_STATES:
                raise JobError(f"job id {job.id!r} is already live")
            self._jobs[job.id] = job
            self.submitted += 1
        self._persist(job)
        self._executor.submit(self._execute, job)
        return job.id

    def recover(self) -> List[str]:
        """Requeue unfinished jobs found on disk (after a restart).

        Terminal jobs are loaded read-only so ``status``/``result`` keep
        answering for them; non-terminal ones are resubmitted under their
        original id and resume from their newest checkpoint.  Both carry
        on from the record's ``revision``, so the next write moves
        ``job.json`` forward.  Returns the requeued ids.
        """
        requeued: List[str] = []
        for record in sorted(self.job_dir.glob("*/job.json")):
            try:
                doc = json.loads(record.read_text())
                spec = JobSpec.from_dict(doc["spec"])
                jid = str(doc["id"])
                state = str(doc.get("state", "pending"))
                revision = int(doc.get("revision", 0))
            except (OSError, TypeError, ValueError, KeyError, JobError):
                continue  # unreadable record: skip, never block startup
            with self._lock:
                if jid in self._jobs:
                    continue
            job = Job(jid, spec)
            job.revision = job.revision_on_disk = revision
            if state in TERMINAL_STATES:
                job.state = state
                job.attempts = int(doc.get("attempts", 0))
                job.epochs_done = int(doc.get("epochs_done", 0))
                job.error = doc.get("error")
                job.progress = list(doc.get("progress") or [])
                with self._lock:
                    self._jobs[jid] = job
            else:
                self._admit(job)
                requeued.append(jid)
        return requeued

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _execute(self, job: Job) -> None:
        with self._lock:
            if job.state in TERMINAL_STATES:  # cancelled while queued
                return
            if self._draining:
                return  # stays pending; recover() picks it up next start
            job.state = "running"
            job.started = time.time()
        self._persist(job)
        job.store = CheckpointStore(
            self._job_path(job.id) / "checkpoints", keep_last=self.keep_last
        )

        def _on_progress(entry: Dict[str, object]) -> None:
            with self._lock:
                job.epochs_done = int(entry["epoch"]) + 1
                job.progress.append(entry)
                del job.progress[:-_PROGRESS_KEPT]
            self._persist(job)

        def _should_stop() -> bool:
            return job.cancel_event.is_set() or self._draining

        retry = self.retry.start(salt=job.id)
        result: Optional[TrainingResult] = None
        while True:
            with self._lock:
                job.attempts += 1
            try:
                result = run_training(
                    job.spec,
                    store=job.store,
                    app_factory=self.app_factory,
                    on_progress=_on_progress,
                    should_stop=_should_stop,
                    fault=self._fault,
                )
                break
            except Exception as exc:  # noqa: BLE001 - any attempt failure requeues
                job.error = f"{type(exc).__name__}: {exc}"
                if _should_stop():
                    break  # don't burn the retry budget on a stop request
                # A spec the app refuses or a checkpoint that belongs to
                # another job fails the same way on every attempt.
                fatal = isinstance(exc, (JobError, CheckpointError))
                delay = None if fatal else retry.next_delay()
                if delay is None:
                    with self._lock:
                        job.state = "failed"
                        job.finished = time.time()
                        self.failed += 1
                    self._persist(job)
                    return
                with self._lock:
                    self.requeued += 1
                time.sleep(min(delay, 0.5))

        with self._lock:
            if job.cancel_event.is_set():
                job.state = "cancelled"
                job.finished = time.time()
                self.cancelled += 1
            elif result is None or result.stopped:
                # drain: back to pending with the checkpoint on disk
                job.state = "pending"
            else:
                job.output = result.output
                job.resumed_from = result.resumed_from
                job.epochs_done = result.epochs_done
                job.error = None
                job.state = "completed"
                job.finished = time.time()
                self.completed += 1
        if job.state == "completed":
            self._persist_result(job)
        self._persist(job)

    # ------------------------------------------------------------------ #
    # Queries + control
    # ------------------------------------------------------------------ #
    def _get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"unknown job id {job_id!r}")
        return job

    def status(self, job_id: str) -> Dict[str, object]:
        job = self._get(job_id)
        with self._lock:
            return job.describe()

    def list_jobs(self) -> List[Dict[str, object]]:
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: j.created)
            return [j.describe(with_progress=False) for j in jobs]

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Request cancellation; running jobs stop (and checkpoint) at the
        next epoch boundary.  Idempotent on terminal jobs."""
        job = self._get(job_id)
        with self._lock:
            if job.state not in TERMINAL_STATES:
                job.cancel_event.set()
                if job.state == "pending":
                    job.state = "cancelled"
                    job.finished = time.time()
                    self.cancelled += 1
            doc = job.describe()
        self._persist(job)
        return doc

    def result(self, job_id: str) -> np.ndarray:
        """The completed job's output matrix (from memory or disk)."""
        job = self._get(job_id)
        with self._lock:
            state = job.state
            output = job.output
        if state != "completed":
            raise JobError(f"job {job_id!r} is {state}, not completed")
        if output is not None:
            return output
        path = self._job_path(job_id) / "result.npy"
        try:
            return np.load(path)
        except OSError as exc:
            raise JobError(f"result of job {job_id!r} is unavailable: {exc}") from exc

    def wait(self, job_id: str, *, timeout: float = 60.0) -> Dict[str, object]:
        """Block until the job reaches a terminal state (testing aid)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            doc = self.status(job_id)
            if doc["state"] in TERMINAL_STATES:
                return doc
            time.sleep(0.02)
        raise JobError(f"job {job_id!r} did not finish within {timeout}s")

    def stats(self) -> Dict[str, object]:
        """Counters + gauges; the ``jobs`` block of ``runtime.stats()``
        and ``/statz``.  Invariant: every in-process submission ends in
        exactly one of completed/failed/cancelled."""
        with self._lock:
            active = sum(1 for j in self._jobs.values() if j.state == "running")
            queued = sum(1 for j in self._jobs.values() if j.state == "pending")
            checkpoints = sum(
                j.store.checkpoints_written
                for j in self._jobs.values()
                if j.store is not None
            )
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "requeued": self.requeued,
                "checkpoints_written": checkpoints,
                "active": active,
                "queued": queued,
                "draining": self._draining,
            }

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def drain(self, *, timeout: float = 30.0) -> None:
        """Stop accepting jobs, checkpoint in-flight ones at their next
        epoch boundary and leave everything non-terminal resumable on
        disk (``recover()`` requeues it next start)."""
        with self._lock:
            self._draining = True
        self._executor.shutdown(wait=True, cancel_futures=True)
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            self._persist(job)
        del timeout  # cooperative stops are epoch-bounded; no hard kill

    def close(self) -> None:
        self.drain()
        if self._tmp is not None:
            try:
                self._tmp.cleanup()
            except OSError:  # pragma: no cover - best effort
                shutil.rmtree(self._tmp.name, ignore_errors=True)
            self._tmp = None
