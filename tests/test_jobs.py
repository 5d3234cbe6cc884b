"""The durable training-job subsystem: driver, manager, serve surface.

Three layers under test:

* ``export_state``/``load_state`` on all four apps — a resumed run must
  be **bitwise identical** to the uninterrupted seeded run (the
  determinism contract), including a hypothesis sweep over specs;
* :class:`~repro.jobs.JobManager` — admission control, cancellation,
  crash requeue under the retry budget, drain + recover, and the
  accounting invariant ``submitted == completed + failed + cancelled``;
* the serving surface — ``/v1/train`` + ``/v1/jobs`` over HTTP and the
  binary wire protocol, answering the same documents and bitwise-equal
  results.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    DrainingError,
    JobError,
    JobNotFoundError,
    QueueFullError,
)
from repro.jobs import (
    JOB_APPS,
    CheckpointStore,
    JobManager,
    JobSpec,
    build_app,
    run_training,
)

settings.register_profile("repro-jobs", deadline=None, max_examples=8)
settings.load_profile("repro-jobs")

#: Tiny spec shared by most tests — cora at 5% is ~135 nodes.
def _spec(app: str = "force2vec", **overrides) -> JobSpec:
    base = dict(
        app=app, dataset="cora", scale=0.05, dim=8, epochs=4, seed=3,
        checkpoint_every=1,
    )
    base.update(overrides)
    return JobSpec(**base)


# ---------------------------------------------------------------------- #
# Determinism: export/load on every app
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("app_kind", JOB_APPS)
def test_resume_is_bitwise_identical_per_app(app_kind, tmp_path):
    spec = _spec(app_kind)
    reference = run_training(spec).output

    store = CheckpointStore(tmp_path / "ck")
    partial = run_training(
        spec, store=store, should_stop=lambda: store.checkpoints_written >= 2
    )
    assert partial.stopped and partial.epochs_done < spec.epochs

    resumed = run_training(spec, store=store)  # fresh app, loads checkpoint
    assert resumed.resumed_from == partial.epochs_done
    assert resumed.epochs_done == spec.epochs
    assert resumed.output.dtype == reference.dtype
    assert np.array_equal(resumed.output, reference)


@pytest.mark.parametrize("app_kind", JOB_APPS)
def test_export_state_marks_epochs_completed(app_kind):
    spec = _spec(app_kind, epochs=2)
    _, app = build_app(spec)
    assert app.epochs_completed == 0
    app.train_epoch(0)
    assert app.epochs_completed == 1
    state = app.export_state()
    _, fresh = build_app(spec)
    fresh.load_state(state)
    assert fresh.epochs_completed == 1


@given(
    app_kind=st.sampled_from(JOB_APPS),
    dim=st.integers(min_value=2, max_value=12),
    epochs_done=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_state_round_trips_bitwise_through_the_store(
    tmp_path_factory, app_kind, dim, epochs_done, seed
):
    """hypothesis: any exported state survives the store bitwise and a
    fresh app loaded from it continues exactly where the donor stopped."""
    spec = _spec(app_kind, dim=dim, seed=seed, epochs=3)
    _, app = build_app(spec)
    for epoch in range(epochs_done):
        app.train_epoch(epoch)
    state = app.export_state()

    store = CheckpointStore(tmp_path_factory.mktemp("hyp"))
    store.save(epochs_done, state)
    loaded = store.latest().state
    _, twin = build_app(spec)
    twin.load_state(loaded)
    restate = twin.export_state()

    assert set(restate) == set(state)
    for key, value in state.items():
        if isinstance(value, np.ndarray):
            assert restate[key].dtype == value.dtype, key
            assert np.array_equal(restate[key], value), key
        else:
            assert restate[key] == value, key


# ---------------------------------------------------------------------- #
# Spec validation
# ---------------------------------------------------------------------- #
def test_spec_rejects_unknown_apps_and_fields():
    with pytest.raises(JobError):
        JobSpec(app="word2vec")
    with pytest.raises(JobError):
        JobSpec(epochs=0)
    with pytest.raises(JobError):
        JobSpec.from_dict({"app": "force2vec", "learning_rate": 0.1})
    spec = JobSpec.from_dict(_spec().to_dict())
    assert spec == _spec()


# ---------------------------------------------------------------------- #
# Fake apps for manager-level tests (no real training)
# ---------------------------------------------------------------------- #
class _FakeApp:
    """Deterministic stand-in satisfying the uniform app surface."""

    def __init__(self, spec: JobSpec, gate: threading.Event | None = None):
        self.spec = spec
        self.gate = gate
        self._epochs = 0
        self._value = float(spec.seed)

    @property
    def epochs_completed(self) -> int:
        return self._epochs

    def train_epoch(self, epoch: int):
        if self.gate is not None:
            self.gate.wait(timeout=30.0)
        self._epochs += 1
        self._value += epoch + 1
        return SimpleNamespace(seconds=0.0, loss=self._value)

    def export_state(self):
        return {"epochs": self._epochs, "value": self._value}

    def load_state(self, state):
        self._epochs = int(state["epochs"])
        self._value = float(state["value"])

    def serve_output(self):
        return np.full((3, 2), self._value, dtype=np.float64)


def _fake_factory(gate: threading.Event | None = None):
    return lambda spec: (None, _FakeApp(spec, gate))


def _assert_accounting(stats):
    assert (
        stats["submitted"]
        == stats["completed"] + stats["failed"] + stats["cancelled"]
    ), stats


# ---------------------------------------------------------------------- #
# Manager: lifecycle, admission, cancel, requeue, drain/recover
# ---------------------------------------------------------------------- #
def test_manager_runs_a_job_to_completion_bitwise(tmp_path):
    spec = _spec(epochs=3)
    reference = run_training(spec).output
    manager = JobManager(tmp_path, max_active=1)
    try:
        job_id = manager.submit(spec)
        doc = manager.wait(job_id, timeout=120.0)
        assert doc["state"] == "completed"
        assert doc["epochs_done"] == 3
        assert len(doc["progress"]) == 3
        assert np.array_equal(manager.result(job_id), reference)
        stats = manager.stats()
        assert stats["completed"] == 1
        assert stats["checkpoints_written"] >= 3
        _assert_accounting(stats)
    finally:
        manager.close()


def test_manager_admission_control_and_draining(tmp_path):
    gate = threading.Event()
    manager = JobManager(
        tmp_path, max_active=1, max_queue=1, app_factory=_fake_factory(gate)
    )
    try:
        first = manager.submit(_spec(epochs=1))
        second = manager.submit(_spec(epochs=1))  # queued
        with pytest.raises(QueueFullError):
            manager.submit(_spec(epochs=1))  # 429 past the bound
        gate.set()
        manager.wait(first, timeout=60.0)
        manager.wait(second, timeout=60.0)
        _assert_accounting(manager.stats())
    finally:
        manager.close()
    with pytest.raises(DrainingError):
        manager.submit(_spec(epochs=1))  # 503 after drain


def test_manager_rejects_duplicate_live_ids_and_unknown_ids(tmp_path):
    gate = threading.Event()
    manager = JobManager(tmp_path, max_active=1, app_factory=_fake_factory(gate))
    try:
        manager.submit(_spec(epochs=1), job_id="job-dup")
        with pytest.raises(JobError):
            manager.submit(_spec(epochs=1), job_id="job-dup")
        with pytest.raises(JobNotFoundError):
            manager.status("job-nope")
        # JobNotFoundError doubles as KeyError for dict-like call sites.
        assert issubclass(JobNotFoundError, KeyError)
        gate.set()
        manager.wait("job-dup", timeout=60.0)
    finally:
        manager.close()


def test_manager_cancel_running_job_checkpoints_and_accounts(tmp_path):
    gate = threading.Event()
    manager = JobManager(tmp_path, max_active=1, app_factory=_fake_factory(gate))
    try:
        job_id = manager.submit(_spec(epochs=50))
        deadline = time.monotonic() + 30.0
        while manager.status(job_id)["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        doc = manager.cancel(job_id)
        assert doc["state"] in ("running", "cancelled")
        gate.set()  # let the epoch finish; the boundary sees the cancel
        doc = manager.wait(job_id, timeout=60.0)
        assert doc["state"] == "cancelled"
        assert manager.cancel(job_id)["state"] == "cancelled"  # idempotent
        with pytest.raises(JobError):
            manager.result(job_id)
        _assert_accounting(manager.stats())
    finally:
        manager.close()


class _PausingManager(JobManager):
    """Holds one thread's record write between its snapshot and the
    write itself — the window where a stale record used to land last."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.paused_thread = None
        self.paused = threading.Event()
        self.release = threading.Event()

    def _write_record(self, job, revision, blob):
        if threading.current_thread() is self.paused_thread:
            self.paused.set()
            assert self.release.wait(timeout=30.0)
        super()._write_record(job, revision, blob)


def _record_on_disk(tmp_path, job_id):
    return json.loads((tmp_path / job_id / "job.json").read_text())


def test_stale_cancel_snapshot_never_overwrites_the_cancelled_record(tmp_path):
    gate, in_epoch = threading.Event(), threading.Event()

    def factory(spec):
        app = _FakeApp(spec, gate)
        train_epoch = app.train_epoch

        def gated(epoch):
            in_epoch.set()
            return train_epoch(epoch)

        app.train_epoch = gated
        return None, app

    manager = _PausingManager(tmp_path, max_active=1, app_factory=factory)
    try:
        job_id = manager.submit(_spec(epochs=50))
        assert in_epoch.wait(timeout=30.0)
        deadline = time.monotonic() + 30.0
        # cancel() snapshots the record ("running") and stalls before writing.
        canceller = threading.Thread(target=manager.cancel, args=(job_id,))
        manager.paused_thread = canceller
        canceller.start()
        assert manager.paused.wait(timeout=30.0)
        # Meanwhile the job finishes its epoch, writes its progress record,
        # sees the cancel at the boundary and writes "cancelled".
        gate.set()
        while _record_on_disk(tmp_path, job_id)["state"] != "cancelled":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        newest = _record_on_disk(tmp_path, job_id)
        assert newest["epochs_done"] >= 1  # a progress write landed too
        # Now the stale snapshot reaches the disk: it must be dropped.
        manager.release.set()
        canceller.join(timeout=30.0)
        assert not canceller.is_alive()
        assert _record_on_disk(tmp_path, job_id) == newest
        assert manager.wait(job_id, timeout=30.0)["state"] == "cancelled"
        _assert_accounting(manager.stats())
    finally:
        manager.release.set()
        manager.close()
    restarted = JobManager(tmp_path, max_active=1)
    try:
        assert restarted.recover() == []  # not resurrected as "running"
        assert restarted.status(job_id)["state"] == "cancelled"
    finally:
        restarted.close()


def test_concurrent_record_writers_leave_the_newest_snapshot(tmp_path):
    gate = threading.Event()
    manager = JobManager(tmp_path, max_active=1, app_factory=_fake_factory(gate))
    errors = []

    def writer(job):
        try:
            for _ in range(40):
                manager._persist(job)
        except Exception as exc:  # noqa: BLE001 - surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        job_id = manager.submit(_spec(epochs=2))
        job = manager._get(job_id)
        threads = [threading.Thread(target=writer, args=(job,)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert _record_on_disk(tmp_path, job_id)["revision"] == job.revision
    finally:
        sys.setswitchinterval(interval)
        gate.set()
        manager.close()


def test_record_revisions_increase_with_every_write(tmp_path):
    manager = JobManager(tmp_path, max_active=1, app_factory=_fake_factory())
    try:
        job_id = manager.submit(_spec(epochs=3))
        manager.wait(job_id, timeout=60.0)
        first = _record_on_disk(tmp_path, job_id)["revision"]
        manager.cancel(job_id)  # idempotent on a terminal job, still persists
        record = _record_on_disk(tmp_path, job_id)
        assert record["state"] == "completed"
        assert record["revision"] == first + 1
    finally:
        manager.close()


@pytest.mark.parametrize("state", ["completed", "pending"])
def test_recover_continues_the_record_revision(tmp_path, state):
    """A restarted manager carries on from ``job.json``'s revision: its
    first write after ``recover()`` is revision + 1, for terminal and for
    requeued jobs alike, so the record never moves backwards."""
    first = JobManager(tmp_path, max_active=1, app_factory=_fake_factory())
    job_id = first.submit(_spec(epochs=1))
    first.wait(job_id, timeout=60.0)
    first.close()
    record = {**_record_on_disk(tmp_path, job_id), "state": state, "revision": 7}
    (tmp_path / job_id / "job.json").write_text(json.dumps(record))

    second = JobManager(tmp_path, max_active=1, app_factory=_fake_factory())
    written = []
    write_record = second._write_record

    def spy(job, revision, blob):
        written.append(revision)
        write_record(job, revision, blob)

    second._write_record = spy
    try:
        second.recover()
        if state == "completed":
            second.cancel(job_id)  # a no-op on a terminal job that persists
        second.wait(job_id, timeout=60.0)
        assert written[0] == 8
        assert _record_on_disk(tmp_path, job_id)["revision"] == written[-1]
    finally:
        second.close()


def test_manager_requeues_crashed_job_and_result_stays_bitwise(tmp_path):
    spec = _spec(epochs=4)
    reference = run_training(spec).output
    manager = JobManager(tmp_path, max_active=1, fault_spec="crash@2")
    try:
        job_id = manager.submit(spec)
        doc = manager.wait(job_id, timeout=120.0)
        assert doc["state"] == "completed"
        assert doc["attempts"] == 2  # first attempt crashed at epoch 2
        assert doc["resumed_from"] is not None  # resumed mid-schedule
        assert np.array_equal(manager.result(job_id), reference)
        stats = manager.stats()
        assert stats["requeued"] == 1
        _assert_accounting(stats)
    finally:
        manager.close()


def test_manager_fails_job_when_retry_budget_is_spent(tmp_path):
    manager = JobManager(tmp_path, max_active=1, fault_spec="crash@1+")
    try:
        job_id = manager.submit(_spec(epochs=2))
        doc = manager.wait(job_id, timeout=120.0)
        assert doc["state"] == "failed"
        assert "injected fault" in doc["error"]
        stats = manager.stats()
        assert stats["failed"] == 1
        assert stats["requeued"] >= 1
        _assert_accounting(stats)
    finally:
        manager.close()


def test_manager_drain_then_recover_resumes_bitwise(tmp_path):
    spec = _spec(epochs=6)
    reference = run_training(spec).output

    gate = threading.Event()
    real_build = build_app

    def slow_factory(s):
        graph, app = real_build(s)
        original = app.train_epoch

        def gated(epoch):
            gate.wait(timeout=30.0)
            return original(epoch)

        app.train_epoch = gated
        return graph, app

    first = JobManager(tmp_path, max_active=1, app_factory=slow_factory)
    job_id = first.submit(spec)
    deadline = time.monotonic() + 30.0
    while first.status(job_id)["state"] != "running":
        assert time.monotonic() < deadline
        time.sleep(0.01)
    drainer = threading.Thread(target=first.drain)
    drainer.start()
    gate.set()  # the epoch boundary sees _draining and stops
    drainer.join(timeout=60.0)
    assert not drainer.is_alive()
    stopped = first.status(job_id)
    assert stopped["state"] == "pending"  # resumable, on disk

    second = JobManager(tmp_path, max_active=1)
    try:
        assert second.recover() == [job_id]
        doc = second.wait(job_id, timeout=120.0)
        assert doc["state"] == "completed"
        assert np.array_equal(second.result(job_id), reference)
        _assert_accounting(second.stats())
    finally:
        second.close()


def test_recover_keeps_terminal_jobs_queryable(tmp_path):
    spec = _spec(epochs=2)
    first = JobManager(tmp_path, max_active=1)
    job_id = first.submit(spec)
    first.wait(job_id, timeout=120.0)
    result = first.result(job_id)
    first.drain()

    second = JobManager(tmp_path, max_active=1)
    try:
        assert second.recover() == []  # nothing to requeue
        assert second.status(job_id)["state"] == "completed"
        assert np.array_equal(second.result(job_id), result)  # from disk
        assert second.stats()["submitted"] == 0  # read-only reload
    finally:
        second.close()


# ---------------------------------------------------------------------- #
# Serving surface: HTTP + wire
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def jobs_server():
    from repro.serve import ServeConfig
    from repro.serve.runner import BackgroundServer

    config = ServeConfig(
        port=0, wire_port=0, models=(), max_jobs=1, max_job_queue=4
    )
    with BackgroundServer(config) as bg:
        yield bg


def _tiny_train_doc(**overrides):
    doc = dict(
        app="force2vec", dataset="cora", scale=0.05, dim=8, epochs=2, seed=9
    )
    doc.update(overrides)
    return doc


def _poll_done(client, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        doc = client.job(job_id)
        if doc["state"] in ("completed", "failed", "cancelled"):
            return doc
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


def test_http_train_job_lifecycle(jobs_server):
    from repro.serve import ServeClient

    doc = _tiny_train_doc()
    reference = run_training(JobSpec.from_dict(doc)).output
    with ServeClient("127.0.0.1", jobs_server.port, timeout=30.0) as client:
        submitted = client.train(**doc)
        job_id = submitted["job_id"]
        assert submitted["state"] == "pending"

        final = _poll_done(client, job_id)
        assert final["state"] == "completed"
        assert final["epochs_done"] == 2
        assert [p["epoch"] for p in final["progress"]] == [0, 1]

        result = client.job_result(job_id)
        assert result.dtype == reference.dtype
        assert np.array_equal(result, reference)

        assert any(j["id"] == job_id for j in client.jobs())
        stats = client.statz()["jobs"]
        assert stats["completed"] >= 1
        _assert_accounting(stats)


def test_http_train_rejects_bad_specs_and_unknown_ids(jobs_server):
    from repro.serve import ServeClient, ServeHTTPError

    with ServeClient("127.0.0.1", jobs_server.port, timeout=30.0) as client:
        with pytest.raises(ServeHTTPError) as excinfo:
            client.train(**_tiny_train_doc(app="word2vec"))
        assert excinfo.value.status == 400
        with pytest.raises(ServeHTTPError) as excinfo:
            client.job("job-does-not-exist")
        assert excinfo.value.status == 404
        with pytest.raises(ServeHTTPError) as excinfo:
            client.job_result("job-does-not-exist")
        assert excinfo.value.status == 404


def test_http_train_with_an_unknown_app_knob_fails_cleanly(jobs_server):
    """A knob the app config does not have (here the deleted ``reorder``)
    fails the job with the ``invalid extra config`` JobError when the job
    builds its app, on the first attempt (no retry can fix a spec);
    nothing trains, and the server keeps answering."""
    from repro.serve import ServeClient

    doc = _tiny_train_doc(extra={"reorder": "rcm"})
    with ServeClient("127.0.0.1", jobs_server.port, timeout=30.0) as client:
        job_id = client.train(**doc)["job_id"]
        final = _poll_done(client, job_id)
        assert final["state"] == "failed"
        assert final["attempts"] == 1
        assert final["epochs_done"] == 0
        assert final["error"].startswith("JobError: invalid extra config")
        assert "reorder" in final["error"]
        assert client.healthz()["status"] == "ok"


def test_http_cancel_job(jobs_server):
    from repro.serve import ServeClient

    with ServeClient("127.0.0.1", jobs_server.port, timeout=30.0) as client:
        job_id = client.train(**_tiny_train_doc(epochs=200, scale=0.2))["job_id"]
        doc = client.cancel_job(job_id)
        assert doc["state"] in ("pending", "running", "cancelled")
        final = _poll_done(client, job_id)
        assert final["state"] == "cancelled"


def test_wire_train_parity_with_http(jobs_server):
    from repro.serve import WireClient

    doc = _tiny_train_doc(seed=17)
    reference = run_training(JobSpec.from_dict(doc)).output
    with WireClient("127.0.0.1", jobs_server.wire_port, timeout=30.0) as client:
        job_id = client.train(**doc)["job_id"]
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            status = client.job(job_id)
            if status["state"] in ("completed", "failed", "cancelled"):
                break
            time.sleep(0.02)
        assert status["state"] == "completed"
        assert np.array_equal(client.job_result(job_id), reference)
        assert any(j["id"] == job_id for j in client.jobs())

        from repro.errors import ServeError

        with pytest.raises(ServeError) as excinfo:
            client.job("job-does-not-exist")
        assert excinfo.value.http_status == 404
