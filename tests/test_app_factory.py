"""The one app table and factory behind the model registry and the jobs.

:func:`repro.apps.build_app` builds every app kind; ``ModelSpec.build``
and ``repro.jobs.build_app`` are thin calls to it.  These tests pin that
the serve-side build is bitwise the factory plus the app's own epochs,
that both specs validate against the one kind list, and that VERSE, now
Force2Vec's trainer over its similarity matrix, grew no config field.
"""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps import APP_KINDS, APPS, VerseConfig, build_app
from repro.errors import BackendError, JobError
from repro.jobs import JOB_APPS, JobSpec
from repro.jobs import build_app as build_job_app
from repro.serve import ServeConfig
from repro.serve.config import APP_KINDS as SERVE_APP_KINDS
from repro.serve.config import ModelSpec


def _whole_run(kind: str, app, epochs: int) -> None:
    """Train ``app`` through its own whole-run method."""
    if kind == "gcn":
        app.fit(epochs=epochs)
    elif kind == "fr_layout":
        app.run(epochs)
    else:
        app.train(epochs)


@pytest.mark.parametrize("train_epochs", [0, 2])
@pytest.mark.parametrize("kind", APP_KINDS)
def test_model_spec_build_is_the_factory_plus_its_epochs(kind, train_epochs):
    spec = ModelSpec(
        name="m", dataset="cora", app=kind, dim=8, scale=0.05,
        train_epochs=train_epochs, seed=2,
    )
    config = ServeConfig(models=())
    _, served = spec.build(config)

    epochs = max(train_epochs, 1) if kind == "gcn" else train_epochs
    runtime = dict(
        seed=2, num_threads=config.num_threads, processes=config.processes,
        shard_min_nnz=config.shard_min_nnz,
        kernel_backend=config.kernel_backend,
    )
    sizes = dict(scale=0.05, dim=8, epochs=train_epochs)
    _, stepped = build_app(kind, "cora", **sizes, **runtime)
    for epoch in range(epochs):
        stepped.train_epoch(epoch)
    _, whole = build_app(kind, "cora", **sizes, **runtime)
    _whole_run(kind, whole, epochs)

    out = served.serve_output()
    for other in (stepped, whole):
        ref = other.serve_output()
        assert out.dtype == ref.dtype and np.array_equal(out, ref)
    for app in (served, stepped, whole):
        app._runtime.close()


@pytest.mark.parametrize("kind", APP_KINDS)
def test_factory_sets_the_tabled_dim_and_epoch_fields(kind):
    _, app = build_app(kind, "cora", scale=0.05, dim=6, epochs=3)
    entry = APPS[kind]
    assert isinstance(app, entry.cls) and isinstance(app.config, entry.config)
    assert getattr(app.config, entry.dim_field) == 6
    assert getattr(app.config, entry.epochs_field) == 3
    app._runtime.close()


def test_factory_rejects_a_field_the_app_does_not_have():
    with pytest.raises(TypeError):
        build_app("verse", "cora", scale=0.05, dim=4, epochs=1, negative_samples=2)
    with pytest.raises(JobError):
        build_job_app(
            JobSpec(app="verse", dataset="cora", scale=0.05, extra={"backend": "dense"})
        )


def test_one_kind_list():
    assert JOB_APPS is APP_KINDS and SERVE_APP_KINDS is APP_KINDS
    assert APP_KINDS == ("force2vec", "verse", "gcn", "fr_layout")
    assert tuple(APPS) == APP_KINDS


def test_serve_and_cli_imports_leave_the_trainers_out():
    """The kind list and the factory import no trainer: serving, job and
    worker-host processes load the apps (and the baselines they pull in)
    only when they build one.  Neither they nor a kernel call load
    ``scipy.sparse`` (~22 MB of RSS on its own)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = (
        "import sys, repro.serve, repro.cli\n"
        "heavy = ('repro.apps.force2vec', 'repro.baselines')\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "import numpy as np\n"
        "from repro import fusedmm\n"
        "from repro.sparse import random_csr\n"
        "A = random_csr(64, 64, density=0.1, seed=0)\n"
        "fusedmm(A, np.ones((64, 8), np.float32))\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "import repro.apps\n"
        "assert repro.apps.Force2Vec.__module__ == 'repro.apps.force2vec'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("kind", ["node2vec", "Force2Vec", ""])
def test_specs_reject_an_unknown_kind_against_the_same_list(kind):
    expected = re.escape(str(APP_KINDS))
    with pytest.raises(BackendError, match=expected):
        ModelSpec(name="m", dataset="cora", app=kind)
    with pytest.raises(JobError, match=expected):
        JobSpec(app=kind)


def test_verse_config_fields_are_unchanged():
    names = [f.name for f in dataclasses.fields(VerseConfig)]
    assert names == [
        "kernel_backend", "num_threads", "processes", "shard_min_nnz",
        "dim", "batch_size", "epochs", "learning_rate", "noise_samples", "seed",
    ]
    cfg = VerseConfig(64, noise_samples=4)
    assert cfg.dim == 64 and cfg.negative_samples == 4
    assert cfg.backend == "fused" and cfg.max_grad_norm == 0.0
