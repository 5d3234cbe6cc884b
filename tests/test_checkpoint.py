"""Torn-write safety and durability contract of :class:`CheckpointStore`.

Every test here attacks the same guarantee: a crash at *any* byte
boundary of the write sequence — plus bit rot, truncation and stray temp
files after the fact — leaves the store returning either the previous
checkpoint or the new one, bitwise intact, and recovery never raises.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.jobs import CHECKPOINT_MAGIC, CheckpointStore, atomic_write
from repro.jobs.checkpoint import CRASH_POINTS


def _state(epoch: int, *, dtype=np.float64) -> dict:
    rng = np.random.default_rng(epoch)
    return {
        "embeddings": rng.standard_normal((7, 3)).astype(dtype),
        "epoch_count": epoch,
        "temperature": 0.1 * epoch,
    }


class _CrashAt:
    """Raise at one named crash point — the simulated ``kill -9``."""

    def __init__(self, point: str) -> None:
        self.point = point

    def __call__(self, point: str) -> None:
        if point == self.point:
            raise RuntimeError(f"simulated crash at {self.point}")


# ---------------------------------------------------------------------- #
# Round trip
# ---------------------------------------------------------------------- #
def test_round_trip_preserves_arrays_scalars_and_meta(tmp_path):
    store = CheckpointStore(tmp_path)
    state = _state(3)
    path = store.save(3, state, meta={"fingerprint": "abc", "spec": {"dim": 3}})
    assert path.exists()

    loaded = CheckpointStore(tmp_path).latest()
    assert loaded is not None
    assert loaded.epoch == 3
    assert loaded.meta == {"fingerprint": "abc", "spec": {"dim": 3}}
    assert np.array_equal(loaded.state["embeddings"], state["embeddings"])
    assert loaded.state["epoch_count"] == 3
    assert loaded.state["temperature"] == pytest.approx(0.3)


@pytest.mark.parametrize(
    "dtype", [np.float32, np.float64, np.int32, np.int64, np.uint32]
)
def test_round_trip_is_bitwise_for_every_dtype(tmp_path, dtype):
    store = CheckpointStore(tmp_path)
    array = np.arange(24, dtype=dtype).reshape(4, 6)
    store.save(1, {"a": array})
    loaded = store.latest().state["a"]
    assert loaded.dtype == array.dtype
    assert np.array_equal(loaded, array)


def test_rng_bitgenerator_state_round_trips(tmp_path):
    # The exact use the determinism contract depends on: a generator's
    # state dict survives (JSON-able scalars) and reproduces the stream.
    rng = np.random.default_rng(5)
    rng.standard_normal(10)
    state = json.loads(json.dumps(rng.bit_generator.state))
    store = CheckpointStore(tmp_path)
    store.save(1, {"rng": state})
    restored = np.random.default_rng(0)
    restored.bit_generator.state = store.latest().state["rng"]
    assert np.array_equal(rng.standard_normal(5), restored.standard_normal(5))


def test_empty_directory_is_a_fresh_start(tmp_path):
    store = CheckpointStore(tmp_path / "never-written")
    assert store.latest() is None
    assert store.epochs_available() == []


def test_save_validates_inputs(tmp_path):
    store = CheckpointStore(tmp_path)
    with pytest.raises(CheckpointError):
        store.save(-1, {})
    with pytest.raises(CheckpointError):
        store.save(0, {"bad": object()})
    with pytest.raises(CheckpointError):
        CheckpointStore(tmp_path, keep_last=0)


# ---------------------------------------------------------------------- #
# Pruning
# ---------------------------------------------------------------------- #
def test_keep_last_prunes_older_checkpoints(tmp_path):
    store = CheckpointStore(tmp_path, keep_last=2)
    for epoch in range(1, 6):
        store.save(epoch, _state(epoch))
    assert store.epochs_available() == [4, 5]
    assert store.latest().epoch == 5
    assert store.stats()["checkpoints_written"] == 5


# ---------------------------------------------------------------------- #
# Simulated crashes at every point of the write sequence
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_at_any_point_leaves_previous_or_new(tmp_path, point):
    store = CheckpointStore(tmp_path)
    store.save(1, _state(1))
    store.crash_hook = _CrashAt(point)
    with pytest.raises(RuntimeError, match="simulated crash"):
        store.save(2, _state(2))

    recovered = CheckpointStore(tmp_path)  # fresh process
    checkpoint = recovered.latest()
    assert checkpoint is not None
    if point == "temp-written":
        # Crash before the rename: the new file never landed.
        assert checkpoint.epoch == 1
    else:
        # Crash after the rename: the new checkpoint is durable even if
        # the manifest is stale ("renamed") or pruning never ran.
        assert checkpoint.epoch == 2
    assert np.array_equal(
        checkpoint.state["embeddings"], _state(checkpoint.epoch)["embeddings"]
    )


def test_stale_manifest_does_not_shadow_newer_checkpoint(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(1, _state(1))
    store.crash_hook = _CrashAt("renamed")
    with pytest.raises(RuntimeError):
        store.save(2, _state(2))
    manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
    assert manifest["epoch"] == 1  # stale on purpose
    assert CheckpointStore(tmp_path).latest().epoch == 2


def test_crash_leftovers_are_cleaned_by_the_next_save(tmp_path):
    store = CheckpointStore(tmp_path)
    store.crash_hook = _CrashAt("temp-written")
    with pytest.raises(RuntimeError):
        store.save(1, _state(1))
    assert list(tmp_path.glob(".ckpt-*.tmp"))
    store.crash_hook = None
    store.save(2, _state(2))
    assert not list(tmp_path.glob(".ckpt-*.tmp"))
    assert not list(tmp_path.glob(".MANIFEST.json.tmp"))


# ---------------------------------------------------------------------- #
# Corruption after the fact: recovery never raises
# ---------------------------------------------------------------------- #
def test_truncated_checkpoint_falls_back_to_previous(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(1, _state(1))
    newest = store.save(2, _state(2))
    blob = newest.read_bytes()
    newest.write_bytes(blob[: len(blob) // 2])

    recovered = CheckpointStore(tmp_path)
    checkpoint = recovered.latest()
    assert checkpoint.epoch == 1
    assert recovered.invalid_skipped >= 1


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda blob: b"",                                  # zero-length file
        lambda blob: blob[: len(CHECKPOINT_MAGIC)],        # header cut short
        lambda blob: b"XXXX" + blob[4:],                   # wrong magic
        lambda blob: blob[:-8] + b"\x00" * 8,              # payload bit rot
        lambda blob: blob + b"junk",                       # trailing garbage
    ],
)
def test_corrupt_single_checkpoint_recovers_to_none(tmp_path, corrupt):
    store = CheckpointStore(tmp_path)
    path = store.save(1, _state(1))
    path.write_bytes(corrupt(path.read_bytes()))
    recovered = CheckpointStore(tmp_path)
    assert recovered.latest() is None  # never raises
    assert recovered.invalid_skipped >= 1


def test_corrupt_manifest_is_just_a_useless_hint(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(1, _state(1))
    store.save(2, _state(2))
    for garbage in (b"not json", b'{"latest": 42}', b'{"latest": "../x.ckpt"}'):
        (tmp_path / "MANIFEST.json").write_bytes(garbage)
        assert CheckpointStore(tmp_path).latest().epoch == 2
    os.unlink(tmp_path / "MANIFEST.json")
    assert CheckpointStore(tmp_path).latest().epoch == 2


def test_stray_tmp_files_are_ignored_by_recovery(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save(1, _state(1))
    (tmp_path / ".ckpt-00000009.ckpt.tmp").write_bytes(b"partial write")
    assert CheckpointStore(tmp_path).latest().epoch == 1


# ---------------------------------------------------------------------- #
# The shared atomic-write helper
# ---------------------------------------------------------------------- #
def test_atomic_write_interleaved_writers_of_one_path(tmp_path):
    # A second writer runs to completion inside the first one's
    # fsync-to-rename window.  With a shared temp name the first rename
    # would lose its source (FileNotFoundError); unique temps keep both.
    target = tmp_path / "job.json"
    atomic_write(
        target,
        b"first",
        before_replace=lambda: atomic_write(target, b"second"),
    )
    assert target.read_bytes() == b"first"  # the last rename wins
    assert not list(tmp_path.glob(".*.tmp"))


def test_atomic_write_crash_before_rename_keeps_the_old_bytes(tmp_path):
    target = tmp_path / "result.npy"
    atomic_write(target, b"old")

    def crash():
        raise RuntimeError("simulated crash")

    with pytest.raises(RuntimeError):
        atomic_write(target, b"new", before_replace=crash)
    assert target.read_bytes() == b"old"
    assert len(list(tmp_path.glob(".result.npy.*.tmp"))) == 1  # as a kill leaves it
