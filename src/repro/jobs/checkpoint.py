"""Crash-safe checkpoint persistence for training jobs.

The durability contract of :class:`CheckpointStore`:

* **Atomic**: a checkpoint is written to a temporary file, flushed and
  ``fsync``-ed, then ``os.replace``-d into place.  A ``kill -9`` at any
  byte boundary leaves either the previous checkpoint set or the new one
  — never a torn file that loads as garbage.
* **Self-validating**: every checkpoint file carries a magic, a CRC32 of
  its payload and the payload length.  A file that fails any of the
  three (truncated temp leftovers, a partial rename target on a
  non-atomic filesystem, bit rot) is *skipped*, not raised on.
* **Manifest as a hint, never a single point of failure**: a small
  ``MANIFEST.json`` names the latest checkpoint, but recovery leads with
  a newest-first scan of ``ckpt-*.ckpt`` files (a crash can leave the
  manifest one epoch stale) and only falls back to the hint — a corrupt,
  stale or missing manifest costs nothing, never the job.
* **Bitwise-faithful**: arrays ride the same npy payload container the
  wire protocols use (:func:`repro.framing.encode_payload`), so dtypes
  and bit patterns round-trip exactly — the checkpoint/resume
  determinism guarantee rides on this.

The ``crash_hook`` attribute is the torn-write test surface: the store
calls it (when set) at each named point of the write sequence so tests
can simulate a crash *between* the fsync and the rename, after the
rename but before the manifest update, and so on.

:func:`atomic_write` is the one write-temp-then-rename helper of the
package; the job manager's records and results use it too.
"""

from __future__ import annotations

import json
import os
import struct
import uuid
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import CheckpointError
from ..framing import ProtocolError, decode_payload, encode_payload

__all__ = ["Checkpoint", "CheckpointStore", "CHECKPOINT_MAGIC", "atomic_write"]

#: File magic of one checkpoint: magic | crc32(payload) | payload length.
CHECKPOINT_MAGIC = b"RCK1"
_HEADER = struct.Struct("!4sIQ")

_MANIFEST = "MANIFEST.json"
_SUFFIX = ".ckpt"

#: Named points of the write sequence where ``crash_hook`` fires.
CRASH_POINTS = (
    "temp-written",      # temp file flushed + fsynced, not yet renamed
    "renamed",           # checkpoint in place, manifest still stale
    "manifest-written",  # manifest updated, pruning not yet done
)


def _fsync_dir(directory: Path) -> None:
    # Persist a rename itself, not just the file contents; best effort —
    # not every platform lets you open a directory.
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(fd)


def atomic_write(
    path,
    data: bytes,
    *,
    fsync: bool = True,
    before_replace: Optional[Callable[[], None]] = None,
) -> Path:
    """Replace ``path`` with ``data`` so readers see the old or the new
    bytes, never a mix.

    The bytes go to a temp file with a unique name in the same directory
    (so concurrent writers of one path never share a temp file), which is
    flushed and fsync-ed, ``os.replace``-d over ``path``, and then the
    directory is fsync-ed so the rename is durable too.  ``fsync=False``
    keeps the atomic rename but skips both fsyncs (for files that are only
    a hint).  ``before_replace`` runs between the fsync and the rename; if
    it raises, the temp file stays behind exactly as a crash there would
    leave it.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    if before_replace is not None:
        before_replace()
    os.replace(temp, path)
    if fsync:
        _fsync_dir(path.parent)
    return path


@dataclass
class Checkpoint:
    """One loaded checkpoint: the merged state dict + bookkeeping."""

    epoch: int
    state: Dict[str, object]
    meta: Dict[str, object] = field(default_factory=dict)
    path: Optional[Path] = None


class CheckpointStore:
    """Atomically persisted, self-validating per-epoch training state.

    Parameters
    ----------
    directory:
        Where checkpoints live; created on first save.
    keep_last:
        Checkpoints retained after each save (older ones are pruned).
        The latest valid checkpoint is never pruned.
    """

    def __init__(self, directory, *, keep_last: int = 2) -> None:
        if keep_last < 1:
            raise CheckpointError(f"keep_last must be >= 1, got {keep_last}")
        self.directory = Path(directory)
        self.keep_last = int(keep_last)
        self.checkpoints_written = 0
        self.invalid_skipped = 0
        #: test hook: called with a :data:`CRASH_POINTS` name at each
        #: stage of the write sequence (raise to simulate a crash there)
        self.crash_hook: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def _hook(self, point: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(point)

    @staticmethod
    def _split_state(state: Dict[str, object]):
        arrays: Dict[str, np.ndarray] = {}
        scalars: Dict[str, object] = {}
        for key, value in state.items():
            if isinstance(value, np.ndarray):
                arrays[key] = value
            elif isinstance(value, np.generic):
                scalars[key] = value.item()
            else:
                scalars[key] = value
        return arrays, scalars

    def save(
        self,
        epoch: int,
        state: Dict[str, object],
        *,
        meta: Optional[Dict[str, object]] = None,
    ) -> Path:
        """Persist ``state`` as the checkpoint of (completed) ``epoch``.

        ``state`` may mix ndarrays (persisted bitwise as npy blobs) and
        JSON-able values; :meth:`latest` returns the same merged dict.
        ``meta`` carries job-level identity (graph fingerprint, config)
        verified on resume.
        """
        if epoch < 0:
            raise CheckpointError(f"epoch must be >= 0, got {epoch}")
        self.directory.mkdir(parents=True, exist_ok=True)
        arrays, scalars = self._split_state(state)
        doc = {
            "format": 1,
            "epoch": int(epoch),
            "state": scalars,
            "meta": dict(meta or {}),
        }
        try:
            payload = encode_payload(doc, arrays)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"state is not serialisable: {exc}") from exc
        header = _HEADER.pack(
            CHECKPOINT_MAGIC, zlib.crc32(payload), len(payload)
        )
        blob = header + payload

        name = f"ckpt-{epoch:08d}{_SUFFIX}"
        final = atomic_write(
            self.directory / name,
            blob,
            before_replace=lambda: self._hook("temp-written"),
        )
        self._hook("renamed")

        manifest = json.dumps(
            {"version": 1, "latest": name, "epoch": int(epoch)}
        ).encode("utf-8")
        # Atomic rename but deliberately *no* fsync: the manifest is a
        # recovery hint with a scan fallback, so losing it in a crash
        # costs a directory listing — not worth doubling the per-save
        # fsync count.
        atomic_write(self.directory / _MANIFEST, manifest, fsync=False)
        self._hook("manifest-written")

        self.checkpoints_written += 1
        self._prune(keep=final.name)
        return final

    def _prune(self, *, keep: str) -> None:
        """Drop all but the newest ``keep_last`` checkpoints (and any
        stale temp files); ``keep`` (the just-written file) survives
        regardless."""
        files = sorted(self.directory.glob(f"ckpt-*{_SUFFIX}"), reverse=True)
        for stale in files[self.keep_last :]:
            if stale.name != keep:
                stale.unlink(missing_ok=True)
        for pattern in (f".ckpt-*{_SUFFIX}*.tmp", f".{_MANIFEST}*.tmp"):
            for temp in self.directory.glob(pattern):
                temp.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    def _load_file(self, path: Path) -> Optional[Checkpoint]:
        """Parse + validate one checkpoint file; ``None`` when invalid."""
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        if len(blob) < _HEADER.size:
            return None
        magic, crc, length = _HEADER.unpack_from(blob)
        payload = blob[_HEADER.size :]
        if (
            magic != CHECKPOINT_MAGIC
            or len(payload) != length
            or zlib.crc32(payload) != crc
        ):
            return None
        try:
            doc, arrays = decode_payload(payload)
        except ProtocolError:
            return None
        if not isinstance(doc.get("epoch"), int):
            return None
        state: Dict[str, object] = dict(doc.get("state") or {})
        state.update(arrays)
        return Checkpoint(
            epoch=doc["epoch"],
            state=state,
            meta=dict(doc.get("meta") or {}),
            path=path,
        )

    def _candidates(self) -> List[Path]:
        """Paths to try, best first: every checkpoint file newest-first
        (zero-padded names sort by epoch), the manifest's hint appended
        as a fallback for the pathological case where the listing missed
        it.  The scan leads — a crash between the checkpoint rename and
        the manifest update leaves the manifest one epoch stale, and the
        stale hint must not shadow the newer file.  Never raises — a
        corrupt manifest is just a useless hint."""
        try:
            files = sorted(self.directory.glob(f"ckpt-*{_SUFFIX}"), reverse=True)
        except OSError:  # pragma: no cover - directory vanished
            files = []
        ordered: List[Path] = list(files)
        manifest = self.directory / _MANIFEST
        try:
            doc = json.loads(manifest.read_text())
            hint = self.directory / str(doc["latest"])
            if (
                hint.suffix == _SUFFIX
                and hint.parent == self.directory
                and hint not in ordered
            ):
                ordered.append(hint)
        except (OSError, ValueError, KeyError, TypeError):
            pass
        return ordered

    def latest(self) -> Optional[Checkpoint]:
        """The newest *valid* checkpoint, or ``None`` for a fresh start.

        Startup-safe by contract: torn files, stale temp leftovers and a
        corrupt manifest are all silently skipped (counted in
        :attr:`invalid_skipped`), never raised.
        """
        for path in self._candidates():
            checkpoint = self._load_file(path)
            if checkpoint is not None:
                return checkpoint
            self.invalid_skipped += 1
        return None

    def epochs_available(self) -> List[int]:
        """Epochs of every *valid* checkpoint on disk, ascending."""
        epochs = []
        for path in sorted(self.directory.glob(f"ckpt-*{_SUFFIX}")):
            checkpoint = self._load_file(path)
            if checkpoint is not None:
                epochs.append(checkpoint.epoch)
        return epochs

    def stats(self) -> Dict[str, int]:
        return {
            "checkpoints_written": self.checkpoints_written,
            "invalid_skipped": self.invalid_skipped,
        }
