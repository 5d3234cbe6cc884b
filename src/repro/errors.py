"""Exception hierarchy for the :mod:`repro` package.

Keeping a small, explicit hierarchy lets callers distinguish usage errors
(bad shapes, unknown operators) from internal invariant violations without
matching on message strings.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ShapeError(ReproError, ValueError):
    """Raised when matrix/vector operands have incompatible shapes."""


class DTypeError(ReproError, TypeError):
    """Raised when an operand has an unsupported dtype."""


class SparseFormatError(ReproError, ValueError):
    """Raised when a sparse matrix is structurally invalid (e.g. unsorted
    or out-of-range indices, non-monotonic row pointers)."""


class OperatorError(ReproError, ValueError):
    """Raised when an unknown operator name is requested or a user-defined
    operator violates the I/O contract of its FusedMM step."""


class PatternError(ReproError, ValueError):
    """Raised when an application pattern name is unknown or its operator
    tuple is inconsistent (e.g. ROP=NOOP but SOP expects a scalar)."""


class BackendError(ReproError, ValueError):
    """Raised when an unknown kernel backend is requested or a backend
    cannot execute the requested pattern."""


class PartitionError(ReproError, ValueError):
    """Raised for invalid partitioning requests (e.g. non-positive part
    count)."""


class CodegenError(ReproError, RuntimeError):
    """Raised when kernel code generation or compilation fails."""


class DatasetError(ReproError, KeyError):
    """Raised when an unknown dataset is requested from the registry."""


class ConvergenceError(ReproError, RuntimeError):
    """Raised when an iterative application (training loop, layout) fails
    to make progress under the configured limits."""


class WorkerError(ReproError, RuntimeError):
    """Raised when a sharded-execution worker agent reports a failure
    (the agent stays registered and keeps serving).  A *lost* agent is
    not an error: its rows are retried on the survivors, then finish
    in-parent."""


class CheckpointError(ReproError, RuntimeError):
    """Raised when a checkpoint cannot be *written* or a resume request is
    inconsistent (graph fingerprint or config mismatch).  Never raised
    while *scanning* for a checkpoint to load — corrupt or torn files are
    silently skipped in favour of the newest valid one."""


class JobError(ReproError, RuntimeError):
    """Raised for training-job failures (:mod:`repro.jobs`) that no retry
    can fix: a job submitted with an invalid spec, or an app config the
    spec's ``extra`` fields do not fit."""


class JobNotFoundError(JobError, KeyError):
    """Raised when an unknown job id is requested; the serving front-end
    answers 404."""


class ServeError(ReproError, RuntimeError):
    """Base class of serving-subsystem failures (:mod:`repro.serve`).

    Each concrete subclass carries the HTTP status the front-end answers
    with, so admission-control outcomes map to wire responses in exactly
    one place."""

    http_status = 500


class QueueFullError(ServeError):
    """Raised when the coalescer's admission queue is at capacity — the
    server answers 429 so overload sheds load instead of growing the
    queue (and every queued request's latency) without bound."""

    http_status = 429


class DrainingError(ServeError):
    """Raised for requests arriving after shutdown began; the server
    answers 503 while in-flight work finishes."""

    http_status = 503


class DeadlineError(ServeError):
    """Raised when a request's deadline expired before its kernel was
    dispatched; the server answers 504 without doing the work."""

    http_status = 504


#: Status → ServeError subclass, for transports (the binary wire protocol)
#: that ship the numeric status and need the typed exception back on the
#: client side.  Inverse of the ``http_status`` class attributes above.
SERVE_STATUS_ERRORS = {
    cls.http_status: cls
    for cls in (QueueFullError, DrainingError, DeadlineError)
}


def serve_error_for_status(status: int, message: str) -> ReproError:
    """Reconstruct the typed serving error for a wire-level status code.

    Statuses without a dedicated subclass (400, 404, 500, ...) come back
    as a plain :class:`ServeError` so callers can still catch one root
    type; its ``http_status`` instance attribute preserves the code.
    """
    cls = SERVE_STATUS_ERRORS.get(status)
    if cls is not None:
        return cls(message)
    error = ServeError(message)
    error.http_status = status
    return error
