"""The worker execution protocol: frames, payloads and the shard executor.

Every shard of the sharded tier runs on a :mod:`~repro.runtime.remote`
worker agent — a local slot over a :func:`socket.socketpair` or a host
dialled in over TCP — and both speak this one protocol: framed messages
whose operands ride as npy blobs on :mod:`repro.framing` frames.  This
module holds everything the controller and the agents must agree on:

* the opcodes and the ``b"RK"`` :class:`~repro.framing.FrameCodec`;
* CSR and run-spec serialisation (JSON meta + named arrays — no pickles
  cross a process boundary);
* the one shard executor, :func:`execute_parts`: it rebuilds the dispatch
  config from a run spec (:func:`build_worker_config`) and runs a shard's
  row ranges into an ``out=`` window.  The agent, the controller's
  straggler hedge and the runtime's in-parent fallback all call it, so a
  row executes through the *same* config and call shape wherever it
  lands;
* the one output-dtype rule (:func:`output_dtype`) and the one
  covered-rows write-back (:func:`scatter_rows`).

Determinism note: a run spec carries everything data-dependent the parent
resolved (the kernel kind and autotuned block size), so rebuilt configs
execute exactly the kernel a single-process call would — the
bitwise-identity contract across shard counts extends across hosts.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..core.partition import RowPartition
from ..core.patterns import OpPattern, pattern_key
from ..framing import FrameCodec
from ..sparse import CSRMatrix

__all__ = [
    "WORKER_MAGIC",
    "WORKER_VERSION",
    "WORKER_CODEC",
    "WORKER_MAX_PAYLOAD",
    "OP_REGISTER",
    "OP_WELCOME",
    "OP_PING",
    "OP_LOAD",
    "OP_DROP",
    "OP_RUN",
    "OP_EXIT",
    "OP_LOAD_DELTA",
    "OP_RESULT",
    "OP_ERROR",
    "encode_csr",
    "decode_csr",
    "encode_csr_delta",
    "splice_csr_delta",
    "run_spec_meta",
    "spec_from_meta",
    "build_worker_config",
    "config_cache_key",
    "output_dtype",
    "execute_parts",
    "scatter_rows",
]

WORKER_MAGIC = b"RK"
WORKER_VERSION = 2

#: Default per-frame payload cap for the worker transport (both sides).
#: Frames carry whole CSRs and operand blocks, so the bound is generous —
#: but it must exist: a forged 4-byte length field must never drive an
#: unbounded allocation.  Override per agent/controller for bigger jobs.
WORKER_MAX_PAYLOAD = 1 << 30

#: agent → controller, once per connection: {"name", "slots", "threads", "pid"}
OP_REGISTER = 0x01
#: controller → agent, the registration ack: {"host_id"}
OP_WELCOME = 0x02
#: controller → agent heartbeat; answered with an empty OP_RESULT
OP_PING = 0x03
#: controller → agent: cache a CSR under meta["key"] (idempotent)
OP_LOAD = 0x10
#: controller → agent: release the CSR under meta["key"]
OP_DROP = 0x11
#: controller → agent: execute meta["parts"] row-ranges of meta["key"]
OP_RUN = 0x12
#: controller → agent: leave the serve loop
OP_EXIT = 0x13
#: controller → agent: cache meta["key"] by splicing dirty rows onto the
#: already-loaded CSR under meta["base_key"] (dynamic-graph re-ship; the
#: payload is proportional to the dirty rows, not the matrix).  Every
#: agent of :data:`WORKER_VERSION` 2 understands it; the controller falls
#: back to a full OP_LOAD when the base was evicted (ERROR {missing_key:
#: base_key}).
OP_LOAD_DELTA = 0x14
#: success reply (payload depends on the request opcode)
OP_RESULT = 0x20
#: failure reply: {"status", "error"} (+ "missing_key" for evicted CSRs)
OP_ERROR = 0x21

#: The worker transport's frame codec — same mechanics as the serving
#: wire protocol (:data:`repro.serve.wire.WIRE_CODEC`), different magic.
WORKER_CODEC = FrameCodec(WORKER_MAGIC, WORKER_VERSION)


# ---------------------------------------------------------------------- #
# CSR serialisation
# ---------------------------------------------------------------------- #
def encode_csr(A: CSRMatrix) -> Tuple[dict, Dict[str, np.ndarray]]:
    """``A`` as (meta, arrays) for one LOAD payload."""
    meta = {"nrows": int(A.nrows), "ncols": int(A.ncols)}
    arrays = {
        "indptr": np.asarray(A.indptr),
        "indices": np.asarray(A.indices),
        "data": np.asarray(A.data),
    }
    return meta, arrays


def decode_csr(meta: dict, arrays: Dict[str, np.ndarray]) -> CSRMatrix:
    """Rebuild the CSR a LOAD payload carries (validated on arrival).

    ``check=False``: the parent validated this matrix when it was
    constructed and the npy codec is bitwise-faithful.
    """
    return CSRMatrix(
        int(meta["nrows"]),
        int(meta["ncols"]),
        arrays["indptr"],
        arrays["indices"],
        arrays["data"],
        check=False,
    )


def encode_csr_delta(
    base_key: str,
    rows: np.ndarray,
    counts: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """A dirty-row splice as (meta, arrays) for one LOAD_DELTA payload.

    ``rows``/``counts`` name the replaced rows and their new lengths;
    ``indices``/``data`` carry the new rows' contents concatenated in row
    order — the same arguments :func:`repro.sparse.delta.splice_rows`
    takes, so both sides splice through the one shared primitive.
    """
    meta = {"base_key": str(base_key)}
    arrays = {
        "rows": np.ascontiguousarray(rows, dtype=np.int64),
        "counts": np.ascontiguousarray(counts, dtype=np.int64),
        "indices": np.ascontiguousarray(indices, dtype=np.int64),
        "data": np.ascontiguousarray(data),
    }
    return meta, arrays


def splice_csr_delta(base: CSRMatrix, arrays: Dict[str, np.ndarray]) -> CSRMatrix:
    """Rebuild the new matrix version a LOAD_DELTA payload describes."""
    from ..sparse.delta import splice_rows

    return splice_rows(
        base,
        arrays["rows"],
        arrays["counts"],
        arrays["indices"],
        arrays["data"],
    )


# ---------------------------------------------------------------------- #
# Run specs
# ---------------------------------------------------------------------- #
_PATTERN_SLOTS = ("vop", "rop", "sop", "mop", "aop")


def run_spec_meta(plan) -> Optional[dict]:
    """The JSON RUN meta of a :class:`~repro.runtime.plan.KernelPlan`, or
    ``None`` when the plan cannot leave the process.

    Agents rebuild the dispatch config from this spec; the parent resolves
    everything data-dependent (the kernel kind and autotuned block size)
    *before* shipping, so every agent executes exactly the kernel a
    single-process call would.  The spec carries the resolved
    ``plan.kind``, not the requested backend: every kind is a
    :data:`~repro.core.fused.BACKENDS` entry that resolves to itself, so an
    agent never re-runs ``auto``'s ladder on different local facts.
    Patterns cross as their five operator *names*, so a plan ships only
    when every slot names a registered operator (every built-in pattern
    does); a callable operator slot keeps the call in process.
    """
    pattern: OpPattern = plan.op_pattern
    slots = {slot: getattr(pattern, slot) for slot in _PATTERN_SLOTS}
    if not all(isinstance(value, str) for value in slots.values()):
        return None
    return {
        "pattern": {"name": pattern.name, **slots},
        "backend": plan.kind,
        "block_size": plan.block_size,
    }


def spec_from_meta(meta: dict) -> Dict[str, object]:
    """Rebuild the worker-side run spec a RUN meta describes."""
    pattern = dict(meta["pattern"])
    op_pattern = OpPattern(
        name=str(pattern["name"]),
        **{slot: str(pattern[slot]) for slot in _PATTERN_SLOTS},
    )
    block_size = meta["block_size"]
    return {
        "op_pattern": op_pattern,
        "backend": str(meta["backend"]),
        "block_size": None if block_size is None else int(block_size),
    }


# ---------------------------------------------------------------------- #
# Shard execution (agents, hedges, in-parent fallback)
# ---------------------------------------------------------------------- #
def build_worker_config(spec: Dict[str, object], *, num_threads: int = 1):
    """Rebuild the dispatch config a run spec describes (worker side)."""
    from .plan import make_config

    op_pattern = spec["op_pattern"]
    return make_config(
        op_pattern,
        op_pattern.resolved(),
        backend=spec["backend"],
        block_size=spec["block_size"],
        num_threads=num_threads,
    )


def config_cache_key(spec: Dict[str, object]) -> tuple:
    """Hashable identity of a run spec's dispatch config."""
    return (
        pattern_key(spec["op_pattern"].resolved()),
        spec["backend"],
        spec["block_size"],
    )


def output_dtype(X: Optional[np.ndarray], Y: Optional[np.ndarray]) -> np.dtype:
    """The dtype of ``Z`` for operands ``X``/``Y`` (every tier allocates
    its output with this rule): ``X``'s dtype, else a floating ``Y``'s."""
    if X is not None:
        return X.dtype
    if np.issubdtype(Y.dtype, np.floating):
        return Y.dtype
    return np.dtype(np.float32)  # pragma: no cover - integer Y normalised by kernels


def execute_parts(
    spec: Dict[str, object],
    A: CSRMatrix,
    X: Optional[np.ndarray],
    Y: Optional[np.ndarray],
    parts: Iterable,
    out: Optional[np.ndarray] = None,
    *,
    configs: Optional[dict] = None,
    num_threads: int = 1,
) -> Tuple[np.ndarray, int]:
    """Execute one shard's row ranges; returns ``(window, w0)``.

    ``parts`` are :class:`~repro.core.partition.RowPartition` objects or
    ``(start, stop, nnz)`` triples.  The rows land in the window
    ``[w0, w1)`` the parts span: ``out[w0:w1]`` of a full-height ``out``,
    or a fresh zeroed ``(w1 - w0, d)`` block when ``out`` is ``None``.
    The plan's own partitions run against the full CSR through
    ``out=``/``row_offset=``, so the arithmetic — and therefore the bytes —
    match an in-process call.  ``configs`` caches rebuilt configs across
    calls.
    """
    parts = [
        p if isinstance(p, RowPartition) else RowPartition(*map(int, p))
        for p in parts
    ]
    key = (config_cache_key(spec), num_threads)
    cfg = None if configs is None else configs.get(key)
    if cfg is None:
        cfg = build_worker_config(spec, num_threads=num_threads)
        if configs is not None:
            configs[key] = cfg
    w0 = min(p.start for p in parts)
    w1 = max(p.stop for p in parts)
    if out is None:
        d = (X if X is not None else Y).shape[1]
        window = np.zeros((w1 - w0, d), dtype=output_dtype(X, Y))
    else:
        window = out[w0:w1]
    cfg.execute(
        A,
        X,
        Y,
        parts=parts,
        num_threads=num_threads,
        block_size=spec["block_size"],
        out=window,
        row_offset=w0,
    )
    return window, w0


def scatter_rows(
    Z: np.ndarray, window: np.ndarray, w0: int, spans: Sequence
) -> None:
    """Copy the rows ``spans`` (``(start, stop, ...)`` triples) cover from
    ``window`` (whose row 0 is ``Z``'s row ``w0``) into ``Z``.

    Only covered ranges are written: a window spanning a row gap carries
    zeros there, and a full-span write would clobber rows another shard
    already completed.
    """
    for start, stop, *_ in spans:
        Z[start:stop] = window[start - w0 : stop - w0]
