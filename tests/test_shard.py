"""Tests for the sharded multi-process execution tier.

Covers the three contracts the tier advertises:

* **Bitwise equivalence** — ``run_sharded``/``submit_sharded``/epoch
  streams produce results bitwise identical to sequential single-process
  ``fusedmm`` for 1, 2 and 4 shards, across patterns and the X-less SpMM
  path.
* **Crash safety** — a hard-killed local agent never fails the call (or
  hangs it): its assignment is retried on the surviving agent, or
  finishes in-parent when none survives, bitwise either way; the slot is
  restarted and subsequent calls run on it; in-agent exceptions surface
  as :class:`~repro.errors.WorkerError` with the agent still alive.
* **Shard assignment is a partition** — a hypothesis property test checks
  that :func:`~repro.runtime.shard.assign_shards` never loses, duplicates
  or reorders a plan partition.
"""

import os
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fused import fusedmm
from repro.core.partition import RowPartition, part1d
from repro.errors import PartitionError, WorkerError
from repro.graphs import random_features, rmat
from repro.runtime import KernelRequest, KernelRuntime, assign_shards
from repro.sparse import random_csr

from _helpers import make_xy

PATTERNS = ["sigmoid_embedding", "fr_layout", "gcn", "spmm"]


@pytest.fixture(scope="module")
def medium_problem():
    """A graph big enough to split into several plan partitions."""
    A = rmat(1500, 24_000, seed=4)
    X = random_features(A.nrows, 12, seed=2)
    return A, X


# ---------------------------------------------------------------------- #
# Shard assignment (pure planning, no processes)
# ---------------------------------------------------------------------- #
def _partition_list(sizes):
    """Build a contiguous RowPartition list from (num_rows, nnz) pairs."""
    parts, start = [], 0
    for num_rows, nnz in sizes:
        parts.append(RowPartition(start=start, stop=start + num_rows, nnz=nnz))
        start += num_rows
    return parts


@given(
    sizes=st.lists(
        st.tuples(st.integers(1, 50), st.integers(0, 10_000)), max_size=24
    ),
    num_shards=st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_assign_shards_is_a_partition(sizes, num_shards):
    """No partition is lost, duplicated or reordered; shard metadata adds up."""
    parts = _partition_list(sizes)
    plan = assign_shards(parts, num_shards)
    assert plan.num_shards == num_shards
    assert len(plan.assignments) == num_shards
    flattened = [p for a in plan.assignments for p in a.parts]
    assert flattened == parts  # same objects, same order, nothing lost
    assert plan.total_nnz == sum(p.nnz for p in parts)
    for i, a in enumerate(plan.assignments):
        assert a.shard == i
        assert a.nnz == sum(p.nnz for p in a.parts)


def test_assign_shards_balances_by_nnz():
    parts = _partition_list([(10, 1000)] * 8)
    plan = assign_shards(parts, 4)
    assert [a.nnz for a in plan.assignments] == [2000] * 4
    assert plan.balance() == 1.0
    assert plan.busy_shards == 4


def test_assign_shards_more_shards_than_parts():
    parts = _partition_list([(10, 500), (10, 500)])
    plan = assign_shards(parts, 4)
    flattened = [p for a in plan.assignments for p in a.parts]
    assert flattened == parts
    assert plan.busy_shards <= 2


def test_assign_shards_rejects_nonpositive():
    with pytest.raises(PartitionError):
        assign_shards([], 0)


def test_assign_shards_empty_and_zero_nnz():
    assert assign_shards([], 3).total_nnz == 0
    parts = _partition_list([(5, 0), (5, 0), (5, 0)])
    plan = assign_shards(parts, 2)
    assert [p for a in plan.assignments for p in a.parts] == parts


def test_runtime_shard_plan_reuses_plan_partitions(medium_problem):
    A, _ = medium_problem
    rt = KernelRuntime(num_threads=1)
    plan = rt.plan(A)
    shard_plan = rt.shard_plan(A, shards=2)
    assert [p for a in shard_plan.assignments for p in a.parts] == list(
        plan.partitions
    )
    info = shard_plan.describe()
    assert info["num_shards"] == 2
    assert sum(info["shard_nnz"]) == A.nnz


# ---------------------------------------------------------------------- #
# Bitwise equivalence across shard counts
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_run_sharded_bitwise_equals_fusedmm(shards, medium_problem):
    A, X = medium_problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    with KernelRuntime(num_threads=1, processes=shards) as rt:
        Z = rt.run_sharded(A, X, pattern="sigmoid_embedding")
        assert np.array_equal(Z, ref)
        # Repeated call: matrix already on the agents, plans cached.
        assert np.array_equal(rt.run_sharded(A, X, pattern="sigmoid_embedding"), ref)
        stats = rt.stats()
        assert stats["sharded_jobs"] == 2
        assert stats["workers"]["registered_matrices"] == 1


@pytest.mark.parametrize("pattern", PATTERNS)
def test_run_sharded_patterns_bitwise(pattern, medium_problem):
    A, X = medium_problem
    ref = fusedmm(A, X, X, pattern=pattern, num_threads=1)
    with KernelRuntime(num_threads=1, processes=2) as rt:
        assert np.array_equal(rt.run_sharded(A, X, pattern=pattern), ref)


def test_run_sharded_spmm_without_x(medium_problem):
    A, X = medium_problem
    ref = KernelRuntime(num_threads=1).run(A, None, X, pattern="gcn")
    with KernelRuntime(num_threads=1, processes=2) as rt:
        assert np.array_equal(rt.run_sharded(A, None, X, pattern="gcn"), ref)


def test_run_sharded_rectangular(medium_problem):
    A = random_csr(300, 900, density=0.05, seed=8)
    X, Y = make_xy(A, 8, seed=3)
    ref = fusedmm(A, X, Y, pattern="sigmoid_embedding", num_threads=1)
    with KernelRuntime(num_threads=1, processes=2) as rt:
        assert np.array_equal(
            rt.run_sharded(A, X, Y, pattern="sigmoid_embedding"), ref
        )


def test_submit_sharded_returns_future(medium_problem):
    A, X = medium_problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    with KernelRuntime(num_threads=1, processes=2) as rt:
        futs = [rt.submit_sharded(A, X, pattern="sigmoid_embedding") for _ in range(3)]
        for fut in futs:
            assert np.array_equal(fut.result(timeout=60), ref)
        assert rt.stats()["sharded_submitted"] == 3


def test_run_sharded_without_processes_falls_back(medium_problem):
    A, X = medium_problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    rt = KernelRuntime(num_threads=1)  # processes=0
    assert np.array_equal(rt.run_sharded(A, X, pattern="sigmoid_embedding"), ref)
    assert rt.stats()["sharded_jobs"] == 0
    fut = rt.submit_sharded(A, X, pattern="sigmoid_embedding")
    assert np.array_equal(fut.result(timeout=30), ref)


@pytest.mark.parametrize("processes", [0, 2])
def test_every_entry_point_is_bitwise_sequential_fusedmm(processes, medium_problem):
    """Every entry point reaches the kernel through one route: with or
    without worker processes, each returns the bytes of a sequential
    ``fusedmm`` call, and each takes the tier its rules say it takes."""
    A, X = medium_problem
    pattern = "sigmoid_embedding"
    ref = fusedmm(A, X, X, pattern=pattern, num_threads=1)
    sub = A.row_slice(0, 1200)
    ref_sub = fusedmm(sub, X[:1200], X, pattern=pattern, num_threads=1)
    with KernelRuntime(
        num_threads=2, processes=processes, split_nnz=4000, shard_min_nnz=4000
    ) as rt:
        assert sub.nnz > rt.split_nnz
        stream = rt.epochs(A, pattern=pattern)
        outs = {
            "run": rt.run(A, X, X, pattern=pattern),
            "run_sharded": rt.run_sharded(A, X, X, pattern=pattern),
            "submit_sharded": rt.submit_sharded(A, X, X, pattern=pattern).result(
                timeout=60
            ),
            "step": stream.step(X, X),
            "run_batch": rt.run_batch([KernelRequest(A=A, X=X, Y=X, pattern=pattern)])[0],
        }
        for name, Z in outs.items():
            assert np.array_equal(Z, ref), name
        assert np.array_equal(stream.run_on(sub, X[:1200], X), ref_sub)
        stats = rt.stats()
    # With workers, run_sharded, submit_sharded, step and run_on shard;
    # run and the run_batch large lane always split in process.
    assert stats["sharded_jobs"] == (4 if processes else 0)
    assert stats["split_jobs"] == (2 if processes else 6)


@pytest.mark.parametrize("processes", [0, 2])
def test_close_drains_queued_submit_sharded(processes, medium_problem):
    """close() with sharded calls still queued returns promptly, and every
    queued call completes with the sequential ``fusedmm`` bytes on the
    tier it was given at submit."""
    A, X = medium_problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    rt = KernelRuntime(num_threads=2, processes=processes, split_nnz=4000)
    assert len(rt.plan(A, pattern="sigmoid_embedding").partitions) >= 2
    futures = [
        rt.submit_sharded(A, X, X, pattern="sigmoid_embedding") for _ in range(4)
    ]
    closer = threading.Thread(target=rt.close, daemon=True)
    closer.start()
    closer.join(timeout=60)
    assert not closer.is_alive(), "close() deadlocked on queued sharded calls"
    for fut in futures:
        assert np.array_equal(fut.result(timeout=1), ref)
    assert rt.stats()["sharded_jobs"] == (4 if processes else 0)


def test_shards_implies_processes():
    rt = KernelRuntime(num_threads=1, shards=2)
    assert rt.processes == 2
    assert rt.shards == 2


def test_epoch_stream_routes_through_shards(medium_problem):
    A, X = medium_problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    with KernelRuntime(num_threads=1, processes=2, shard_min_nnz=1000) as rt:
        stream = rt.epochs(A, pattern="sigmoid_embedding")
        assert np.array_equal(stream.step(X), ref)
        assert rt.stats()["sharded_jobs"] == 1
        # Derived matrices (run_on) go through the one-shot sharded path
        # and the agents drop them afterwards.
        sub = A.row_slice(0, 1200)
        ref_sub = fusedmm(sub, X[:1200], X, pattern="sigmoid_embedding", num_threads=1)
        assert np.array_equal(stream.run_on(sub, X[:1200], X), ref_sub)
        assert rt.stats()["workers"]["registered_matrices"] == 1


def test_small_matrices_stay_in_process():
    A = random_csr(60, 60, density=0.05, seed=3)
    X = random_features(60, 8, seed=0)
    with KernelRuntime(num_threads=1, processes=2) as rt:
        stream = rt.epochs(A, pattern="sigmoid_embedding")
        ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
        assert np.array_equal(stream.step(X), ref)
        # Below shard_min_nnz nothing was dispatched to agents …
        assert rt.stats()["sharded_jobs"] == 0
        # … and they were never even started (lazy creation).
        assert rt.stats()["workers"] is None


# ---------------------------------------------------------------------- #
# Local agent lifecycle and failure handling
# ---------------------------------------------------------------------- #
def _local_agents(rt):
    return [h for h in rt.controller.live_hosts() if h.process is not None]


def _kill(record):
    """Hard-kill one local agent behind the controller's back."""
    record.process.kill()
    record.process.join(timeout=5)


def test_worker_crash_finishes_in_parent_and_pool_recovers(medium_problem):
    """One failure rule: a killed local agent's rows are retried on the
    survivor and its slot is restarted; only when no agent survives do
    the rows finish in-parent.  Every call returns the exact bytes."""
    A, X = medium_problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    # No heartbeat between the kill and the call: the call finds the loss.
    with KernelRuntime(num_threads=1, processes=2, remote_heartbeat_s=3600) as rt:
        assert np.array_equal(rt.run_sharded(A, X, pattern="sigmoid_embedding"), ref)
        _kill(_local_agents(rt)[0])
        assert np.array_equal(rt.run_sharded(A, X, pattern="sigmoid_embedding"), ref)
        stats = rt.stats()
        assert stats["remote"]["retries"] >= 1
        assert stats["parent_fallbacks"] == 0
        assert stats["workers"]["restarts"] >= 1
        assert stats["workers"]["alive"] == 2
        # Both agents lost: nothing survives to retry on.
        for record in _local_agents(rt):
            _kill(record)
        fut = rt.submit_sharded(A, X, pattern="sigmoid_embedding")
        assert np.array_equal(fut.result(timeout=60), ref)
        stats = rt.stats()
        assert stats["parent_fallbacks"] >= 1
        assert stats["workers"]["alive"] == 2
        # The restarted agents reload the matrix and serve again: no
        # assignment falls back to the parent this time.
        assert np.array_equal(rt.run_sharded(A, X, pattern="sigmoid_embedding"), ref)
        assert rt.stats()["parent_fallbacks"] == stats["parent_fallbacks"]


def test_worker_exception_propagates_without_crash(medium_problem):
    A, _ = medium_problem
    X_bad = random_features(A.nrows + 5, 12, seed=0)  # wrong row count
    with KernelRuntime(num_threads=1, processes=2) as rt:
        with pytest.raises(WorkerError):
            rt.run_sharded(A, X_bad, pattern="sigmoid_embedding")
        stats = rt.stats()["workers"]
        assert stats["alive"] == 2
        assert stats["restarts"] == 0
        X = random_features(A.nrows, 12, seed=1)
        ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
        assert np.array_equal(rt.run_sharded(A, X, pattern="sigmoid_embedding"), ref)


def test_agent_matrix_lru_bounds_resident_matrices():
    """An agent keeps at most 16 matrices (LRU) and reports what it
    evicts, so the controller's view stays exact: an evicted matrix is
    re-shipped on its next use, with results still bitwise identical."""
    mats = [random_csr(120, 120, density=0.08, seed=s) for s in range(17)]
    X = random_features(120, 6, seed=0)
    refs = [fusedmm(A, X, X, num_threads=1) for A in mats]
    with KernelRuntime(num_threads=1, processes=2) as rt:
        for A in mats:
            rt.run_sharded(A, X)
        assert rt.stats()["workers"]["registered_matrices"] == 16
        # mats[0] was evicted; running it again re-ships it (and evicts
        # the new LRU) with results still bitwise identical.
        assert np.array_equal(rt.run_sharded(mats[0], X), refs[0])
        assert rt.stats()["workers"]["registered_matrices"] == 16
        for A, ref in zip(mats, refs):
            assert np.array_equal(rt.run_sharded(A, X), ref)


def test_bench_shard_speedup_baseline_is_one_shard_row():
    """speedup_vs_1shard is anchored to the shards==1 row even when the
    shard counts are listed out of order."""
    from repro.bench.shard_bench import bench_shard_scaling

    rows = bench_shard_scaling(
        num_nodes=300, avg_degree=8, dim=8, repeats=1, shard_counts=(2, 1)
    )
    by_shards = {r["shards"]: r for r in rows}
    assert by_shards[1]["speedup_vs_1shard"] == 1.0


def _listening_inodes():
    """Socket inodes of this process that listen on TCP (Linux)."""
    mine = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            mine.add(target[len("socket:[") : -1])
    listening = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = open(table).read().splitlines()[1:]
        except OSError:
            continue
        for line in lines:
            fields = line.split()
            if fields[3] == "0A":  # TCP_LISTEN
                listening.add(fields[9])
    return mine & listening


@pytest.mark.skipif(not os.path.exists("/proc/net/tcp"), reason="needs Linux /proc")
def test_local_agents_open_no_port_and_the_listener_still_checks_tokens(
    medium_problem,
):
    """Local agents register over socketpairs: a ``processes=2`` runtime
    without ``remote_port`` listens on nothing.  A ``remote_port``
    runtime admits its local agents without a token but still refuses a
    dial-in REGISTER with a bad token (403)."""
    from repro.framing import decode_payload, encode_payload
    from repro.runtime.codec import OP_ERROR, OP_REGISTER, WORKER_CODEC

    A, X = medium_problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    before = _listening_inodes()
    with KernelRuntime(num_threads=1, processes=2) as rt:
        assert np.array_equal(rt.run_sharded(A, X, pattern="sigmoid_embedding"), ref)
        assert rt.controller.port is None
        assert rt.stats()["workers"]["alive"] == 2
        assert _listening_inodes() <= before
    with KernelRuntime(
        num_threads=1, processes=2, remote_port=0, remote_token="s3cret"
    ) as rt:
        assert np.array_equal(rt.run_sharded(A, X, pattern="sigmoid_embedding"), ref)
        assert rt.stats()["workers"]["alive"] == 2
        sock = socket.create_connection(("127.0.0.1", rt.controller.port), timeout=10)
        try:
            rfile = sock.makefile("rb")
            sock.sendall(
                WORKER_CODEC.pack_frame(
                    OP_REGISTER, 0, encode_payload({"name": "intruder", "slots": 1})
                )
            )
            opcode, _, payload = WORKER_CODEC.read_frame(rfile)
            assert opcode == OP_ERROR
            assert decode_payload(payload)[0]["status"] == 403
            rfile.close()
        finally:
            sock.close()
        assert len(rt.controller.live_hosts()) == 2


def test_worker_spec_ships_the_resolved_kind(monkeypatch):
    """Workers rebuild the kernel the parent resolved, not the requested
    backend: ``auto`` must not re-resolve on different local facts."""
    import repro.core.jit as jit
    from repro.runtime.codec import build_worker_config, run_spec_meta, spec_from_meta

    A = random_csr(80, 80, density=0.05, seed=1)
    monkeypatch.setattr(jit, "jit_available", lambda: False)
    plan = KernelRuntime(num_threads=1).plan(A, backend="auto")
    assert plan.kind != "jit"
    monkeypatch.setattr(jit, "jit_available", lambda: True)
    spec = spec_from_meta(run_spec_meta(plan))
    assert build_worker_config(spec).kind == plan.kind


def test_runtime_close_shuts_workers_down(medium_problem):
    A, X = medium_problem
    rt = KernelRuntime(num_threads=1, processes=2)
    rt.run_sharded(A, X, pattern="sigmoid_embedding")
    rt.close()
    assert rt.stats()["workers"] is None
    # Closed runtimes stay usable in process.
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    assert np.array_equal(rt.run_sharded(A, X, pattern="sigmoid_embedding"), ref)


def test_unpicklable_pattern_falls_back_in_process(medium_problem):
    """Custom patterns built from lambdas cannot cross process boundaries;
    the sharded paths detect that and run in process instead of failing."""
    A, X = medium_problem
    from repro.core.operators import OpKind, Operator

    sop = Operator(
        name="CUSTOM_SCALE",
        kinds=(OpKind.SOP,),
        edge_fn=lambda s, *rest: 0.5 * s,
        batch_fn=lambda s, *rest: 0.5 * s,
    )
    with KernelRuntime(num_threads=1, processes=2) as rt:
        ref = KernelRuntime(num_threads=1).run(
            A, X, pattern="sigmoid_embedding", sop=sop
        )
        Z = rt.run_sharded(A, X, pattern="sigmoid_embedding", sop=sop)
        assert np.array_equal(Z, ref)
        assert rt.stats()["sharded_jobs"] == 0
        assert rt.stats()["unpicklable_fallbacks"] == 1


def test_unpicklable_ablation_pattern_is_counted_as_in_process(medium_problem):
    """The ablations' all-calls pattern copies operators whose callables
    are lambdas: both sharded entry points run it in process, and
    ``stats()`` counts each such call, beside the picklable call that did
    shard."""
    from repro.experiments.ablations import all_calls_pattern

    A, X = medium_problem
    calls = all_calls_pattern("sigmoid_embedding")
    opts = dict(backend="generated")
    ref = fusedmm(A, X, X, pattern=calls, num_threads=1, **opts)
    with KernelRuntime(num_threads=1, processes=2) as rt:
        Z = rt.run_sharded(A, X, pattern="sigmoid_embedding", **opts)
        assert np.array_equal(Z, fusedmm(A, X, X, num_threads=1, **opts))
        assert np.array_equal(rt.run_sharded(A, X, pattern=calls, **opts), ref)
        fut = rt.submit_sharded(A, X, pattern=calls, **opts)
        assert np.array_equal(fut.result(timeout=60), ref)
        stats = rt.stats()
        assert stats["sharded_jobs"] == 1
        assert stats["unpicklable_fallbacks"] == 2


def test_part1d_parts_survive_shard_roundtrip(medium_problem):
    """The derived-matrix path ships recomputed part1d partitions; check the
    (start, stop, nnz) wire format reconstructs them exactly."""
    A, _ = medium_problem
    parts = part1d(A, 6)
    rebuilt = [RowPartition(*(p.start, p.stop, p.nnz)) for p in parts]
    assert rebuilt == parts


# ---------------------------------------------------------------------- #
# Apps train through the sharded tier
# ---------------------------------------------------------------------- #
def test_apps_accept_processes_and_match_in_process():
    """``processes=`` reaches the runtime, and sharded training produces
    exactly the trajectory of in-process training (determinism carries
    through the apps)."""
    from repro.apps import FRLayout, FRLayoutConfig
    from repro.graphs import Graph

    A = rmat(1200, 20_000, seed=6)
    graph = Graph(name="shardtest", adjacency=A)

    def run_layout(processes):
        layout = FRLayout(
            graph,
            FRLayoutConfig(
                dim=2, iterations=2, repulsive_samples=2, seed=0,
                processes=processes,
            ),
        )
        # Exercise the sharded tier even for this mid-sized graph.
        layout._runtime.shard_min_nnz = 1000
        return layout.run()

    baseline = run_layout(0)
    sharded = run_layout(2)
    assert np.array_equal(baseline, sharded)


def test_app_configs_expose_processes():
    from repro.apps import (
        Force2VecConfig,
        FRLayoutConfig,
        GCNConfig,
        VerseConfig,
    )

    for cfg_cls in (Force2VecConfig, FRLayoutConfig, GCNConfig, VerseConfig):
        cfg = cfg_cls(processes=3)
        assert cfg.processes == 3
