"""Tests for the distributed worker tier (TCP transport + controller).

Covers the contracts the tier advertises:

* **Bitwise identity** — remote execution through 1, 2 and 4 worker
  hosts produces results bitwise identical to sequential single-process
  ``fusedmm``; shard *placement* (local agent, dial-in host, parent
  fallback) never changes the bytes of ``Z``.
* **Fault tolerance** — an agent that dies mid-batch (crash injection),
  local or dial-in, has its shard group re-routed to a survivor; a
  socket severed mid-frame is detected promptly (never a hang); when
  every agent dies the batch completes in-parent.  All recovery paths
  return the exact bytes.
* **Transport codec** — CSR and run-spec payloads round-trip through the
  worker protocol; non-JSON-able specs (callable operators) stay
  host-local.
* **Routing** — :func:`~repro.runtime.shard.route_shards` partitions
  shard groups by weight without losing, duplicating or reordering a
  shard.
* **Unified client API** — ``repro.serve.connect`` picks the transport
  by URL scheme, both clients satisfy the ``Client`` protocol, and HTTP
  admission errors raise the same typed ``ServeError`` subclasses the
  wire protocol reconstructs.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.fused import fusedmm
from repro.errors import (
    BackendError,
    PartitionError,
    QueueFullError,
    ServeError,
)
from repro.graphs import random_features, rmat
from repro.resilience import FaultPlan
from repro.runtime import (
    KernelRuntime,
    RemoteController,
    RuntimeOptions,
    WorkerAgent,
    route_shards,
)
from repro.runtime.codec import (
    OP_REGISTER,
    OP_RESULT,
    OP_RUN,
    OP_WELCOME,
    WORKER_CODEC,
    decode_csr,
    encode_csr,
    run_spec_meta,
    spec_from_meta,
)
from repro.framing import FRAME_HEADER, decode_payload, encode_payload

from _helpers import make_xy

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


# ---------------------------------------------------------------------- #
# Fixtures and helpers
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def problem():
    """A graph big enough to split into several plan partitions."""
    A = rmat(4000, 64_000, seed=4)
    X = random_features(A.nrows, 16, seed=2)
    return A, X


class _AgentThread:
    """A WorkerAgent served from a thread (same-process remote host)."""

    def __init__(self, port, *, reconnect_delay=1.0, **kwargs):
        self.agent = WorkerAgent("127.0.0.1", port, **kwargs)
        self.thread = threading.Thread(
            target=self.agent.run_forever,
            kwargs={"reconnect_delay": reconnect_delay},
            daemon=True,
        )
        self.thread.start()

    def stop(self):
        self.agent.stop()
        self.thread.join(timeout=10)


def _remote_runtime(n_agents, *, agent_kwargs=(), **runtime_kwargs):
    """A runtime with ``n_agents`` thread-served hosts already joined."""
    runtime = KernelRuntime(
        num_threads=1, processes=0, remote_port=0, **runtime_kwargs
    )
    controller = runtime.controller
    agents = []
    for i in range(n_agents):
        kwargs = dict(agent_kwargs[i]) if i < len(agent_kwargs) else {}
        kwargs.setdefault("name", f"a{i}")
        agents.append(_AgentThread(controller.port, **kwargs))
    assert controller.wait_for_hosts(n_agents, timeout=15.0) == n_agents
    return runtime, agents


def _teardown(runtime, agents):
    runtime.close()
    for a in agents:
        a.stop()


# ---------------------------------------------------------------------- #
# Bitwise identity: local vs remote at 1 / 2 / 4 hosts
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("hosts", [1, 2, 4])
def test_remote_bitwise_identity(problem, hosts):
    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    runtime, agents = _remote_runtime(hosts)
    try:
        Z = runtime.run_sharded(A, X, pattern="sigmoid_embedding")
        assert Z.dtype == ref.dtype
        assert np.array_equal(Z, ref)
        # Second batch rides the cached CSR on every host (no re-ship).
        assert np.array_equal(
            runtime.run_sharded(A, X, pattern="sigmoid_embedding"), ref
        )
    finally:
        _teardown(runtime, agents)


@pytest.mark.parametrize("pattern", ["fr_layout", "gcn", "spmm"])
def test_remote_identity_across_patterns(problem, pattern):
    A, _ = problem
    X, Y = make_xy(A, 12)
    ref = fusedmm(A, X, Y, pattern=pattern, num_threads=1)
    runtime, agents = _remote_runtime(2)
    try:
        Z = runtime.run_sharded(A, X, Y, pattern=pattern)
        assert np.array_equal(Z, ref)
    finally:
        _teardown(runtime, agents)


def test_hybrid_local_plus_remote_identity(problem):
    """Local worker processes and remote hosts split one batch bitwise."""
    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    runtime = KernelRuntime(num_threads=1, processes=2, remote_port=0)
    agents = []
    try:
        agents.append(_AgentThread(runtime.controller.port, name="a0"))
        assert runtime.controller.wait_for_hosts(1, timeout=15.0) == 1
        Z = runtime.run_sharded(A, X, pattern="sigmoid_embedding")
        assert np.array_equal(Z, ref)
        stats = runtime.stats()
        assert stats["remote"]["batches"] >= 1
    finally:
        _teardown(runtime, agents)


def test_mixed_local_and_dialin_loss_retries_on_the_other(problem):
    """One local agent and one dial-in agent split a batch bitwise, and
    one failure rule covers both: a lost local agent's rows run on the
    dial-in agent, a lost dial-in agent's rows on the (restarted) local
    one — retried, never sent to the parent."""
    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    # No heartbeat between a loss and the next call: the call finds it.
    runtime = KernelRuntime(
        num_threads=1, processes=1, remote_port=0, remote_heartbeat_s=3600
    )
    agents = []
    try:
        agents.append(_AgentThread(runtime.controller.port, name="a0"))
        assert runtime.controller.wait_for_hosts(1, timeout=15.0) == 1

        def run():
            return runtime.run_sharded(A, X, pattern="sigmoid_embedding", shards=0)

        assert np.array_equal(run(), ref)
        hosts = runtime.stats()["remote"]["hosts"]
        assert sorted(h["local"] for h in hosts) == [False, True]
        assert all(h["runs"] >= 1 for h in hosts)
        (local,) = [h for h in runtime.controller.live_hosts() if h.process]
        local.process.kill()
        local.process.join(timeout=5)
        assert np.array_equal(run(), ref)
        stats = runtime.stats()
        assert stats["remote"]["retries"] == 1
        assert stats["workers"]["restarts"] == 1
        assert stats["workers"]["alive"] == 1
        agents[0].stop()
        assert np.array_equal(run(), ref)
        stats = runtime.stats()
        assert stats["remote"]["retries"] == 2
        assert stats["remote"]["hosts_lost"] == 2
        assert stats["parent_fallbacks"] == 0
    finally:
        _teardown(runtime, agents)


def test_shard_plan_matches_remote_capacity(problem):
    """``shard_plan()`` sizes shards as the call does: with no local
    processes, the remote slots are the capacity."""
    A, X = problem
    runtime, agents = _remote_runtime(2)
    try:
        assert runtime.shard_plan(A).num_shards == 2
        assert runtime.shard_plan(A, shards=8).num_shards == 2
        ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
        assert np.array_equal(
            runtime.run_sharded(A, X, pattern="sigmoid_embedding"), ref
        )
    finally:
        _teardown(runtime, agents)


def test_remote_threads_gt_one_identity(problem):
    """Agent-side threading rides the determinism contract: same bytes."""
    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    runtime, agents = _remote_runtime(1, agent_kwargs=({"threads": 2, "slots": 2},))
    try:
        Z = runtime.run_sharded(A, X, pattern="sigmoid_embedding")
        assert np.array_equal(Z, ref)
    finally:
        _teardown(runtime, agents)


def test_remote_submit_sharded(problem):
    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    runtime, agents = _remote_runtime(2)
    try:
        future = runtime.submit_sharded(A, X, pattern="sigmoid_embedding")
        assert np.array_equal(future.result(timeout=60), ref)
    finally:
        _teardown(runtime, agents)


# ---------------------------------------------------------------------- #
# Fault tolerance
# ---------------------------------------------------------------------- #
#: Agent kwargs: drop the connection instead of replying to the first RUN.
_CRASH_ON_FIRST_RUN = {"fault_plan": FaultPlan.crash_after(1)}


def test_kill_one_host_mid_batch_completes_on_survivor(problem):
    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    runtime, agents = _remote_runtime(
        2, agent_kwargs=({}, _CRASH_ON_FIRST_RUN)
    )
    try:
        Z = runtime.run_sharded(A, X, pattern="sigmoid_embedding")
        assert np.array_equal(Z, ref)
        remote = runtime.stats()["remote"]
        assert remote["hosts_lost"] >= 1
        assert remote["retries"] >= 1
        # The survivor keeps serving subsequent batches.
        assert np.array_equal(
            runtime.run_sharded(A, X, pattern="sigmoid_embedding"), ref
        )
    finally:
        _teardown(runtime, agents)


def test_two_nonadjacent_hosts_lost_mid_batch_no_corruption(problem):
    """Regression: two *non-adjacent* groups fail in one batch (hosts 0
    and 2 of 3), so the retry round hands the survivor work spanning the
    row range the survivor already completed in round one.  The write-back
    must scatter only covered ranges — a full-span write would zero the
    survivor's finished rows."""
    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    runtime, agents = _remote_runtime(
        3, agent_kwargs=(_CRASH_ON_FIRST_RUN, {}, _CRASH_ON_FIRST_RUN)
    )
    try:
        Z = runtime.run_sharded(A, X, pattern="sigmoid_embedding")
        assert np.array_equal(Z, ref)
        remote = runtime.stats()["remote"]
        assert remote["hosts_lost"] >= 2
        assert remote["retries"] >= 1
    finally:
        _teardown(runtime, agents)


def test_all_hosts_dead_falls_back_to_parent(problem):
    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    runtime, agents = _remote_runtime(
        2, agent_kwargs=(_CRASH_ON_FIRST_RUN, _CRASH_ON_FIRST_RUN)
    )
    try:
        Z = runtime.run_sharded(A, X, pattern="sigmoid_embedding")
        assert np.array_equal(Z, ref)
        assert runtime.stats()["parent_fallbacks"] >= 1
    finally:
        _teardown(runtime, agents)


def _half_frame_worker(port, ready, *, timeout=30.0):
    """A scripted fake host: registers, acks LOADs, then on the first RUN
    sends *half* a RESULT frame and severs the socket."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    rfile = sock.makefile("rb")
    sock.sendall(
        WORKER_CODEC.pack_frame(
            OP_REGISTER, 0, encode_payload({"name": "liar", "slots": 1})
        )
    )
    opcode, _, _ = WORKER_CODEC.read_frame(rfile)
    assert opcode == OP_WELCOME
    ready.set()
    while True:
        frame = WORKER_CODEC.read_frame(rfile)
        if frame is None:
            break
        opcode, request_id, _ = frame
        if opcode == OP_RUN:
            whole = WORKER_CODEC.pack_frame(
                OP_RESULT,
                request_id,
                encode_payload({}, {"z": np.zeros((4, 4), dtype=np.float32)}),
            )
            sock.sendall(whole[: len(whole) // 2])
            break
        # PING / LOAD: ack with an empty result so the exchange advances.
        sock.sendall(
            WORKER_CODEC.pack_frame(OP_RESULT, request_id, encode_payload({}))
        )
    rfile.close()
    sock.close()


def test_socket_severed_mid_frame_recovers_promptly(problem):
    """A mid-frame cut is a lost host, not a hang: the batch finishes
    in-parent (no other hosts) with the exact bytes."""
    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    runtime = KernelRuntime(
        num_threads=1, processes=0, remote_port=0, remote_timeout=30.0
    )
    ready = threading.Event()
    thread = None
    try:
        port = runtime.controller.port
        thread = threading.Thread(
            target=_half_frame_worker, args=(port, ready), daemon=True
        )
        thread.start()
        assert ready.wait(timeout=15.0)
        assert runtime.controller.wait_for_hosts(1, timeout=15.0) == 1
        t0 = time.monotonic()
        Z = runtime.run_sharded(A, X, pattern="sigmoid_embedding")
        elapsed = time.monotonic() - t0
        assert np.array_equal(Z, ref)
        assert elapsed < 20.0, f"mid-frame sever took {elapsed:.1f}s to recover"
        assert runtime.controller.stats()["hosts_lost"] >= 1
    finally:
        runtime.close()
        if thread is not None:
            thread.join(timeout=10)


def test_heartbeat_evicts_dead_idle_host():
    runtime = KernelRuntime(
        num_threads=1, processes=0, remote_port=0, remote_heartbeat_s=0.2
    )
    try:
        controller = runtime.controller
        agent = _AgentThread(controller.port, name="a0")
        assert controller.wait_for_hosts(1, timeout=15.0) == 1
        # Kill the agent without telling the controller: the heartbeat
        # must notice and evict within a few beats.
        agent.stop()
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline and controller.live_hosts():
            time.sleep(0.05)
        assert controller.live_hosts() == []
        assert controller.hosts_lost >= 1
    finally:
        runtime.close()


# ---------------------------------------------------------------------- #
# Resilience: restart recovery, quarantine, hedging, client retries
# ---------------------------------------------------------------------- #
def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_controller_restart_agents_rejoin_bitwise(problem):
    """Sever the controller without the EXIT handshake (a crash, not a
    shutdown): agents must rejoin the replacement on the same port via
    their backoff loop — promptly, without a tight reconnect spin — and
    the next batch must produce the exact bytes."""
    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    port = _free_port()
    runtime = KernelRuntime(num_threads=1, processes=0, remote_port=port)
    agents = []
    try:
        controller = runtime.controller
        agents = [
            _AgentThread(port, name=f"r{i}", reconnect_delay=0.05)
            for i in range(2)
        ]
        assert controller.wait_for_hosts(2, timeout=15.0) == 2
        assert np.array_equal(
            runtime.run_sharded(A, X, pattern="sigmoid_embedding"), ref
        )
        # Simulated controller crash: connections severed, no EXIT.
        controller.close(notify=False)
        runtime.close()
        runtime = KernelRuntime(num_threads=1, processes=0, remote_port=port)
        assert runtime.controller.wait_for_hosts(2, timeout=15.0) == 2
        assert np.array_equal(
            runtime.run_sharded(A, X, pattern="sigmoid_embedding"), ref
        )
        # Backoff, not a tight loop: a handful of attempts, not hundreds.
        for a in agents:
            assert 1 <= a.agent.reconnects < 50
    finally:
        runtime.close()
        for a in agents:
            a.stop()


def test_flapping_host_quarantined_then_probed(problem):
    """A host whose every RUN severs the connection must be quarantined
    by the controller within its failure threshold — while the steady
    host keeps every batch bitwise — and re-admitted only through a
    probe once the quarantine period elapses."""
    from repro.resilience import HealthTracker

    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    runtime, agents = _remote_runtime(
        2,
        agent_kwargs=(
            {},
            {
                "name": "flapper",
                "fault_plan": FaultPlan.from_spec("disconnect@1+"),
                "reconnect_delay": 0.05,
            },
        ),
    )
    try:
        controller = runtime.controller
        # Tighten the breaker so the test is fast: 2 strikes, generous
        # quarantine (the probe path is unit-tested on a fake clock).
        controller.health = HealthTracker(
            failure_threshold=2, failure_window_s=30.0, quarantine_s=60.0
        )
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            assert np.array_equal(
                runtime.run_sharded(A, X, pattern="sigmoid_embedding"), ref
            )
            if controller.health.state("flapper") == "quarantined":
                break
            time.sleep(0.05)
        assert controller.health.state("flapper") == "quarantined"
        stats = controller.stats()
        assert stats["quarantined_hosts"] >= 1
        assert stats["quarantined_now"] >= 1
        # The flapper keeps retrying registration and is shed at the
        # door with a retryable 503 while quarantined.
        deadline = time.monotonic() + 15.0
        while (
            time.monotonic() < deadline
            and controller.stats()["registrations_rejected"] == 0
        ):
            time.sleep(0.05)
        assert controller.stats()["registrations_rejected"] >= 1
    finally:
        _teardown(runtime, agents)


def test_hedge_rescues_straggler(problem):
    """A host stalling on a late RUN (after the controller has throughput
    samples) is hedged: the chunk is speculatively recomputed in-parent,
    the first completion wins, and the bytes never change."""

    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    runtime, agents = _remote_runtime(
        2,
        agent_kwargs=(
            {},
            {"fault_plan": FaultPlan.from_spec("delay@4:2.5")},
        ),
    )
    try:
        for _ in range(3):  # warm-up: plans, CSR ship, throughput samples
            assert np.array_equal(
                runtime.run_sharded(A, X, pattern="sigmoid_embedding"), ref
            )
        Z = runtime.run_sharded(A, X, pattern="sigmoid_embedding")
        assert np.array_equal(Z, ref)
        remote = runtime.stats()["remote"]
        assert remote["hedges"] >= 1
        assert remote["hedge_wins"] >= 1
        assert remote["hedge_errors"] == 0
    finally:
        _teardown(runtime, agents)


def test_remote_stats_expose_resilience_counters(problem):
    runtime, agents = _remote_runtime(1)
    try:
        remote = runtime.stats()["remote"]
        for key in (
            "retries",
            "hedges",
            "hedge_wins",
            "quarantined_hosts",
            "quarantined_now",
            "probes",
            "registrations_rejected",
        ):
            assert key in remote, key
    finally:
        _teardown(runtime, agents)


def test_serve_client_retries_through_injected_faults(problem):
    """HTTP and wire clients armed with a RetryPolicy ride out
    request-level disconnect faults injected server-side; every answered
    response is bitwise."""
    from repro.resilience import RetryPolicy
    from repro.serve import BackgroundServer, ServeConfig, connect

    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    config = ServeConfig(
        port=0, wire_port=0, models=(), fault_spec="disconnect@2,drop_frame@5"
    )
    policy = RetryPolicy(base_delay=0.02, max_delay=0.2, max_attempts=8, seed=1)
    with BackgroundServer(config) as server:
        with connect(
            f"http://127.0.0.1:{server.port}", retry=policy
        ) as http, connect(
            f"wire://127.0.0.1:{server.wire_port}", retry=policy
        ) as wire:
            total_retries = 0
            for _ in range(4):
                for client in (http, wire):
                    Z = client.kernel(graph=A, x=X, pattern="sigmoid_embedding")
                    assert np.array_equal(Z, ref)
            total_retries = http.retries_attempted + wire.retries_attempted
        assert total_retries >= 1
        assert server.server.fault_injector.kinds_fired()


def test_worker_agent_reconnect_uses_backoff_policy():
    """run_forever's reconnect delay routes through RetryPolicy: a dead
    controller address never produces a tight spin."""
    port = _free_port()  # nothing listening
    agent = WorkerAgent("127.0.0.1", port, name="lonely")
    thread = threading.Thread(
        target=agent.run_forever,
        kwargs={"reconnect_delay": 0.1},
        daemon=True,
    )
    t0 = time.monotonic()
    thread.start()
    time.sleep(1.0)
    agent.stop()
    thread.join(timeout=10)
    elapsed = time.monotonic() - t0
    # With base 0.1 and exponential growth, ~1s admits only a handful of
    # attempts; a tight loop would rack up thousands.
    assert 1 <= agent.reconnects <= 12, agent.reconnects
    assert elapsed < 15.0


# ---------------------------------------------------------------------- #
# Transport hardening: registration auth + payload caps + bad framing
# ---------------------------------------------------------------------- #
def test_registration_token_rejects_and_admits():
    controller = RemoteController(token="s3cret")
    try:
        bad = WorkerAgent("127.0.0.1", controller.port, name="bad")
        assert bad.serve() == "rejected"
        assert "token" in (bad.last_error or "")
        assert controller.wait_for_hosts(1, timeout=0.5) == 0
        good = _AgentThread(controller.port, name="good", token="s3cret")
        try:
            assert controller.wait_for_hosts(1, timeout=15.0) == 1
        finally:
            good.stop()
    finally:
        controller.close()


def test_runtime_passes_token_through(problem):
    """End-to-end: a tokened runtime admits a tokened agent and executes."""
    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    runtime, agents = _remote_runtime(
        1, agent_kwargs=({"token": "t0"},), remote_token="t0"
    )
    try:
        assert np.array_equal(
            runtime.run_sharded(A, X, pattern="sigmoid_embedding"), ref
        )
    finally:
        _teardown(runtime, agents)


def test_forged_frame_length_is_rejected_not_allocated():
    """A forged 4-byte length field must close the connection, never
    drive a giant allocation."""
    controller = RemoteController(max_payload=1024)
    sock = None
    try:
        sock = socket.create_connection(("127.0.0.1", controller.port), timeout=10)
        sock.sendall(
            FRAME_HEADER.pack(b"RK", 1, OP_REGISTER, 0, 3 * 2**30)
        )
        sock.settimeout(10)
        assert sock.recv(1) == b""  # hung up on us — no WELCOME
        assert controller.live_hosts() == []
    finally:
        if sock is not None:
            sock.close()
        controller.close()


def test_agent_treats_bad_magic_as_disconnect():
    """Garbage framing from the controller side must end serve() with a
    clean "disconnected", not a ProtocolError traceback killing the
    worker process."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def fake_controller():
        conn, _ = listener.accept()
        rfile = conn.makefile("rb")
        WORKER_CODEC.read_frame(rfile)  # REGISTER
        conn.sendall(
            WORKER_CODEC.pack_frame(
                OP_WELCOME, 0, encode_payload({"host_id": 1})
            )
        )
        conn.sendall(b"XX" + bytes(FRAME_HEADER.size - 2))  # bad magic
        time.sleep(0.2)
        rfile.close()
        conn.close()

    thread = threading.Thread(target=fake_controller, daemon=True)
    thread.start()
    try:
        agent = WorkerAgent("127.0.0.1", port, name="victim")
        assert agent.serve() == "disconnected"
    finally:
        thread.join(timeout=10)
        listener.close()


# ---------------------------------------------------------------------- #
# Transport codec
# ---------------------------------------------------------------------- #
def test_csr_payload_roundtrip():
    from repro.sparse import random_csr

    A = random_csr(50, 40, density=0.1, seed=3)
    meta, arrays = encode_csr(A)
    B = decode_csr(meta, arrays)
    assert B.nrows == A.nrows and B.ncols == A.ncols
    assert np.array_equal(B.indptr, A.indptr)
    assert np.array_equal(B.indices, A.indices)
    assert np.array_equal(B.data, A.data)


def test_spec_meta_roundtrip(problem):
    A, X = problem
    runtime = KernelRuntime(num_threads=1)
    try:
        plan = runtime.plan(A, pattern="sigmoid_embedding")
        meta = run_spec_meta(plan)
        assert meta is not None
        rebuilt = spec_from_meta(meta)
        assert rebuilt["backend"] == plan.kind
        assert rebuilt["block_size"] == plan.block_size
        assert rebuilt["op_pattern"].resolved().op_names() == (
            plan.op_pattern.resolved().op_names()
        )
    finally:
        runtime.close()


def test_spec_meta_rejects_callable_ops():
    """Plans with callable operators are not wire-shippable: they stay
    in process (run_spec_meta -> None) rather than being pickled."""
    from types import SimpleNamespace

    from repro.core.patterns import OpPattern

    plan = SimpleNamespace(
        op_pattern=OpPattern(
            name="custom",
            vop="sub",
            rop=lambda a: a,
            sop="sigmoid",
            mop="mul",
            aop="add",
        ),
        kind="generic",
        block_size=0,
    )
    assert run_spec_meta(plan) is None


def test_frame_rejects_bad_magic():
    blob = WORKER_CODEC.pack_frame(OP_RUN, 7, b"")
    bad = b"XX" + blob[2:]
    header = struct.unpack("!2sBBQI", bad[:16])
    assert header[0] == b"XX"
    from repro.framing import ProtocolError

    with pytest.raises(ProtocolError):
        WORKER_CODEC.unpack_header(bad[:16])


# ---------------------------------------------------------------------- #
# route_shards
# ---------------------------------------------------------------------- #
def _shard_plan(A, pattern="sigmoid_embedding"):
    runtime = KernelRuntime(num_threads=1, processes=2)
    try:
        return runtime.shard_plan(A, pattern=pattern, shards=4)
    finally:
        runtime.close()


def test_route_shards_partitions_without_loss(problem):
    A, _ = problem
    plan = _shard_plan(A)
    busy = [a for a in plan.assignments if a.parts]
    groups = route_shards(plan, [1, 1])
    flattened = [a for g in groups for a in g]
    assert flattened == busy  # order preserved, nothing lost or duplicated


def test_route_shards_weights_balance(problem):
    A, _ = problem
    plan = _shard_plan(A)
    busy = [a for a in plan.assignments if a.parts]
    total = sum(a.nnz for a in busy)
    groups = route_shards(plan, [3, 1])
    assert sum(len(g) for g in groups) == len(busy)
    # The weight-3 owner carries the (rough) majority of the nnz.
    assert sum(a.nnz for a in groups[0]) >= total / 2


def test_route_shards_zero_weight_owner_gets_nothing(problem):
    A, _ = problem
    plan = _shard_plan(A)
    groups = route_shards(plan, [0, 1, 0])
    assert groups[0] == [] and groups[2] == []
    assert [a for g in groups for a in g] == [
        a for a in plan.assignments if a.parts
    ]


def test_route_shards_requires_positive_weight(problem):
    A, _ = problem
    plan = _shard_plan(A)
    with pytest.raises(PartitionError):
        route_shards(plan, [0, 0])
    with pytest.raises(PartitionError):
        route_shards(plan, [])


# ---------------------------------------------------------------------- #
# RuntimeOptions consolidation
# ---------------------------------------------------------------------- #
def test_runtime_options_validation():
    with pytest.raises(BackendError):
        RuntimeOptions(kernel_backend="nope")
    opts = RuntimeOptions(num_threads=2, processes=3, shard_min_nnz=7)
    assert opts.runtime_kwargs() == {
        "num_threads": 2,
        "processes": 3,
        "shard_min_nnz": 7,
    }


def test_runtime_options_knobs_are_keyword_only():
    """The inherited kernel knobs are kw_only: they never shift a
    subclass's positional parameters, and passing one positionally is an
    explicit TypeError instead of a silent reassignment."""
    from repro.apps import VerseConfig

    with pytest.raises(TypeError):
        RuntimeOptions("jit")
    cfg = VerseConfig(64)  # positional args bind the subclass's own fields
    assert cfg.dim == 64
    assert cfg.kernel_backend == "auto"


def test_app_configs_inherit_runtime_options():
    from repro.apps import Force2VecConfig, FRLayoutConfig, GCNConfig, VerseConfig
    from repro.serve import ServeConfig

    for cls in (Force2VecConfig, VerseConfig, GCNConfig, FRLayoutConfig, ServeConfig):
        assert issubclass(cls, RuntimeOptions)
        cfg = cls()
        assert cfg.kernel_backend == "auto"
        assert cfg.shard_min_nnz == RuntimeOptions().shard_min_nnz
        with pytest.raises(BackendError):
            cls(kernel_backend="nope")


# ---------------------------------------------------------------------- #
# Unified client API
# ---------------------------------------------------------------------- #
def test_connect_scheme_dispatch():
    from repro.serve import Client, ServeClient, connect

    client = connect("http://127.0.0.1:18571")
    assert isinstance(client, ServeClient)
    assert isinstance(client, Client)  # runtime-checkable protocol
    client.close()
    client = connect("http://127.0.0.1")  # port defaults
    assert client.port == 8571
    client.close()
    with pytest.raises(ValueError):
        connect("ftp://127.0.0.1:1")
    with pytest.raises(ValueError):
        connect("wire://127.0.0.1")  # wire requires an explicit port


def test_connect_wire_roundtrip(problem):
    """connect("wire://...") speaks to a live server with the same
    surface (kernel/statz) the HTTP client exposes."""
    from repro.serve import BackgroundServer, Client, ServeConfig, connect

    A, X = problem
    config = ServeConfig(port=0, wire_port=0, models=(), max_wait_ms=0.5)
    with BackgroundServer(config) as server:
        ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
        with connect(f"wire://127.0.0.1:{server.wire_port}") as client:
            assert isinstance(client, Client)
            Z = client.kernel(graph=A, x=X, pattern="sigmoid_embedding")
            assert np.array_equal(Z, ref)
            assert "config" in client.statz()
        with connect(f"http://127.0.0.1:{server.port}") as client:
            Z = client.kernel(graph=A, x=X, pattern="sigmoid_embedding")
            assert np.array_equal(Z, ref)
            assert "config" in client.statz()


def test_serve_routes_large_singles_to_remote_hosts(problem):
    """A server with ``remote_port`` but no local worker processes must
    still dispatch large singles through registered remote hosts (the
    coalescer gates on total sharded capacity, not the local pool)."""
    from repro.serve import BackgroundServer, ServeConfig, connect

    A, X = problem
    ref = fusedmm(A, X, X, pattern="sigmoid_embedding", num_threads=1)
    config = ServeConfig(
        port=0, wire_port=0, remote_port=0, models=(), shard_min_nnz=16384
    )
    with BackgroundServer(config) as server:
        controller = server.server.registry.runtime.controller
        agents = [_AgentThread(controller.port, name=f"s{i}") for i in range(2)]
        try:
            assert controller.wait_for_hosts(2, timeout=15.0) == 2
            with connect(f"http://127.0.0.1:{server.port}") as client:
                Z = client.kernel(graph=A, x=X, pattern="sigmoid_embedding")
                assert np.array_equal(Z, ref)
                remote = client.statz()["runtime"]["remote"]
            assert remote["hosts_admitted"] == 2
            assert remote["batches"] >= 1
        finally:
            for a in agents:
                a.stop()


def test_sharded_capacity_counts_local_and_remote(problem):
    """sharded_capacity reflects processes + live host slots without
    starting the local agents as a side effect."""
    runtime, agents = _remote_runtime(1)
    try:
        assert runtime.sharded_capacity == 1
    finally:
        _teardown(runtime, agents)
    local = KernelRuntime(num_threads=1, processes=2)
    try:
        assert runtime.sharded_capacity == 0  # hosts gone after close
        assert local.sharded_capacity == 2
        assert local._controller is None  # no lazy agent start from the property
    finally:
        local.close()


def test_http_errors_are_typed_serve_errors():
    from repro.serve.client import ServeHTTPError, http_error_for_status

    err = http_error_for_status(429, "queue full")
    assert isinstance(err, ServeHTTPError)
    assert isinstance(err, QueueFullError)
    assert isinstance(err, ServeError)
    assert err.status == 429 and err.http_status == 429
    generic = http_error_for_status(404, "no such model")
    assert isinstance(generic, ServeHTTPError)
    assert not isinstance(generic, QueueFullError)
    assert generic.status == 404


def test_serve_config_remote_port_validation():
    from repro.errors import ShapeError
    from repro.serve import ServeConfig

    assert ServeConfig().remote_port is None
    assert ServeConfig(remote_port=0).describe()["remote_port"] == 0
    with pytest.raises(ShapeError):
        ServeConfig(remote_port=-1)
