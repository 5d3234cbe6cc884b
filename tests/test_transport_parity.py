"""Both transports answer the same request with the same status.

HTTP and the binary wire protocol are two framings over one op table, so
a malformed request must fail identically on either: the status-parity
table below sends each case through :class:`~repro.serve.ServeClient`
and :class:`~repro.serve.WireClient` via the shared client methods.  The
request counters and the edge-batch validation (JSON lists on HTTP, npy
arrays on wire) are checked here for the same reason.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServeError, ShapeError
from repro.serve import ModelSpec, ServeClient, ServeConfig, WireClient
from repro.serve.runner import BackgroundServer
from repro.sparse.delta import _as_edge_array

N_BIG = 10**6


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServeConfig(
        port=0,
        wire_port=0,
        models=(ModelSpec("tiny", "cora", app="force2vec", dim=8, scale=0.05),),
        job_dir=str(tmp_path_factory.mktemp("jobs")),
        max_batch=8,
        max_wait_ms=2.0,
    )
    with BackgroundServer(config) as bg:
        yield bg


@pytest.fixture(params=["http", "wire"])
def client(request, server):
    if request.param == "http":
        c = ServeClient(server.host, server.port, timeout=30.0)
    else:
        c = WireClient(server.host, server.wire_port, timeout=30.0)
    with c:
        yield c


def _x(server, rows=None):
    n = server.server.registry.graph("tiny").nrows
    return np.ones((n if rows is None else rows, 8), dtype=np.float32)


_TRAIN = dict(app="force2vec", dataset="cora", scale=0.05, dim=8, epochs=1)

#: case -> (expected status, request against the shared client surface)
CASES = {
    "no-operand": (400, lambda c, s: c.kernel(model="tiny")),
    "x-wrong-rows": (400, lambda c, s: c.kernel(model="tiny", x=_x(s, 3))),
    "unknown-model": (404, lambda c, s: c.kernel(model="nope", x=_x(s))),
    "unknown-pattern": (
        400,
        lambda c, s: c.kernel(model="tiny", x=_x(s), pattern="nope"),
    ),
    "unknown-backend": (
        400,
        lambda c, s: c.kernel(model="tiny", x=_x(s), backend="nope"),
    ),
    "negative-deadline": (
        400,
        lambda c, s: c.kernel(model="tiny", x=_x(s), deadline_ms=-1),
    ),
    "embed-unknown-model": (404, lambda c, s: c.embed("nope", [0])),
    "embed-id-out-of-range": (404, lambda c, s: c.embed("tiny", [N_BIG])),
    "embed-id-negative": (404, lambda c, s: c.embed("tiny", [-1])),
    "job-status-unknown": (404, lambda c, s: c.job("job-nope")),
    "job-result-unknown": (404, lambda c, s: c.job_result("job-nope")),
    "job-cancel-unknown": (404, lambda c, s: c.cancel_job("job-nope")),
    "train-unknown-app": (400, lambda c, s: c.train(**{**_TRAIN, "app": "w2v"})),
    "mutate-unknown-graph": (404, lambda c, s: c.mutate("nope", [[0, 1, 1.0]])),
    "mutate-out-of-range": (400, lambda c, s: c.mutate("tiny", [[0, N_BIG, 1.0]])),
    "mutate-negative": (400, lambda c, s: c.mutate("tiny", [[-1, 1, 1.0]])),
    "mutate-fractional": (400, lambda c, s: c.mutate("tiny", [[0.5, 1, 1.0]])),
    "mutate-delete-fractional": (
        400,
        lambda c, s: c.mutate("tiny", delete=[[0, 1.5]]),
    ),
    "mutate-nan-weight": (
        400,
        lambda c, s: c.mutate("tiny", [[0, 1, float("nan")]]),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_requests_answer_the_same_status(case, client, server):
    status, send = CASES[case]
    version = server.server.registry.dynamic_graph("tiny").version
    with pytest.raises(ServeError) as exc:
        send(client, server)
    assert exc.value.http_status == status
    # A rejected mutation leaves the shared graph untouched.
    assert server.server.registry.dynamic_graph("tiny").version == version


def test_both_counters_count_every_answered_request(server):
    """``requests_served`` (HTTP) and ``frames_served`` (wire) both count
    every answered request, errors included; ``errors_sent`` the wire
    errors among them."""
    X = _x(server)

    def counters():
        doc = server.server.statz()
        return doc["requests_served"], doc["wire"]["frames_served"], doc["wire"][
            "errors_sent"
        ]

    http0, wire0, errors0 = counters()
    with ServeClient(server.host, server.port) as http:
        http.kernel(model="tiny", x=X)
        with pytest.raises(ServeError):
            http.kernel(model="nope", x=X)
        http.statz()
    with WireClient(server.host, server.wire_port) as wire:
        wire.kernel(model="tiny", x=X)
        with pytest.raises(ServeError):
            wire.kernel(model="nope", x=X)
        wire.statz()
    http1, wire1, errors1 = counters()
    assert http1 - http0 == 3
    assert wire1 - wire0 == 3
    assert errors1 - errors0 == 1


# ---------------------------------------------------------------------- #
# Edge batches: the list path (HTTP JSON) and the array path (wire npy)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "edges",
    [
        [[0.5, 1, 1.0]],
        [[0, 1.25]],
        [[0, 1, float("nan")]],
        [[0, 1, float("inf")]],
        [[float("nan"), 1, 1.0]],
    ],
)
@pytest.mark.parametrize("as_array", [False, True])
def test_edge_batches_reject_fractional_and_non_finite(edges, as_array):
    batch = np.asarray(edges, dtype=np.float64) if as_array else edges
    with pytest.raises(ShapeError):
        _as_edge_array(batch, with_weight=True)


def test_edge_list_and_array_paths_agree():
    edges = [(0, 1), (2, 3, 0.5), [4, 5, 7.0]]
    rows, cols, weights = _as_edge_array(edges, with_weight=True)
    assert rows.tolist() == [0, 2, 4] and cols.tolist() == [1, 3, 5]
    assert weights.tolist() == [1.0, 0.5, 7.0]
    as_array = _as_edge_array(
        np.array([[0, 1, 1.0], [2, 3, 0.5], [4, 5, 7.0]]), with_weight=True
    )
    for got, want in zip((rows, cols, weights), as_array):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for empty in (None, [], np.empty((0, 3))):
        assert all(a.size == 0 for a in _as_edge_array(empty, with_weight=True))
    with pytest.raises(ShapeError):
        _as_edge_array([(0, 1, 2.0)], with_weight=False)  # deletes are pairs
    with pytest.raises(ShapeError):
        _as_edge_array([(0,)], with_weight=True)
