"""Service integration tests: HTTP protocol, scheduling, coalescing.

The server runs on its own event-loop thread (``ServerThread``) and is
driven by the blocking client — the same topology as production.  The
executor runs in-process (``workers=0``) so tests can monkeypatch
``repro.service.executor.run_request_tasks`` (which every noisy
trajectory request here runs through) to count, delay, or gate
simulations deterministically.
"""

import http.client
import json
import socket
import threading
import time

import pytest

import repro.service.executor as executor_mod
from repro.runtime.supervisor import RetryPolicy
from repro.service import (
    ArithmeticService,
    BackpressureError,
    ResultCache,
    ServerThread,
    ServiceClient,
    ServiceError,
    SimulationExecutor,
)
from repro.service.executor import CircuitRejected

REQ = dict(
    operation="add", n=2, m=2, x=[1], y=[2],
    shots=64, seed=11, error_axis="2q", error_rate=0.002, trajectories=8,
    method="trajectory",
)


def make_server(
    max_queue=32, concurrency=2, retry=None, cache=None, lint=True
):
    service = ArithmeticService(
        executor=SimulationExecutor(
            workers=0,
            concurrency=concurrency,
            retry=retry or RetryPolicy(max_attempts=2),
        ),
        cache=cache if cache is not None else ResultCache(ttl=0),
        max_queue=max_queue,
        concurrency=concurrency,
        lint_requests=lint,
    )
    return ServerThread(service)


def _post(address, path, doc):
    """POST a raw JSON body (the client validates before it sends)."""
    conn = http.client.HTTPConnection(*address, timeout=10)
    try:
        conn.request(
            "POST", path, body=json.dumps(doc).encode(),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


def _poll(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_round_trip_and_cache_hit():
    with make_server() as srv:
        client = ServiceClient(*srv.address)
        first = client.simulate(dict(REQ))
        assert first.cache == "miss"
        assert first.counts and sum(first.counts.values()) == 64
        assert first.program_fingerprint
        assert first.method == "trajectory"
        second = client.simulate(dict(REQ))
        assert second.cache == "hit"
        assert second.counts == first.counts
        assert second.timings_ms["total"] < first.timings_ms["total"] * 10


def test_endpoints_health_stats_metrics():
    with make_server() as srv:
        client = ServiceClient(*srv.address)
        client.simulate(dict(REQ))
        health = client.health()
        assert health["status"] == "ok"
        stats = client.stats()
        assert stats["queue"]["depth"] == 0
        assert stats["result_cache"]["entries"] == 1
        assert "compile_cache" in stats and "kernel_cache" in stats
        assert stats["executor"]["mode"] == "thread"
        latency = stats["metrics"]["latency"]
        assert {"queue_wait", "execute", "total"} <= set(latency)
        assert latency["execute"]["count"] == 1
        text = client.metrics_text()
        assert "repro_queue_depth" in text
        assert 'repro_requests_served_total{cache="miss"} 1' in text
        assert "repro_latency_execute_seconds_bucket" in text
        assert "repro_result_cache_bytes" in text


def test_unknown_route_and_bad_method():
    with make_server() as srv:
        client = ServiceClient(*srv.address)
        with pytest.raises(ServiceError) as exc:
            client._json("GET", "/nope")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client._json("GET", "/v1/simulate")
        assert exc.value.status == 405


def test_server_side_validation_of_raw_bodies():
    with make_server() as srv:
        host, port = srv.address

        def post(body: bytes):
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request(
                    "POST", "/v1/simulate", body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                return resp.status, json.loads(resp.read().decode())
            finally:
                conn.close()

        status, doc = post(b"{not json")
        assert status == 400 and "malformed" in doc["error"]
        status, doc = post(json.dumps({"operation": "add"}).encode())
        assert status == 400 and any("missing" in d for d in doc["details"])
        bad = dict(REQ, shots=-5, operation="sub")
        status, doc = post(json.dumps(bad).encode())
        assert status == 400 and len(doc["details"]) >= 2


def _raw_post(address, content_length: str, body: bytes = b""):
    """POST /v1/simulate over a bare socket with a verbatim
    ``Content-Length`` header; returns (status, JSON body)."""
    head = (
        f"POST /v1/simulate HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode("latin-1")
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(payload.decode())


@pytest.mark.parametrize(
    "content_length, status, reason",
    [
        ("2000000", 413, "exceeds"),
        ("abc", 400, "Content-Length"),
        ("-5", 400, "Content-Length"),
    ],
)
def test_bad_content_length_is_4xx_not_500(content_length, status, reason):
    with make_server() as srv:
        got, doc = _raw_post(srv.address, content_length)
        assert got == status and reason in doc["error"]
        metrics = srv.service.metrics
        assert _poll(
            lambda: metrics.counter_value(
                "http_requests_total", labels={"status": str(status)}
            ) == 1
        )
        assert metrics.counter_value(
            "http_requests_total", labels={"status": "500"}
        ) == 0
        # The server is still healthy afterwards.
        assert ServiceClient(*srv.address).health()["status"] == "ok"


def _raw_exchange(address, data: bytes):
    """Send ``data`` verbatim over a bare socket, keep it open, and
    return (status, JSON body) of the server's answer."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(payload.decode())


def _assert_counted_once(srv, status):
    metrics = srv.service.metrics
    assert _poll(
        lambda: metrics.counter_value(
            "http_requests_total", labels={"status": str(status)}
        ) == 1
    )
    assert metrics.counter_value(
        "http_requests_total", labels={"status": "500"}
    ) == 0
    assert _poll(lambda: srv.service._inflight_http == 0)
    assert ServiceClient(*srv.address).health()["status"] == "ok"


def test_truncated_body_times_out_with_408(monkeypatch):
    import repro.service.server as server_mod

    monkeypatch.setattr(server_mod, "_READ_DEADLINE_S", 0.2)
    with make_server() as srv:
        head = (
            b"POST /v1/simulate HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 100\r\n\r\n{}"
        )
        t0 = time.monotonic()
        status, doc = _raw_exchange(srv.address, head)
        assert status == 408 and "not received" in doc["error"]
        assert time.monotonic() - t0 < 5
        _assert_counted_once(srv, 408)


def test_overlong_header_line_is_431():
    with make_server() as srv:
        data = (
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000
            + b"\r\n\r\n"
        )
        status, doc = _raw_exchange(srv.address, data)
        assert status == 431 and "header line" in doc["error"]
        _assert_counted_once(srv, 431)


def test_overlong_request_line_is_414():
    with make_server() as srv:
        data = b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"
        status, doc = _raw_exchange(srv.address, data)
        assert status == 414 and "request line" in doc["error"]
        _assert_counted_once(srv, 414)


def test_work_route_is_gone():
    with make_server() as srv:
        client = ServiceClient(*srv.address)
        with pytest.raises(ServiceError) as exc:
            client._json("POST", "/v1/work", {"cells": []})
        assert exc.value.status == 404
        assert "work" not in client.stats()


def test_lint_gate_rejects_with_422(monkeypatch):
    import repro.service.server as server_mod

    def reject(request):
        raise CircuitRejected(["REP999: synthetic rejection"])

    monkeypatch.setattr(server_mod, "lint_gate", reject)
    with make_server() as srv:
        client = ServiceClient(*srv.address)
        from repro.service.client import RequestRejected

        with pytest.raises(RequestRejected) as exc:
            client.simulate(dict(REQ))
        assert exc.value.status == 422
        assert any("REP999" in d for d in exc.value.details)


def test_wide_density_request_gets_422_on_both_routes():
    # QFA 6+6 (12 qubits) through explicit density is refused at the
    # door with the engine's width-limit text, for /v1/simulate and for
    # a /v1/sweep base alike; nothing reaches an executor slot.
    wide = dict(REQ, n=6, m=6, x=[3], y=[7], method="density")
    with make_server() as srv:
        host, port = srv.address

        def post(path: str, doc: dict):
            return _post(srv.address, path, doc)

        status, doc = post("/v1/simulate", wide)
        assert status == 422 and doc["error"] == "width limit"
        assert any("limited to 10 qubits, got 12" in d for d in doc["details"])
        base = {k: v for k, v in wide.items() if k != "error_rate"}
        status, doc = post("/v1/sweep", {"base": base, "rates": [0.001, 0.002]})
        assert status == 422
        assert any(
            d.startswith("base.") and "limited to 10 qubits" in d
            for d in doc["details"]
        )
        counters = ServiceClient(host, port).stats()["metrics"]["counters"]
        assert counters["requests_invalid_total"] == 2
        assert "sweep_requests_total" not in counters


@pytest.mark.parametrize("field", ["n", "m"])
def test_huge_register_width_is_4xx_on_both_routes(field):
    # A width far past the service cap is refused before any 2**width
    # operand bound is built (that raised OverflowError, a 500).
    huge = dict(REQ, **{field: 10**20})
    base = {k: v for k, v in huge.items() if k != "error_rate"}
    with make_server() as srv:
        for path, doc in (
            ("/v1/simulate", huge),
            ("/v1/sweep", {"base": base, "rates": [0.001]}),
        ):
            status, body = _post(srv.address, path, doc)
            assert 400 <= status < 500, (path, status, body)
            assert any("exceeds service cap" in d for d in body["details"])
        counters = ServiceClient(*srv.address).stats()["metrics"]["counters"]
    statuses = {
        k for k in counters if k.startswith("http_requests_total")
    }
    assert statuses and not any("500" in k for k in statuses)


def test_coalescing_collapses_identical_requests(monkeypatch):
    """N concurrent identical requests run exactly one simulation."""
    n_clients = 6
    calls = []
    release = threading.Event()
    real = executor_mod.run_request_tasks

    def gated(*args, **kwargs):
        calls.append(threading.get_ident())
        release.wait(timeout=30)
        return real(*args, **kwargs)

    monkeypatch.setattr(executor_mod, "run_request_tasks", gated)
    with make_server(concurrency=4) as srv:
        client = ServiceClient(*srv.address)
        results = [None] * n_clients
        errors = []

        def worker(i):
            try:
                results[i] = client.simulate(dict(REQ))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        # Deterministic rendezvous: wait until one simulation started
        # and the other N-1 requests have attached to it.
        metrics = srv.service.metrics
        assert _poll(
            lambda: len(calls) == 1
            and metrics.counter_total("requests_coalesced_total")
            == n_clients - 1
        ), "requests did not coalesce onto one in-flight simulation"
        release.set()
        for t in threads:
            t.join(timeout=30)
        assert not errors
    assert len(calls) == 1, "coalesced requests must share one simulation"
    sources = sorted(r.cache for r in results)
    assert sources.count("miss") == 1
    assert sources.count("coalesced") == n_clients - 1
    baseline = results[0]
    for r in results[1:]:
        assert r.counts == baseline.counts
        assert r.program_fingerprint == baseline.program_fingerprint
        assert r.content_key == baseline.content_key


def test_backpressure_returns_429_with_retry_after(monkeypatch):
    release = threading.Event()
    real = executor_mod.run_request_tasks

    def gated(*args, **kwargs):
        release.wait(timeout=30)
        return real(*args, **kwargs)

    monkeypatch.setattr(executor_mod, "run_request_tasks", gated)
    with make_server(max_queue=1, concurrency=1) as srv:
        client = ServiceClient(*srv.address)
        threads = []
        outcomes = []

        def worker(seed):
            try:
                outcomes.append(client.simulate(dict(REQ, seed=seed)))
            except BackpressureError as exc:
                outcomes.append(exc)

        # Distinct seeds -> distinct content keys -> no coalescing.
        # One runs, one queues; the queue (depth 1) is then full.
        for seed in (1, 2):
            t = threading.Thread(target=worker, args=(seed,))
            t.start()
            threads.append(t)
        stats = srv.service.scheduler.queue_stats
        assert _poll(lambda: stats()["running"] == 1 and stats()["depth"] == 1)
        with pytest.raises(BackpressureError) as exc:
            client.simulate(dict(REQ, seed=3))
        assert exc.value.retry_after >= 1.0
        assert (
            srv.service.metrics.counter_total("requests_rejected_total") == 1
        )
        release.set()
        for t in threads:
            t.join(timeout=30)
        assert all(not isinstance(o, BackpressureError) for o in outcomes)


def test_priority_orders_the_queue(monkeypatch):
    """Queued jobs drain lowest priority value first."""
    order = []
    first_started = threading.Event()
    release = threading.Event()
    real = executor_mod.run_request_tasks

    def tracking(tasks):
        order.append(tasks[0].shots)
        first_started.set()
        if len(order) == 1:
            release.wait(timeout=30)
        return real(tasks)

    monkeypatch.setattr(executor_mod, "run_request_tasks", tracking)
    with make_server(concurrency=1) as srv:
        client = ServiceClient(*srv.address)
        threads = [
            threading.Thread(
                target=client.simulate, args=(dict(REQ, shots=10),)
            )
        ]
        threads[0].start()
        assert first_started.wait(timeout=30)
        # While the first job blocks the single pump, queue a low-priority
        # then a high-priority job; the high-priority one must run first.
        stats = srv.service.scheduler.queue_stats
        for shots, priority in ((20, 9), (30, 0)):
            t = threading.Thread(
                target=client.simulate,
                args=(dict(REQ, shots=shots, priority=priority),),
            )
            t.start()
            threads.append(t)
            depth = len(threads) - 1
            assert _poll(lambda d=depth: stats()["depth"] == d)
        release.set()
        for t in threads:
            t.join(timeout=30)
    assert order == [10, 30, 20]


def test_graceful_shutdown_drains_queue(monkeypatch):
    """Accepted work completes during shutdown; new work is refused."""
    started = threading.Event()
    real = executor_mod.run_request_tasks

    def slow(*args, **kwargs):
        started.set()
        time.sleep(0.3)
        return real(*args, **kwargs)

    monkeypatch.setattr(executor_mod, "run_request_tasks", slow)
    srv = make_server(concurrency=1).start()
    client = ServiceClient(*srv.address)
    result = {}

    def worker():
        result["resp"] = client.simulate(dict(REQ))

    t = threading.Thread(target=worker)
    t.start()
    assert started.wait(timeout=30)
    srv.stop(drain=True)  # returns once drained and closed
    t.join(timeout=30)
    assert result["resp"].cache == "miss"
    assert sum(result["resp"].counts.values()) == 64


def test_draining_server_refuses_new_requests():
    with make_server() as srv:
        client = ServiceClient(*srv.address)
        client.simulate(dict(REQ))
        srv.service.draining = True
        with pytest.raises(ServiceError) as exc:
            client.simulate(dict(REQ, seed=99))
        assert exc.value.status == 503
        assert client.health()["status"] == "draining"
        srv.service.draining = False


def test_execution_failure_maps_to_500(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(executor_mod, "run_request_tasks", broken)
    with make_server(
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0)
    ) as srv:
        client = ServiceClient(*srv.address)
        with pytest.raises(ServiceError) as exc:
            client.simulate(dict(REQ))
        assert exc.value.status == 500
        assert "engine exploded" in exc.value.body.get("detail", "")
        assert exc.value.body.get("attempts") == 2


def test_drain_captures_final_stats_and_refuses_after_stop():
    srv = make_server().start()
    client = ServiceClient(*srv.address)
    client.simulate(dict(REQ))
    assert srv.service.final_stats is None  # only set by shutdown
    srv.stop(drain=True)
    final = srv.service.final_stats
    assert final is not None
    assert final["queue"]["accepting"] is False
    counters = final["metrics"]["counters"]
    assert sum(
        v for k, v in counters.items() if k.startswith("http_requests_total")
    ) >= 1
    with pytest.raises(OSError):
        http.client.HTTPConnection(*srv.address, timeout=2).connect()


def test_retry_after_estimate_is_capped():
    """Retry-After follows the one queue's backlog, floored and capped."""
    import asyncio

    from repro.service import SimRequest
    from repro.service.fusion import _RETRY_AFTER_CAP
    from repro.service.scheduler import JobScheduler

    class Blocked(SimulationExecutor):
        async def run(self, request):
            await self.release.wait()
            return {}

    async def scenario():
        executor = Blocked(workers=0, concurrency=1)
        executor.release = asyncio.Event()
        gate = JobScheduler(executor=executor, concurrency=1).fusion
        assert gate.retry_after() == 1.0  # empty queue floors at 1s
        gate.avg_exec = 1e6
        for seed in range(51):
            gate.enqueue(SimRequest.from_dict(dict(REQ, seed=seed)))
        assert (gate.slots_in_use, gate.depth()) == (1, 50)
        assert gate.retry_after() == _RETRY_AFTER_CAP
        executor.release.set()
        await gate.stop()
        assert gate.depth() == 0

    asyncio.run(scenario())


def test_ewma_clamps_outlier_samples(monkeypatch):
    """One pathological 10 000 s job must not poison the Retry-After EWMA."""
    import repro.service.fusion as fusion_mod
    from repro.service.fusion import _AVG_EXEC_SAMPLE_CAP

    class JumpyClock:
        def __init__(self):
            self.now = 0.0

        def monotonic(self):
            self.now += 10_000.0  # every elapsed measurement looks huge
            return self.now

        def __getattr__(self, name):
            return getattr(time, name)

    monkeypatch.setattr(fusion_mod, "time", JumpyClock())
    with make_server() as srv:
        client = ServiceClient(*srv.address)
        client.simulate(dict(REQ))
        stats = srv.service.scheduler.queue_stats()
        ceiling = 0.8 * 0.05 + 0.2 * _AVG_EXEC_SAMPLE_CAP
        assert 1.0 < stats["avg_exec_seconds"] <= ceiling + 1e-9


def test_cli_parses_the_benchmark_server_command():
    """``--fusion-window-ms`` stays parseable (and hidden) so existing
    launch commands keep booting; the queue ignores it."""
    from repro.service.__main__ import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["--concurrency", "2", "--fusion-window-ms", "25", "--port", "0"]
    )
    assert (args.concurrency, args.port, args.fusion_window_ms) == (2, 0, 25.0)
    assert "--fusion-window-ms" not in parser.format_help()
    with pytest.raises(SystemExit):
        parser.parse_args(["--fusion-min-batch", "4"])


def test_cli_serves_on_one_worker_process_per_slot():
    """``repro-serve`` defaults ``--workers`` to ``--concurrency``;
    ``--workers 0`` keeps requests on threads of the server process.
    The library default stays on threads."""
    from repro.service.__main__ import parse_args

    assert parse_args(["--concurrency", "2", "--port", "0"]).workers == 2
    assert parse_args([]).workers == parse_args([]).concurrency == 4
    assert parse_args(["--concurrency", "2", "--workers", "0"]).workers == 0
    assert SimulationExecutor().mode == "thread"
