#!/usr/bin/env python
"""CI smoke for the service: boot, round-trip, coalesce, stream, scrape.

Boots an in-process server, drives the blocking client through a QFA
request round trip (miss -> hit), checks the determinism contract, and
scrapes ``/healthz``, ``/stats`` and ``/metrics``.  A noisy 6-qubit
``auto`` request must be answered by the exact PTM engine.  A noisy
trajectory request must return identical counts when it runs at an
idle server and when it queues behind a busy slot next to a neighbour.
A one-slot server then exercises the ``/v1/sweep`` streaming path
(per-cell partials consumed as they complete) and the mid-stream
disconnect contract
(the server withdraws orphaned queued cells without poisoning shared
state).  Exits non-zero on any violated expectation — this is the
``service-smoke`` CI lane.

``--workers N`` runs the round trip and the sweep stream on N worker
processes instead of threads; then ``/stats`` must show the kernel and
compile counters the workers sent home.  The queue-parity and
disconnect checks hold a simulation by patching this process, so they
run on the thread tier only.

    REPRO_SCALE=smoke PYTHONPATH=src python scripts/service_smoke.py
    REPRO_SCALE=smoke PYTHONPATH=src python scripts/service_smoke.py --workers 2
"""

from __future__ import annotations

import argparse
import contextlib
import json
import socket
import sys
import threading
import time


def fail(message: str) -> "None":
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main(argv=None) -> int:
    from repro.service import (
        ArithmeticService,
        ServerThread,
        ServiceClient,
        SimulationExecutor,
    )

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = threads, the default)")
    workers = parser.parse_args(argv).workers
    request = dict(
        operation="add", n=2, m=3, x=[1, 2], y=[5],
        shots=256, seed=20220131, error_axis="2q", error_rate=0.001,
        trajectories=16, method="trajectory",
    )
    service = ArithmeticService(executor=SimulationExecutor(workers=workers))
    with ServerThread(service) as srv:
        client = ServiceClient(*srv.address, timeout=120)

        health = client.health()
        if health.get("status") != "ok":
            fail(f"healthz: {health}")
        print(f"[smoke] healthz ok (executor={health['executor']})")

        first = client.simulate(dict(request))
        if first.cache != "miss":
            fail(f"first request should miss, got {first.cache!r}")
        if sum(first.counts.values()) != request["shots"]:
            fail("shot count mismatch")
        if not first.program_fingerprint:
            fail("missing program fingerprint")
        print(
            f"[smoke] QFA round trip: method={first.method} "
            f"success={first.success} p={first.success_probability:.3f} "
            f"fp={first.program_fingerprint}"
        )

        second = client.simulate(dict(request))
        if second.cache != "hit":
            fail(f"second request should hit the cache, got {second.cache!r}")
        if second.counts != first.counts:
            fail("cached counts are not bit-identical")
        print("[smoke] result cache: hit with bit-identical payload")

        stats = client.stats()
        for section in ("compile_cache", "kernel_cache", "result_cache",
                        "queue", "executor"):
            if section not in stats:
                fail(f"/stats missing {section!r}")
        if stats["result_cache"]["hits"] < 1:
            fail("stats did not record the cache hit")
        if stats["executor"]["mode"] != ("process" if workers else "thread"):
            fail(f"executor mode {stats['executor']['mode']!r}")
        kernels = stats["kernel_cache"]
        if kernels["hits"] + kernels["misses"] == 0:
            fail("/stats kernel counters read 0 after a noisy request")
        if stats["compile_cache"]["lowerings"] == 0:
            fail("/stats compile counters read 0 after a noisy request")
        print(
            f"[smoke] /stats: lowerings={stats['compile_cache']['lowerings']} "
            f"kernel hits+misses={kernels['hits'] + kernels['misses']} "
            f"result-cache hits={stats['result_cache']['hits']}"
        )

        metrics = client.metrics_text()
        for needle in (
            'repro_requests_served_total{cache="miss"} 1',
            'repro_requests_served_total{cache="hit"} 1',
            "repro_queue_depth",
            "repro_latency_execute_seconds_bucket",
            "repro_result_cache_bytes",
        ):
            if needle not in metrics:
                fail(f"/metrics missing {needle!r}")
        print(f"[smoke] /metrics: {len(metrics.splitlines())} series lines")

        exact = client.simulate(dict(request, n=3, m=3, method="auto"))
        if exact.method != "ptm":
            fail(f"noisy 6-qubit auto request ran {exact.method!r}, not 'ptm'")
        print("[smoke] noisy 6-qubit auto request answered by ptm")

    _sweep_streaming_smoke(dict(request), workers)
    if not workers:
        _queued_parity_smoke(dict(request))
        _disconnect_smoke(dict(request))
    print(f"[smoke] service smoke passed (workers={workers})")
    return 0


def _one_slot_server(workers: int = 0) -> "object":
    """A server with one executor slot: requests queue behind the
    running one."""
    from repro.service import (
        ArithmeticService,
        ResultCache,
        ServerThread,
        SimulationExecutor,
    )

    return ServerThread(
        ArithmeticService(
            executor=SimulationExecutor(workers=workers, concurrency=1),
            cache=ResultCache(ttl=0),
            concurrency=1,
            lint_requests=False,
        )
    )


@contextlib.contextmanager
def _slow_batches(release: threading.Event, hold=lambda tasks: True):
    """Hold every scheduler pass that ``hold`` picks until ``release``."""
    import repro.service.executor as executor_mod

    real = executor_mod.run_request_tasks

    def held(tasks):
        if hold(tasks):
            release.wait(timeout=60)
        return real(tasks)

    executor_mod.run_request_tasks = held
    try:
        yield
    finally:
        release.set()
        executor_mod.run_request_tasks = real


def _wait_for(predicate, what: str, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            fail(f"timed out waiting for {what}")
        time.sleep(0.02)


def _queued_parity_smoke(request: dict) -> None:
    """At an idle server and queued behind a busy slot: identical counts."""
    from repro.service import ServiceClient, SimRequest

    with _one_slot_server() as srv:
        plain = ServiceClient(*srv.address, timeout=120).simulate(dict(request))
    blocker = dict(request, error_rate=0.05)
    neighbour = dict(request, error_rate=0.002)
    blocker_key = SimRequest.from_dict(blocker).content_key()
    release = threading.Event()
    with _one_slot_server() as srv, _slow_batches(
        release, lambda tasks: any(t.key == blocker_key for t in tasks)
    ):
        client = ServiceClient(*srv.address, timeout=120)
        results = {}

        def send(name, payload):
            results[name] = client.simulate(payload)

        threads = [threading.Thread(target=send, args=("blocker", blocker))]
        threads[0].start()
        _wait_for(lambda: srv.service.fusion.slots_in_use == 1,
                  "the blocker to take the slot")
        for name, payload in (("queued", request), ("neighbour", neighbour)):
            threads.append(
                threading.Thread(target=send, args=(name, dict(payload)))
            )
            threads[-1].start()
        _wait_for(lambda: srv.service.fusion.depth() == 2,
                  "two requests to queue behind the busy slot")
        release.set()
        for t in threads:
            t.join(timeout=120)
    queued = results.get("queued")
    if queued is None:
        fail("the request queued behind the busy slot never returned")
    if (plain.cache, queued.cache) != ("miss", "miss"):
        fail(f"expected miss/miss, got {plain.cache!r}/{queued.cache!r}")
    if plain.counts != queued.counts:
        fail("queued counts differ from the request run at an idle server")
    print("[smoke] queue parity: idle and queued counts bit-identical")


def _sweep_streaming_smoke(request: dict, workers: int) -> None:
    """Consume a ``/v1/sweep`` stream cell by cell."""
    from repro.service import ServiceClient

    rates = [0.001, 0.002, 0.004, 0.008]
    # One slot: the first cell runs at once, the rest queue behind it.
    with _one_slot_server(min(workers, 1)) as srv:
        client = ServiceClient(*srv.address, timeout=120)
        seen = []
        for part in client.submit_sweep(request, rates):
            if not part.ok:
                fail(f"sweep cell {part.error_rate} errored: {part.error}")
            if sum(part.response.counts.values()) != request["shots"]:
                fail(f"sweep cell {part.error_rate}: shot count mismatch")
            seen.append(part.error_rate)
        if sorted(seen) != rates:
            fail(f"sweep delivered {sorted(seen)}, wanted {rates}")
        print(f"[smoke] /v1/sweep: {len(seen)} cells streamed")


def _disconnect_smoke(request: dict) -> None:
    """Drop a sweep mid-stream; the server must cancel orphaned cells."""
    from repro.service import ServiceClient

    rates = [0.001, 0.002, 0.004, 0.008]
    # The first cell holds the only slot, so the others wait in the
    # queue while the client vanishes — the orphans must be withdrawn,
    # not executed.
    release = threading.Event()
    with _one_slot_server() as srv, _slow_batches(release):
        host, port = srv.address
        body = json.dumps({"base": request, "rates": rates}).encode()
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                b"POST /v1/sweep HTTP/1.1\r\n"
                b"Host: smoke\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            buf = b""
            while b"\r\n\r\n" not in buf:
                chunk = sock.recv(4096)
                if not chunk:
                    fail("sweep closed before sending headers")
                buf += chunk
            if b"200 OK" not in buf:
                fail(f"sweep head: {buf[:200]!r}")
            _wait_for(lambda: srv.service.fusion.depth() == len(rates) - 1,
                      "the cells to queue behind the first")
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if srv.service.fusion.depth() == 0:
                break
            time.sleep(0.05)
        if srv.service.fusion.depth() != 0:
            fail(
                f"queue still holds {srv.service.fusion.depth()} orphaned "
                f"cells after disconnect"
            )
        release.set()
        # Shared state is healthy: a fresh request round-trips fine.
        client = ServiceClient(*srv.address, timeout=120)
        resp = client.simulate(dict(request, error_rate=0.0))
        if sum(resp.counts.values()) != request["shots"]:
            fail("post-disconnect request returned bad counts")
        stats = client.stats()
        if stats["metrics"]["counters"].get("sweep_disconnects_total") != 1:
            fail("server did not record the sweep disconnect")
        print(
            "[smoke] disconnect: orphaned cells cancelled, "
            "server healthy after client drop"
        )


if __name__ == "__main__":
    sys.exit(main())
