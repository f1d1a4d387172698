#!/usr/bin/env python
"""CI smoke for the service: boot, round-trip, coalesce, stream, scrape.

Boots an in-process server, drives the blocking client through a QFA
request round trip (miss -> hit), checks the determinism contract, and
scrapes ``/healthz``, ``/stats`` and ``/metrics``.  A noisy 6-qubit
``auto`` request must be answered by the exact PTM engine.  A noisy
trajectory request must return identical counts from a server with the
fusion window at 0 and from a fusion-enabled one.  A fusion-enabled
server then exercises the ``/v1/sweep`` streaming path
(per-cell partials consumed as they complete) and the mid-stream
disconnect contract (the server cancels orphaned queued cells without
poisoning shared state).  Exits non-zero on any violated expectation —
this is the ``service-smoke`` CI lane.
"""

from __future__ import annotations

import json
import socket
import sys
import time


def fail(message: str) -> "None":
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    from repro.service import ServerThread, ServiceClient

    request = dict(
        operation="add", n=2, m=3, x=[1, 2], y=[5],
        shots=256, seed=20220131, error_axis="2q", error_rate=0.001,
        trajectories=16, method="trajectory",
    )
    with ServerThread() as srv:
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
        print(
            f"[smoke] /stats: lowerings={stats['compile_cache']['lowerings']} "
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

    _fusion_parity_smoke(dict(request))
    _sweep_streaming_smoke(dict(request))
    _disconnect_smoke(dict(request))
    print("[smoke] service smoke passed")
    return 0


def _fused_server(window_ms: float, min_batch: int) -> "object":
    from repro.service import (
        ArithmeticService,
        FusionGate,
        ResultCache,
        ServerThread,
        SimulationExecutor,
    )

    executor = SimulationExecutor(workers=0, concurrency=4)
    return ServerThread(
        ArithmeticService(
            executor=executor,
            cache=ResultCache(ttl=0),
            concurrency=4,
            lint_requests=False,
            fusion=FusionGate(
                executor, window_ms=window_ms, min_batch=min_batch
            ),
        )
    )


def _fusion_parity_smoke(request: dict) -> None:
    """Window 0 and a fusion-enabled window return identical counts."""
    from repro.service import ServiceClient

    responses = {}
    for window_ms in (0, 25):
        with _fused_server(window_ms=window_ms, min_batch=1) as srv:
            client = ServiceClient(*srv.address, timeout=120)
            responses[window_ms] = client.simulate(dict(request))
    plain, fused = responses[0], responses[25]
    if (plain.cache, fused.cache) != ("miss", "fused"):
        fail(f"expected miss/fused, got {plain.cache!r}/{fused.cache!r}")
    if plain.counts != fused.counts:
        fail("fused counts differ from the window-0 server's")
    print("[smoke] fusion parity: window 0 and fused counts bit-identical")


def _sweep_streaming_smoke(request: dict) -> None:
    """Consume a fused ``/v1/sweep`` stream cell by cell."""
    from repro.service import ServiceClient, reset_fusion_stats

    rates = [0.001, 0.002, 0.004, 0.008]
    reset_fusion_stats()
    with _fused_server(window_ms=25, min_batch=len(rates)) as srv:
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
        stats = client.stats()
        totals = stats["fusion"]["totals"]
        if totals["batches"] < 1 or totals["hit_rate"] < 0.5:
            fail(f"sweep cells did not fuse: {totals}")
        print(
            f"[smoke] /v1/sweep: {len(seen)} cells streamed, "
            f"fusion hit rate {totals['hit_rate']:.0%} "
            f"({totals['batches']} batch(es))"
        )


def _disconnect_smoke(request: dict) -> None:
    """Drop a sweep mid-stream; the server must cancel orphaned cells."""
    from repro.service import ServiceClient

    rates = [0.001, 0.002, 0.004, 0.008]
    # A huge window keeps every cell queued in the gate while the
    # client vanishes — the orphans must be withdrawn, not executed.
    with _fused_server(window_ms=60_000, min_batch=1000) as srv:
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
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if srv.service.fusion.depth() == 0:
                break
            time.sleep(0.05)
        if srv.service.fusion.depth() != 0:
            fail(
                f"gate still holds {srv.service.fusion.depth()} orphaned "
                f"cells after disconnect"
            )
        # Shared state is healthy: an ideal-noise request (which
        # bypasses the still-huge window) round-trips fine.
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
