"""Cross-request fusion tier: parity, fairness, streaming sweeps.

The acceptance contract under test:

* knobs off (``window_ms=0``) the gate is bypassed and responses are
  byte-identical to a gate-free server;
* knobs on, per-request results are bit-identical across batch
  geometries and to the same request run alone (a batch of one), with
  sanitizer-trace parity on every portable stage;
* the batch executor screens before compiling: a ``cut`` request never
  lowers the full-width program;
* deficit-round-robin keeps a heavy tenant from starving a light one;
* ``/v1/sweep`` streams per-cell partials and survives a mid-stream
  client disconnect without poisoning shared state.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.runtime import sanitizer
from repro.runtime.supervisor import RetryPolicy
from repro.service import (
    ArithmeticService,
    FusionGate,
    RequestRejected,
    RequestValidationError,
    ResultCache,
    ServerThread,
    ServiceClient,
    SimRequest,
    SimulationExecutor,
    SweepRequest,
    fusion_eligible,
    fusion_stats,
    reset_fusion_stats,
)
from repro.service.executor import _execute_fused_batch, _execute_payload
from repro.service.fusion import FusionSaturated

REQ = dict(
    operation="add", n=2, m=2, x=[1], y=[2],
    shots=128, seed=11, error_axis="2q", error_rate=0.002, trajectories=8,
    method="trajectory",
)

RATES = (0.001, 0.002, 0.004, 0.008, 0.016)


def payloads_for(rates=RATES, **overrides):
    return [dict(REQ, error_rate=r, **overrides) for r in rates]


def fused_server(window_ms=25, min_batch=4, **gate_kwargs):
    executor = SimulationExecutor(
        workers=0, concurrency=4, retry=RetryPolicy(max_attempts=2)
    )
    service = ArithmeticService(
        executor=executor,
        cache=ResultCache(ttl=0),
        concurrency=4,
        lint_requests=False,
        fusion=FusionGate(
            executor, window_ms=window_ms, min_batch=min_batch, **gate_kwargs
        ),
    )
    return ServerThread(service)


# ---------------------------------------------------------------------------
# Eligibility
# ---------------------------------------------------------------------------

def test_fusion_eligibility_screen():
    assert fusion_eligible(SimRequest.from_dict(dict(REQ)))
    assert not fusion_eligible(
        SimRequest.from_dict(dict(REQ, error_rate=0.0))
    )
    assert not fusion_eligible(
        SimRequest.from_dict(dict(REQ, method="density"))
    )
    # auto on a small register resolves to density — not fusable.
    assert not fusion_eligible(SimRequest.from_dict(dict(REQ, method="auto")))


# ---------------------------------------------------------------------------
# Bit parity
# ---------------------------------------------------------------------------

def test_fused_batch_bit_identical_to_dedup_path():
    batch = _execute_fused_batch(payloads_for())["results"]
    solo = [_execute_payload(p) for p in payloads_for()]
    for fused, alone in zip(batch, solo):
        assert fused["counts"] == alone["counts"]
        assert fused["success"] == alone["success"]
        assert fused["min_diff"] == alone["min_diff"]
        assert fused["method"] == alone["method"] == "trajectory"


def test_fused_batch_geometry_invariant():
    whole = _execute_fused_batch(payloads_for())["results"]
    parts = (
        _execute_fused_batch(payloads_for()[:2])["results"]
        + _execute_fused_batch(payloads_for()[2:])["results"]
    )
    for a, b in zip(whole, parts):
        assert a["counts"] == b["counts"]
        assert a["content_key"] == b["content_key"]


def test_fused_batch_sanitizer_trace_parity():
    sanitizer.force(True)
    try:
        whole = _execute_fused_batch(payloads_for())
        split = _execute_fused_batch(payloads_for()[:3])
        split2 = _execute_fused_batch(payloads_for()[3:])
        # Portable stages compare equal across batch geometries.
        problems = sanitizer.compare_traces(
            whole["sanitizer_events"],
            split["sanitizer_events"] + split2["sanitizer_events"],
        )
        assert problems == []
        # And every portable stage (task and counts events, keyed by
        # content key on both sides) matches the requests run alone.
        solo_events = []
        for p in payloads_for():
            solo_events.extend(_execute_payload(p)["sanitizer_events"])
        assert {e[0] for e in solo_events} >= {"task", "counts"}
        problems = sanitizer.compare_traces(
            whole["sanitizer_events"], solo_events
        )
        assert problems == []
    finally:
        sanitizer.force(None)


def test_knobs_off_byte_identical_to_per_request_path():
    """window=0 bypasses the gate: same bytes as a gate-free server."""
    def run(server):
        with server as srv:
            client = ServiceClient(*srv.address)
            docs = []
            for payload in payloads_for():
                doc = client.simulate(payload).to_dict()
                doc.pop("timings_ms")  # wall-clock, legitimately varies
                docs.append(json.dumps(doc, sort_keys=True))
            return docs

    executor = SimulationExecutor(workers=0, concurrency=2)
    plain = ArithmeticService(
        executor=executor, cache=ResultCache(ttl=0), lint_requests=False
    )
    assert not plain.fusion.enabled  # env knob unset -> gate inert
    gated = run(fused_server(window_ms=0))
    ungated = run(ServerThread(plain))
    assert gated == ungated


def test_fused_server_matches_unfused_dedup_server():
    """Fusion on == fusion window 0, request for request, over HTTP."""
    def concurrent_results(server):
        with server as srv:
            client = ServiceClient(*srv.address)
            results = {}

            def one(rate):
                results[rate] = client.simulate(dict(REQ, error_rate=rate))

            threads = [
                threading.Thread(target=one, args=(r,)) for r in RATES
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        return results

    fused = concurrent_results(
        fused_server(window_ms=200, min_batch=len(RATES))
    )
    unfused = concurrent_results(fused_server(window_ms=0))
    assert any(r.cache == "fused" for r in fused.values())
    assert all(r.cache == "miss" for r in unfused.values())
    for rate in RATES:
        assert fused[rate].counts == unfused[rate].counts
        assert fused[rate].success == unfused[rate].success
        assert fused[rate].method == unfused[rate].method == "trajectory"


def test_cut_request_never_lowers_full_width_program():
    """The batch executor screens before compiling: a 16-qubit ``cut``
    request lowers its fragments only, never the full-width program."""
    from repro.experiments.runner import (
        build_arithmetic_circuit,
        noise_model_for,
    )
    from repro.sim.engines import simulate_counts
    from repro.sim.program import compile_cache_stats, reset_compile_caches

    # A rate no other test uses, so no full-width program is memoised.
    cut = dict(
        operation="add", n=8, m=8, x=[3], y=[5], shots=64, seed=5,
        error_axis="1q", error_rate=0.00123, trajectories=4, method="cut",
    )
    request = SimRequest.from_dict(cut)
    assert request.total_qubits == 16
    reset_compile_caches()
    # Warm the fragment lowerings through the cut engine itself.
    simulate_counts(
        build_arithmetic_circuit("add", 8, 8, None),
        noise_model_for("1q", cut["error_rate"]),
        shots=8, method="cut", trajectories=4, seed=0,
        initial_state=request.instance().initial_statevector(),
    )
    before = compile_cache_stats().lowerings
    result = _execute_payload(dict(cut))
    assert compile_cache_stats().lowerings == before
    assert result["method"] == "cut"
    assert sum(result["counts"].values()) == cut["shots"]


# ---------------------------------------------------------------------------
# DRR fairness
# ---------------------------------------------------------------------------

def test_drr_select_shares_flush_between_tenants():
    async def scenario():
        executor = SimulationExecutor(workers=0, concurrency=1)
        gate = FusionGate(
            executor, window_ms=10_000, min_batch=1000,
            quantum=4 * REQ["shots"], max_batch=8,
        )
        gate._wake = asyncio.Event()
        heavy = [
            SimRequest.from_dict(
                dict(REQ, error_rate=0.001 * (i + 1), tenant="heavy")
            )
            for i in range(20)
        ]
        light = [
            SimRequest.from_dict(
                dict(REQ, error_rate=0.03 + 0.001 * (i + 1), tenant="light")
            )
            for i in range(2)
        ]
        for request in heavy + light:
            gate.enqueue(request)
        selected = gate._select()
        by_tenant = {}
        for entry in selected:
            by_tenant.setdefault(entry.tenant, []).append(entry)
        return by_tenant, gate

    by_tenant, gate = asyncio.run(scenario())
    # quantum covers 4 requests per tenant; the flush cap is 8 — the
    # light tenant gets its whole backlog through despite arriving
    # behind 20 heavy requests.
    assert len(by_tenant["light"]) == 2
    assert len(by_tenant["heavy"]) == 4
    # depth is settled by _flush; _select only dequeues — 16 heavy
    # requests remain queued, the light tenant's backlog is empty.
    assert sum(len(q) for q in gate._queues.values()) == 16
    deficits = gate.tenant_deficits()
    assert "heavy" in deficits and "light" not in deficits


def test_gate_saturation_raises():
    async def scenario():
        executor = SimulationExecutor(workers=0, concurrency=1)
        gate = FusionGate(executor, window_ms=10_000, max_pending=2)
        gate._wake = asyncio.Event()
        gate.enqueue(SimRequest.from_dict(dict(REQ, error_rate=0.001)))
        gate.enqueue(SimRequest.from_dict(dict(REQ, error_rate=0.002)))
        with pytest.raises(FusionSaturated):
            gate.enqueue(SimRequest.from_dict(dict(REQ, error_rate=0.003)))

    asyncio.run(scenario())


def test_release_withdraws_pending_entry():
    async def scenario():
        executor = SimulationExecutor(workers=0, concurrency=1)
        gate = FusionGate(executor, window_ms=10_000)
        gate._wake = asyncio.Event()
        request = SimRequest.from_dict(dict(REQ, tenant="t"))
        future = gate.enqueue(request)
        key = request.content_key()
        assert gate.retain(key)  # a coalescer attaches
        assert not gate.release(key)  # ...and detaches: entry survives
        assert gate.depth() == 1
        assert gate.release(key)  # last waiter gone: withdrawn
        assert gate.depth() == 0
        assert future.cancelled()
        assert not gate.release(key)  # idempotent

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# /v1/sweep streaming
# ---------------------------------------------------------------------------

def test_sweep_request_model_validation():
    sweep = SweepRequest.from_dict(
        {"base": dict(REQ), "rates": list(RATES), "tenant": "team-a"}
    )
    cells = sweep.cells()
    assert [c.error_rate for c in cells] == list(RATES)
    assert all(c.tenant == "team-a" for c in cells)
    with pytest.raises(RequestValidationError) as err:
        SweepRequest.from_dict({"base": dict(REQ), "rates": []})
    assert any("rates" in e for e in err.value.errors)
    with pytest.raises(RequestValidationError) as err:
        SweepRequest.from_dict({"base": dict(REQ), "rates": [0.1, 0.1]})
    assert any("duplicate" in e for e in err.value.errors)


def test_sweep_streams_partials_and_done():
    reset_fusion_stats()
    with fused_server(window_ms=20, min_batch=3) as srv:
        client = ServiceClient(*srv.address)
        parts = list(client.submit_sweep(dict(REQ), RATES))
        assert len(parts) == len(RATES)
        assert {p.error_rate for p in parts} == set(RATES)
        assert all(p.ok for p in parts)
        assert all(p.request_id for p in parts)
        for p in parts:
            assert sum(p.response.counts.values()) == REQ["shots"]
        stats = client.stats()
        assert stats["fusion"]["totals"]["batches"] >= 1
        assert stats["metrics"]["counters"]["sweep_requests_total"] == 1
        assert stats["metrics"]["counters"]["sweep_cells_total"] == len(RATES)
    totals = fusion_stats()
    assert totals["hit_rate"] > 0.5


def test_sweep_rejects_bad_spec_with_request_id():
    with fused_server() as srv:
        client = ServiceClient(*srv.address)
        with pytest.raises(RequestRejected) as err:
            list(client.submit_sweep(dict(REQ), [0.5, 1.5]))
        assert err.value.status == 400
        assert err.value.request_id


def test_sweep_mid_stream_disconnect_cancels_pending():
    # A huge window holds every cell in the gate; the client reads the
    # stream header then vanishes.  The watchdog must cancel the
    # orphaned cells (gate drains to zero) and the server must keep
    # serving.
    with fused_server(window_ms=60_000, min_batch=1000) as srv:
        host, port = srv.address
        spec = {"base": dict(REQ), "rates": list(RATES)}
        body = json.dumps(spec).encode()
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/sweep HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            buf = b""
            while b"\r\n\r\n" not in buf:
                buf += sock.recv(4096)
            assert b"200 OK" in buf
        # socket closed: poll the gate until the orphans are withdrawn
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if srv.service.fusion.depth() == 0:
                break
            time.sleep(0.02)
        assert srv.service.fusion.depth() == 0
        # shared state is healthy: a fresh (ineligible, so it bypasses
        # the still-huge window) request round-trips fine.
        client = ServiceClient(*srv.address)
        resp = client.simulate(dict(REQ, error_rate=0.0))
        assert sum(resp.counts.values()) == REQ["shots"]
        stats = client.stats()
        assert stats["metrics"]["counters"]["sweep_disconnects_total"] == 1


# ---------------------------------------------------------------------------
# Observability plumbing
# ---------------------------------------------------------------------------

def test_fusion_metrics_and_stats_surfaces():
    reset_fusion_stats()
    with fused_server(window_ms=20, min_batch=3) as srv:
        client = ServiceClient(*srv.address)
        list(client.submit_sweep(dict(REQ, tenant="team-a"), RATES))
        text = client.metrics_text()
        assert "repro_fusion_hit_rate" in text
        assert "repro_fusion_batch_occupancy" in text
        assert 'repro_fusion_tenant_served_cost{tenant="team-a"}' in text
        assert "repro_latency_fusion_window_wait_seconds_bucket" in text
        stats = client.stats()
        fusion = stats["fusion"]
        assert fusion["enabled"] is True
        assert fusion["totals"]["admitted"] == len(RATES)
        assert "team-a" in fusion["totals"]["tenants"]
        latency = stats["metrics"]["latency"]["fusion_window_wait"]
        assert latency["count"] == len(RATES)
        assert latency["p99_seconds"] >= latency["p50_seconds"]
    # the CLI mirror sees the same process-wide counters
    from repro.service.stats import cache_stats_snapshot, render_cache_stats

    snapshot = cache_stats_snapshot()
    assert snapshot["fusion"]["admitted"] >= len(RATES)
    assert "fusion" in render_cache_stats(snapshot)
