"""The one service queue: slots, one request per take, fairness,
streaming sweeps.

The acceptance contract under test:

* the queue is work-conserving: at most ``concurrency`` requests run at
  once, a request at an idle server starts with no timer, and every
  executor call carries one request;
* per-request results are bit-identical across chunk geometries, to
  the same task sharing a scheduler call with other tasks, and over
  HTTP between a request answered at an idle server and one that
  queued behind a busy slot — with sanitizer-trace parity on every
  portable stage;
* the executor screens before compiling: a ``cut`` request never
  lowers the full-width program;
* deficit round robin keeps a heavy tenant from holding back a light
  one, priority order holds within a tenant, the waiting bound rejects,
  and cancellation withdraws waiting entries;
* ``/v1/sweep`` streams per-cell partials and survives a mid-stream
  client disconnect without poisoning shared state.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

import repro.service.executor as executor_mod
import repro.sim.batch as batch_mod
from repro.runtime import sanitizer
from repro.runtime.supervisor import RetryPolicy
from repro.service import (
    AdmissionError,
    ArithmeticService,
    FusionGate,
    JobScheduler,
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
from repro.service.executor import _execute_payload, _scheduler_task_for
from repro.service.fusion import _RETRY_AFTER_CAP, QUANTUM, FusionSaturated
from repro.sim.batch import run_request_tasks

REQ = dict(
    operation="add", n=2, m=2, x=[1], y=[2],
    shots=128, seed=11, error_axis="2q", error_rate=0.002, trajectories=8,
    method="trajectory",
)

RATES = (0.001, 0.002, 0.004, 0.008, 0.016)


def payloads_for(rates=RATES, **overrides):
    return [dict(REQ, error_rate=r, **overrides) for r in rates]


def one_slot_server(concurrency=1, **gate_kwargs):
    """A server whose single slot makes requests queue behind each other."""
    executor = SimulationExecutor(
        workers=0, concurrency=concurrency, retry=RetryPolicy(max_attempts=2)
    )
    service = ArithmeticService(
        executor=executor,
        cache=ResultCache(ttl=0),
        concurrency=concurrency,
        lint_requests=False,
        fusion=FusionGate(executor, **gate_kwargs),
    )
    return ServerThread(service)


def _poll(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class HeldExecutor(SimulationExecutor):
    """Records every request it runs and holds it until the test
    releases it.

    Create it inside the running loop (its events bind to that loop).
    """

    def __init__(self, concurrency):
        super().__init__(workers=0, concurrency=concurrency)
        self.calls = []  # [(request, release event)]
        self.in_flight = 0
        self.peak = 0

    async def run(self, request):
        release = asyncio.Event()
        self.calls.append((request, release))
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        try:
            await release.wait()
        finally:
            self.in_flight -= 1
        return {"content_key": request.content_key()}

    def rate(self, call):
        return self.calls[call][0].error_rate

    def tenant(self, call):
        return self.calls[call][0].tenant

    async def release(self, call):
        self.calls[call][1].set()
        for _ in range(5):  # let the request settle and the slot refill
            await asyncio.sleep(0)

    async def finish(self, gate):
        """Release every request, present and future, until ``gate`` idles."""
        while gate.depth() or gate.slots_in_use:
            for _, release in self.calls:
                release.set()
            await asyncio.sleep(0)


def req(rate, **overrides):
    return SimRequest.from_dict(dict(REQ, error_rate=rate, **overrides))


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
    # auto on a small register resolves to ptm — not a scheduler task.
    assert not fusion_eligible(SimRequest.from_dict(dict(REQ, method="auto")))


# ---------------------------------------------------------------------------
# Bit parity
# ---------------------------------------------------------------------------

def _shared_call(payloads):
    """Every request's task in one scheduler call: ``{content key: counts}``."""
    tasks = [_scheduler_task_for(SimRequest.from_dict(p)) for p in payloads]
    results = run_request_tasks(tasks)
    return {
        task.key: {int(k): int(v) for k, v in results[task.key].counts.items()}
        for task in tasks
    }


def test_fused_batch_bit_identical_to_dedup_path():
    """A request's counts through the executor equal its task's counts
    when it shares one scheduler call with other requests' tasks."""
    shared = _shared_call(payloads_for())
    for payload in payloads_for():
        alone = _execute_payload(payload)
        assert alone["counts"] == shared[alone["content_key"]]
        assert alone["method"] == "trajectory"


def _bytes(result):
    d = dict(result)
    d.pop("timings_ms")  # wall-clock, legitimately varies
    return json.dumps(d, sort_keys=True)


def test_fused_batch_geometry_invariant(monkeypatch):
    """Chunk geometry never leaks into a response: with one row per
    chunk every request answers the same bytes."""
    default = [_bytes(_execute_payload(p)) for p in payloads_for()]
    monkeypatch.setattr(batch_mod, "BATCH_BYTES", 1)
    one_row = [_bytes(_execute_payload(p)) for p in payloads_for()]
    assert one_row == default


def test_fused_batch_sanitizer_trace_parity(monkeypatch):
    sanitizer.force(True)
    try:
        solo = []
        for p in payloads_for():
            solo.extend(_execute_payload(p)["sanitizer_events"])
        assert {e[0] for e in solo} >= {"task", "counts"}
        # Portable stages compare equal across chunk geometries...
        monkeypatch.setattr(batch_mod, "BATCH_BYTES", 1)
        one_row = []
        for p in payloads_for():
            one_row.extend(_execute_payload(p)["sanitizer_events"])
        assert sanitizer.compare_traces(solo, one_row) == []
        monkeypatch.undo()
        # ...and every task event matches the tasks sharing one call.
        with sanitizer.capture() as shared:
            _shared_call(payloads_for())
        assert sanitizer.compare_traces(
            [list(e) for e in shared], solo, stages=("task",)
        ) == []
    finally:
        sanitizer.force(None)


def _doc(response):
    d = response.to_dict()
    d.pop("timings_ms")  # wall-clock, legitimately varies
    return json.dumps(d, sort_keys=True)


def _concurrent(client, payloads):
    """Send ``payloads`` at once; responses in payload order."""
    results = {}

    def one(i, payload):
        results[i] = client.simulate(payload)

    threads = [
        threading.Thread(target=one, args=(i, p))
        for i, p in enumerate(payloads)
    ]
    for t in threads:
        t.start()
    return threads, results


def _hold_first_call(monkeypatch):
    """Make the first scheduler call wait; returns (started, release,
    sizes) where ``sizes`` records the task count of every call."""
    started = threading.Event()
    release = threading.Event()
    sizes = []
    real = executor_mod.run_request_tasks

    def held(tasks):
        sizes.append([task.key for task in tasks])
        if not started.is_set():  # the blocker occupying the only slot
            started.set()
            release.wait(timeout=30)
        return real(tasks)

    monkeypatch.setattr(executor_mod, "run_request_tasks", held)
    return started, release, sizes


def _queued_under_load(monkeypatch, payloads):
    """``payloads``, queued behind a blocker holding the only slot;
    returns (responses in payload order, per-call task keys)."""
    started, release, calls = _hold_first_call(monkeypatch)
    with one_slot_server() as srv:
        client = ServiceClient(*srv.address)
        blocker = threading.Thread(
            target=client.simulate, args=(dict(REQ, error_rate=0.03),)
        )
        blocker.start()
        assert started.wait(timeout=30)
        threads, results = _concurrent(client, payloads)
        assert _poll(lambda: srv.service.fusion.depth() == len(payloads))
        release.set()
        for t in threads + [blocker]:
            t.join(timeout=30)
    monkeypatch.undo()
    return [results[i] for i in range(len(payloads))], calls


def test_solo_at_idle_server_byte_identical_to_fused_under_load(monkeypatch):
    """Over HTTP: every request answered at an idle server is the same
    bytes as when it queued behind a busy slot."""
    def doc(response):
        d = json.loads(_doc(response))
        d.pop("cache")  # how it was served: allowed to differ
        return d

    with one_slot_server() as srv:
        client = ServiceClient(*srv.address)
        solo = [client.simulate(p) for p in payloads_for()]
    assert {r.cache for r in solo} == {"miss"}

    queued, _ = _queued_under_load(monkeypatch, payloads_for())
    assert [doc(r) for r in queued] == [doc(r) for r in solo]


def test_one_request_per_take_alternates_tenants(monkeypatch):
    """Queued requests of one circuit family from two tenants leave one
    per executor call, the tenants take turns, and every response says
    it ran as a plain miss."""
    # Distinct rates: the tenant is not part of the content key, so
    # equal requests from two tenants would coalesce.
    payloads = [
        dict(REQ, error_rate=r, tenant=t)
        for t, rates in (("a", RATES[:3]), ("b", (0.003, 0.005, 0.007)))
        for r in rates
    ]
    tenant_of = {
        SimRequest.from_dict(p).content_key(): p["tenant"] for p in payloads
    }
    queued, calls = _queued_under_load(monkeypatch, payloads)
    assert [len(keys) for keys in calls] == [1] * (1 + len(payloads))
    tenants = [tenant_of[keys[0]] for keys in calls[1:]]
    assert sorted(tenants) == ["a"] * 3 + ["b"] * 3
    assert all(x != y for x, y in zip(tenants, tenants[1:]))
    assert {r.cache for r in queued} == {"miss"}


def test_cut_request_never_lowers_full_width_program():
    """The executor screens before compiling: a 16-qubit ``cut``
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
# The one queue: slots, fairness, admission, cancellation
# ---------------------------------------------------------------------------

def test_idle_server_runs_a_request_at_once():
    """No hold timer: an idle slot starts the request on the next loop
    turn."""
    async def scenario():
        executor = HeldExecutor(concurrency=2)
        gate = FusionGate(executor)
        future = gate.enqueue(req(0.001))
        assert gate.slots_in_use == 1 and gate.depth() == 0
        await asyncio.sleep(0)  # one loop turn: no timer can have fired
        assert len(executor.calls) == 1
        await executor.release(0)
        payload, source = await future
        assert source == "miss"
        assert payload["content_key"] == req(0.001).content_key()

    asyncio.run(scenario())


def test_at_most_concurrency_batches_in_flight():
    async def scenario():
        executor = HeldExecutor(concurrency=2)
        gate = FusionGate(executor)
        futures = [
            gate.enqueue(req(0.001 * (i + 1), n=2 + i % 3, tenant=f"t{i % 4}"))
            for i in range(12)
        ]
        await asyncio.sleep(0)
        assert len(executor.calls) == 2 and gate.depth() == 10
        call = 0
        while gate.depth() or gate.slots_in_use:
            assert executor.in_flight <= 2
            await executor.release(call)
            call += 1
        await asyncio.gather(*futures)
        assert executor.peak == 2
        assert len(executor.calls) == 12

    asyncio.run(scenario())


def test_drr_select_shares_flush_between_tenants():
    """Each take is one request, and the tenants take turns: the light
    tenant's whole backlog gets through in the first four takes despite
    queueing behind 20 heavy ones."""
    async def scenario():
        executor = HeldExecutor(concurrency=1)
        gate = FusionGate(executor, quantum=4 * REQ["shots"])
        gate.enqueue(req(0.5, tenant="blocker"))
        for i in range(20):
            gate.enqueue(req(0.001 * (i + 1), tenant="heavy"))
        for i in range(2):
            gate.enqueue(req(0.03 + 0.001 * (i + 1), tenant="light"))
        await asyncio.sleep(0)
        for call in range(4):
            await executor.release(call)
        tenants = [executor.tenant(call) for call in range(1, 5)]
        described = gate.describe()
        await executor.finish(gate)
        return tenants, described

    tenants, described = asyncio.run(scenario())
    assert tenants == ["heavy", "light", "heavy", "light"]
    assert described["tenant_pending"] == {"heavy": 18}
    deficits = described["tenant_deficits"]
    assert "heavy" in deficits and "light" not in deficits


def test_backlogged_tenant_cannot_hold_back_another_past_next_slot():
    """A batch tenant with 50 queued cells: another tenant's request
    goes at the next free slot, not behind the backlog."""
    async def scenario():
        executor = HeldExecutor(concurrency=1)
        gate = FusionGate(executor)
        for i in range(51):
            gate.enqueue(req(0.001 * (i + 1), shots=2048, tenant="batch"))
        await asyncio.sleep(0)
        await executor.release(0)  # the batch tenant's next cell starts
        assert gate.depth() == 49
        gate.enqueue(req(0.0025, shots=512, tenant="interactive"))
        await executor.release(1)
        assert executor.tenant(2) == "interactive"
        await executor.release(2)
        assert executor.tenant(3) == "batch"
        await executor.finish(gate)

    asyncio.run(scenario())


def test_backlogged_tenant_deficit_stays_bounded():
    """A take charges one request, so a turn credits a tenant only when
    its head does not fit: over 30 takes of a 128-shot backlog, next to
    a tenant whose 4096-shot requests need a full quantum each, no
    balance exceeds one quantum."""
    async def scenario():
        executor = HeldExecutor(concurrency=1)
        gate = FusionGate(executor)
        gate.enqueue(req(0.5, tenant="blocker"))
        for i in range(40):
            gate.enqueue(req(0.0001 * (i + 1), shots=128, tenant="small"))
            gate.enqueue(req(0.1 + 0.001 * i, shots=4096, tenant="large"))
        await asyncio.sleep(0)
        peaks = []
        for call in range(30):
            await executor.release(call)
            peaks.append(max(gate.tenant_deficits().values(), default=0.0))
        await executor.finish(gate)
        return peaks

    peaks = asyncio.run(scenario())
    assert max(peaks) <= QUANTUM
    assert min(peaks) >= 0.0


def test_priority_order_holds_within_a_tenant():
    """Lower priority value first, FIFO within a class."""
    async def scenario():
        executor = HeldExecutor(concurrency=1)
        gate = FusionGate(executor)
        gate.enqueue(req(0.5))
        gate.enqueue(req(0.001, priority=9))
        gate.enqueue(req(0.002, n=3, priority=0))
        gate.enqueue(req(0.003, priority=0))
        gate.enqueue(req(0.004, n=3, priority=0))
        await asyncio.sleep(0)
        for call in range(4):
            await executor.release(call)
        await executor.finish(gate)
        return [executor.rate(call) for call in range(1, 5)]

    assert asyncio.run(scenario()) == [0.002, 0.003, 0.004, 0.001]


def test_gate_saturation_raises():
    """The waiting bound rejects; the scheduler turns it into an
    AdmissionError whose Retry-After is floored at 1 s and capped.
    (Over HTTP that is a 429 with ``Retry-After``; see
    ``test_backpressure_returns_429_with_retry_after``.)"""
    async def scenario():
        executor = HeldExecutor(concurrency=1)
        gate = FusionGate(executor, max_queue=2)
        gate.enqueue(req(0.001))  # runs
        gate.enqueue(req(0.002))
        gate.enqueue(req(0.003))
        with pytest.raises(FusionSaturated):
            gate.enqueue(req(0.004))
        unqueued = FusionGate(executor, max_queue=0)
        unqueued.enqueue(req(0.008))  # a free slot takes it: no waiting
        with pytest.raises(FusionSaturated):
            unqueued.enqueue(req(0.009))
        scheduler = JobScheduler(executor, max_queue=1, concurrency=1)
        scheduler.fusion.enqueue(req(0.005))
        scheduler.fusion.enqueue(req(0.006))
        with pytest.raises(AdmissionError) as err:
            await scheduler.submit(req(0.007))
        assert 1.0 <= err.value.retry_after <= _RETRY_AFTER_CAP
        await executor.finish(gate)
        await executor.finish(unqueued)
        await executor.finish(scheduler.fusion)

    asyncio.run(scenario())


def test_release_withdraws_pending_entry():
    async def scenario():
        executor = HeldExecutor(concurrency=1)
        gate = FusionGate(executor)
        gate.enqueue(req(0.5))  # occupies the slot
        request = req(0.002, tenant="t")
        future = gate.enqueue(request)
        key = request.content_key()
        assert gate.retain(key)  # a coalescer attaches
        assert not gate.release(key)  # ...and detaches: entry survives
        assert gate.depth() == 1
        assert gate.release(key)  # last waiter gone: withdrawn
        assert gate.depth() == 0
        assert future.cancelled()
        assert not gate.release(key)  # idempotent
        assert "t" not in gate.describe()["tenant_pending"]
        await executor.finish(gate)

    asyncio.run(scenario())


def test_cancelled_caller_withdraws_its_waiting_entry():
    """Cancelling a waiting submit removes it from the queue: the freed
    slot runs the next request and never the orphan."""
    async def scenario():
        executor = HeldExecutor(concurrency=1)
        scheduler = JobScheduler(executor, concurrency=1)
        first = asyncio.ensure_future(scheduler.submit(req(0.001)))
        orphan = asyncio.ensure_future(scheduler.submit(req(0.002, n=3)))
        kept = asyncio.ensure_future(scheduler.submit(req(0.003, n=4)))
        await asyncio.sleep(0)
        assert scheduler.fusion.depth() == 2
        orphan.cancel()
        await asyncio.gather(orphan, return_exceptions=True)
        assert scheduler.fusion.depth() == 1
        await executor.release(0)
        assert executor.rate(1) == 0.003
        await executor.release(1)
        await asyncio.gather(first, kept)
        assert scheduler.queue_stats()["inflight_keys"] == 0

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
    # One slot: the first cell runs at once, the rest queue behind it
    # and leave one per take.
    reset_fusion_stats()
    with one_slot_server() as srv:
        client = ServiceClient(*srv.address)
        parts = list(client.submit_sweep(dict(REQ), RATES))
        assert len(parts) == len(RATES)
        assert {p.error_rate for p in parts} == set(RATES)
        assert all(p.ok for p in parts)
        assert all(p.request_id for p in parts)
        for p in parts:
            assert sum(p.response.counts.values()) == REQ["shots"]
        stats = client.stats()
        assert stats["fusion"]["totals"]["batches"] == len(RATES)
        assert stats["metrics"]["counters"]["sweep_requests_total"] == 1
        assert stats["metrics"]["counters"]["sweep_cells_total"] == len(RATES)
    totals = fusion_stats()
    assert totals["executed"] == totals["batch_requests"] == len(RATES)
    assert totals["fused_requests"] == 0 and totals["hit_rate"] == 0.0


def test_sweep_rejects_bad_spec_with_request_id():
    with one_slot_server() as srv:
        client = ServiceClient(*srv.address)
        with pytest.raises(RequestRejected) as err:
            list(client.submit_sweep(dict(REQ), [0.5, 1.5]))
        assert err.value.status == 400
        assert err.value.request_id


def test_sweep_mid_stream_disconnect_cancels_pending(monkeypatch):
    # The first cell holds the only slot, so every other cell waits in
    # the queue; the client reads the stream header then vanishes.  The
    # watchdog must withdraw the orphaned cells (queue drains to zero)
    # and the server must keep serving.
    release = threading.Event()
    real = executor_mod.run_request_tasks

    def held(tasks):
        release.wait(timeout=30)
        return real(tasks)

    monkeypatch.setattr(executor_mod, "run_request_tasks", held)
    with one_slot_server() as srv:
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
            assert _poll(lambda: srv.service.fusion.depth() == len(RATES) - 1)
        # socket closed: the orphans are withdrawn while the slot is held
        assert _poll(lambda: srv.service.fusion.depth() == 0)
        release.set()
        # shared state is healthy: a fresh request round-trips fine.
        client = ServiceClient(*srv.address)
        resp = client.simulate(dict(REQ, error_rate=0.0))
        assert sum(resp.counts.values()) == REQ["shots"]
        stats = client.stats()
        assert stats["metrics"]["counters"]["sweep_disconnects_total"] == 1
        assert stats["metrics"]["counters"]["requests_withdrawn_total"] == (
            len(RATES) - 1
        )


# ---------------------------------------------------------------------------
# Observability plumbing
# ---------------------------------------------------------------------------

def test_fusion_metrics_and_stats_surfaces():
    reset_fusion_stats()
    with one_slot_server() as srv:
        client = ServiceClient(*srv.address)
        list(client.submit_sweep(dict(REQ, tenant="team-a"), RATES))
        text = client.metrics_text()
        assert "repro_fusion_hit_rate" in text
        assert "repro_fusion_batch_occupancy" in text
        assert "repro_queue_slots_in_use" in text
        assert 'repro_fusion_tenant_served_cost{tenant="team-a"}' in text
        assert "repro_latency_queue_wait_seconds_bucket" in text
        stats = client.stats()
        fusion = stats["fusion"]
        assert {"enabled", "window_ms", "min_batch", "max_batch"}.isdisjoint(
            fusion
        )
        assert fusion["slots_in_use"] == 0 and fusion["concurrency"] == 1
        assert fusion["tenant_pending"] == {}
        assert fusion["totals"]["admitted"] == len(RATES)
        assert "team-a" in fusion["totals"]["tenants"]
        latency = stats["metrics"]["latency"]["queue_wait"]
        assert latency["count"] == len(RATES)
        assert latency["p99_seconds"] >= latency["p50_seconds"]
    # the CLI mirror sees the same process-wide counters
    from repro.service.stats import cache_stats_snapshot, render_cache_stats

    snapshot = cache_stats_snapshot()
    assert snapshot["fusion"]["admitted"] >= len(RATES)
    assert "fusion" in render_cache_stats(snapshot)
