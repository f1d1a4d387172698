"""The service's process tier: parity with the thread tier, and recovery.

* ``/stats`` and ``/metrics`` read the same on a fresh service whether
  requests run on threads (``workers=0``) or in a worker process
  (``workers=1``): process workers send their counter deltas home with
  each result and the parent merges them;
* responses are byte-identical across tiers (apart from how long they
  took and how they were served);
* a worker that dies on attempt 1 is replaced, attempt 2 answers with
  the same counts, and nothing the dead attempt counted is merged; one
  death replaces the pool once, however many requests it broke.
"""

import json
import threading
import time

import pytest

from repro.experiments.runner import build_arithmetic_circuit, build_compiled_program
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.supervisor import RetryPolicy
from repro.service import (
    ArithmeticService,
    ResultCache,
    ServerThread,
    ServiceClient,
    ServiceError,
    SimRequest,
    SimulationExecutor,
)
from repro.sim.batch import reset_scheduler_stats
from repro.sim.program import reset_compile_caches
from repro.sim.ptm import reset_ptm_cache

#: A noisy QFA 6+6 cell on the trajectory scheduler.
NOISY = dict(
    operation="add", n=6, m=6, x=[5], y=[9], shots=2048, seed=3,
    error_axis="2q", error_rate=0.01, trajectories=16, method="trajectory",
)

#: One request per execution route: scheduler, exact PTM, density,
#: statevector (ideal) and 1q-axis trajectory.
MIXED = [
    dict(NOISY, n=2, m=2, x=[1], y=[2], shots=256, trajectories=8),
    dict(NOISY, n=3, m=3, x=[3], y=[4], shots=256, method="auto"),
    dict(NOISY, n=2, m=2, x=[1], y=[3], shots=128, method="density"),
    dict(NOISY, n=3, m=3, x=[6], y=[1], shots=128, error_rate=0.0),
    dict(NOISY, n=3, m=2, x=[2], y=[1], shots=128, error_axis="1q",
         error_rate=0.004, trajectories=8),
]


def _fresh_caches():
    """Empty every cache and counter a request fills, so each tier
    starts where a new server would (forked workers inherit them)."""
    reset_compile_caches()
    reset_scheduler_stats()
    reset_ptm_cache()
    build_compiled_program.cache_clear()
    build_arithmetic_circuit.cache_clear()


def _service(workers, **executor_kwargs):
    _fresh_caches()
    executor = SimulationExecutor(
        workers=workers, concurrency=1, **executor_kwargs
    )
    return ServerThread(
        ArithmeticService(
            executor=executor, cache=ResultCache(ttl=0), concurrency=1
        )
    )


def _observed(workers):
    """Response, ``/stats`` and ``/metrics`` after one noisy request."""
    with _service(workers) as srv:
        client = ServiceClient(*srv.address, timeout=120)
        response = client.simulate(dict(NOISY))
        return response, client.stats(), client.metrics_text()


def _poll(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def _doc(response):
    doc = json.loads(json.dumps(response.to_dict()))
    doc.pop("timings_ms")
    doc.pop("cache")
    return doc


def test_stats_agree_across_tiers():
    thread_resp, thread, thread_text = _observed(0)
    process_resp, process, process_text = _observed(1)
    assert (thread["executor"]["mode"], process["executor"]["mode"]) == (
        "thread", "process",
    )
    assert _doc(thread_resp) == _doc(process_resp)
    for stats in (thread, process):
        kernels = stats["kernel_cache"]
        assert kernels["hits"] + kernels["misses"] > 0
        assert stats["compile_cache"]["lowerings"] == 1
        assert stats["metrics"]["gauges"]["trajectories_spent_total"] == 16
        assert "repro_trajectories_spent_total 16" in (
            thread_text if stats is thread else process_text
        )
    for section in ("kernel_cache", "compile_cache", "ptm_cache"):
        assert process[section] == thread[section], section
    gauges = ("trajectories_spent_total", "trajectory_dedup_ratio",
              "trajectory_batch_occupancy")
    assert {g: process["metrics"]["gauges"][g] for g in gauges} == {
        g: thread["metrics"]["gauges"][g] for g in gauges
    }


def test_mixed_requests_byte_identical_across_tiers():
    docs = {}
    for workers in (0, 1):
        with _service(workers) as srv:
            client = ServiceClient(*srv.address, timeout=120)
            docs[workers] = [_doc(client.simulate(dict(r))) for r in MIXED]
    assert docs[1] == docs[0]
    assert {d["method"] for d in docs[0]} >= {
        "trajectory", "ptm", "density", "statevector",
    }


@pytest.mark.faults
def test_crashed_worker_respawns_and_its_attempt_is_not_counted():
    """A worker that has reported once dies on the noisy request's
    attempt 1, after running all of it (lowering, kernels, 16
    trajectories).  Only attempt 2, on the new worker, is counted, and
    the dead worker's cache sizes leave ``/stats`` with it."""
    clean_resp, clean, _ = _observed(1)
    key = SimRequest.from_dict(dict(NOISY)).content_key()
    plan = FaultPlan({key: FaultSpec("crash", attempts=1)})
    with _service(
        1,
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        fault_plan=plan,
    ) as srv:
        client = ServiceClient(*srv.address, timeout=120)
        client.simulate(dict(MIXED[0]))  # 8 trajectories, one lowering
        response = client.simulate(dict(NOISY))
        stats = client.stats()
        reporting = len(srv.service.executor._worker_gauges)
    assert stats["executor"]["pool_respawns"] == 1
    assert stats["executor"]["mode"] == "process"
    assert response.counts == clean_resp.counts
    assert _doc(response) == _doc(clean_resp)
    assert stats["metrics"]["gauges"]["trajectories_spent_total"] == 8 + 16
    assert stats["compile_cache"]["lowerings"] == 2
    assert reporting == 1
    for name in ("entries", "total_bytes"):
        assert stats["kernel_cache"][name] == clean["kernel_cache"][name]


@pytest.mark.faults
def test_crash_fault_softens_to_a_retry_on_threads():
    """On the thread tier a crash fault raises instead (it must never
    kill the server): with one attempt the request fails, with two the
    retry answers the same counts."""
    key = SimRequest.from_dict(dict(MIXED[0])).content_key()
    plan = FaultPlan({key: FaultSpec("crash", attempts=1)})
    with _service(0) as srv:
        baseline = ServiceClient(*srv.address).simulate(dict(MIXED[0]))
    for attempts in (1, 2):
        with _service(
            0,
            retry=RetryPolicy(max_attempts=attempts, backoff_base=0.0),
            fault_plan=plan,
        ) as srv:
            client = ServiceClient(*srv.address)
            if attempts == 1:
                with pytest.raises(ServiceError) as failed:
                    client.simulate(dict(MIXED[0]))
                assert failed.value.status == 500
                assert "InjectedFault" in failed.value.body["detail"]
            else:
                assert client.simulate(dict(MIXED[0])).counts == baseline.counts
            assert srv.service.executor.pool_respawns == 0


@pytest.mark.faults
def test_one_crash_respawns_once_for_every_request_it_broke():
    """A worker dies while the other worker still runs a longer request:
    both requests see the broken pool, the pool is replaced once, and
    both retry to their clean counts."""
    short = dict(MIXED[0])
    with _service(0) as srv:
        client = ServiceClient(*srv.address, timeout=120)
        expected = [client.simulate(dict(NOISY)), client.simulate(short)]
    key = SimRequest.from_dict(short).content_key()
    _fresh_caches()
    executor = SimulationExecutor(
        workers=2,
        concurrency=2,
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        fault_plan=FaultPlan({key: FaultSpec("crash", attempts=1)}),
    )
    service = ArithmeticService(
        executor=executor, cache=ResultCache(ttl=0), concurrency=2
    )
    results = {}
    with ServerThread(service) as srv:
        client = ServiceClient(*srv.address, timeout=120)

        def send(name, doc):
            results[name] = client.simulate(doc)

        long_request = threading.Thread(target=send, args=("long", dict(NOISY)))
        long_request.start()
        assert _poll(lambda: srv.service.fusion.slots_in_use == 1)
        send("short", short)
        long_request.join(timeout=120)
        assert not long_request.is_alive()
        respawns = executor.pool_respawns
    assert respawns == 1
    assert [results["long"].counts, results["short"].counts] == [
        r.counts for r in expected
    ]
