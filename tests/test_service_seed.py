"""Seed-plumbing audit: the service determinism contract, end to end.

A request-supplied seed must produce bit-identical
:class:`~repro.sim.result.Counts` across

* repeat executions of the same request (cache cleared in between),
* the thread-tier and process-tier executors,
* the retry ladder (a failed first attempt replays identically), and
* the coalescing path (N attached clients share one payload).

Exact engines (statevector vs density) agree only statistically — their
distributions differ at machine epsilon, so the multinomial draws can
diverge.  The service therefore bakes ``method`` into the content key:
a request always replays on the same resolved engine.  This file pins
all of the above.
"""

import threading

import numpy as np
import pytest

import repro.service.executor as executor_mod
from repro.runtime.supervisor import RetryPolicy
from repro.service import (
    ArithmeticService,
    ResultCache,
    ServerThread,
    ServiceClient,
    SimulationExecutor,
)
from repro.service.executor import _execute_payload
from repro.service.model import SimRequest

NOISY = dict(
    operation="add", n=2, m=3, x=[1], y=[2, 5],
    shots=128, seed=42, error_axis="2q", error_rate=0.003,
    trajectories=12, method="trajectory",
)
IDEAL = dict(
    operation="mul", n=2, m=2, x=[2, 3], y=[1],
    shots=128, seed=9, error_rate=0.0,
)


def _result_fields(payload):
    """The result payload minus wall-clock bookkeeping."""
    return {k: v for k, v in payload.items() if k != "timings_ms"}


@pytest.mark.parametrize("payload", [NOISY, IDEAL], ids=["noisy", "ideal"])
def test_repeat_execution_is_bit_identical(payload):
    first = _execute_payload(dict(payload))
    second = _execute_payload(dict(payload))
    assert _result_fields(first) == _result_fields(second)
    assert sum(first["counts"].values()) == payload["shots"]


def test_different_seeds_differ():
    a = _execute_payload(dict(NOISY))
    b = _execute_payload(dict(NOISY, seed=43))
    assert a["counts"] != b["counts"]


def test_seed_stream_is_request_scoped():
    """Same user seed on different requests draws independent streams."""
    a = SimRequest.from_dict(dict(NOISY))
    b = SimRequest.from_dict(dict(NOISY, shots=256))
    assert a.rng_seed() != b.rng_seed()
    assert a.rng_seed() == SimRequest.from_dict(dict(NOISY)).rng_seed()


def test_simulate_counts_seed_kwarg_matches_rng():
    """The engines' ``seed=`` shorthand is the documented rng path."""
    from repro.experiments.runner import (
        build_arithmetic_circuit,
        noise_model_for,
    )
    from repro.sim.engines import simulate_counts

    circuit = build_arithmetic_circuit("add", 2, 2, None)
    noise = noise_model_for("2q", 0.002)
    a = simulate_counts(
        circuit, noise, shots=64, method="trajectory", trajectories=8, seed=5
    )
    b = simulate_counts(
        circuit, noise, shots=64, method="trajectory", trajectories=8,
        rng=np.random.default_rng(5),
    )
    assert a == b


def test_thread_and_process_tiers_agree():
    """The same request yields identical payloads on both worker tiers."""
    via_thread = _execute_payload(dict(NOISY))

    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=1) as pool:
        via_process = pool.submit(_execute_payload, dict(NOISY)).result(
            timeout=120
        )
    assert _result_fields(via_thread) == _result_fields(via_process)


def test_retry_replays_bit_identically(monkeypatch):
    """A request that fails once returns the same counts as one that
    never failed — the RNG restarts from the request seed per attempt."""
    baseline = _execute_payload(dict(NOISY))

    real = executor_mod.run_request_tasks
    state = {"calls": 0}

    def flaky(*args, **kwargs):
        state["calls"] += 1
        if state["calls"] == 1:
            raise RuntimeError("injected transient fault")
        return real(*args, **kwargs)

    monkeypatch.setattr(executor_mod, "run_request_tasks", flaky)
    service = ArithmeticService(
        executor=SimulationExecutor(
            workers=0,
            concurrency=1,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        ),
        cache=ResultCache(ttl=0),
    )
    with ServerThread(service) as srv:
        client = ServiceClient(*srv.address)
        resp = client.simulate(dict(NOISY))
    assert state["calls"] == 2
    assert resp.counts == baseline["counts"]
    assert resp.program_fingerprint == baseline["program_fingerprint"]


def test_coalesced_clients_get_identical_payloads(monkeypatch):
    """Regression for the coalescing path: both attached clients receive
    the single simulation's exact payload."""
    release = threading.Event()
    calls = []
    real = executor_mod.run_request_tasks

    def gated(*args, **kwargs):
        calls.append(1)
        release.wait(timeout=30)
        return real(*args, **kwargs)

    monkeypatch.setattr(executor_mod, "run_request_tasks", gated)
    with ServerThread(ArithmeticService(cache=ResultCache(ttl=0))) as srv:
        client = ServiceClient(*srv.address)
        results = [None, None]

        def worker(i):
            results[i] = client.simulate(dict(NOISY))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in (0, 1)
        ]
        for t in threads:
            t.start()
        metrics = srv.service.metrics
        deadline_ok = False
        for _ in range(1000):
            if (
                len(calls) == 1
                and metrics.counter_total("requests_coalesced_total") == 1
            ):
                deadline_ok = True
                break
            threading.Event().wait(0.01)
        assert deadline_ok, "second client did not coalesce"
        release.set()
        for t in threads:
            t.join(timeout=30)
    assert len(calls) == 1
    a, b = results
    assert a.counts == b.counts
    assert a.seed == b.seed == 42
    assert {a.cache, b.cache} == {"miss", "coalesced"}
    # The full result payload (everything but cache/timing bookkeeping)
    # is byte-for-byte shared.
    da, db = a.to_dict(), b.to_dict()
    for transient in ("cache", "timings_ms"):
        da.pop(transient), db.pop(transient)
    assert da == db
