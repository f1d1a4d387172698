"""Runtime determinism sanitizer: hashing, recording, and tier parity.

The parity tests are the contract the sanitizer exists to check: the
same workload through interchangeable execution paths (thread-tier vs
process-tier service executors) must leave bit-identical portable
traces.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.runtime import sanitizer


@pytest.fixture(autouse=True)
def sanitizer_off_guard():
    """Every test leaves the sanitizer disabled and the trace empty."""
    yield
    sanitizer.force(None)
    sanitizer.clear_trace()


@pytest.fixture
def on():
    sanitizer.force(True)
    sanitizer.clear_trace()
    return None


class TestPayloadDigest:
    def test_deterministic(self):
        payload = {"a": 1, "b": [1.5, "x"], "c": None}
        assert sanitizer.payload_digest(payload) == (
            sanitizer.payload_digest(payload)
        )

    def test_dict_key_order_independent(self):
        assert sanitizer.payload_digest({"a": 1, "b": 2}) == (
            sanitizer.payload_digest({"b": 2, "a": 1})
        )

    def test_value_sensitive(self):
        assert sanitizer.payload_digest({"a": 1}) != (
            sanitizer.payload_digest({"a": 2})
        )

    def test_float_ulp_sensitive(self):
        x = 0.1
        assert sanitizer.payload_digest(x) != (
            sanitizer.payload_digest(np.nextafter(x, 1.0))
        )

    def test_ndarray_by_contents(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert sanitizer.payload_digest(a) == (
            sanitizer.payload_digest(a.copy())
        )
        assert sanitizer.payload_digest(a) != (
            sanitizer.payload_digest(a.T)
        )

    def test_type_distinguished(self):
        assert sanitizer.payload_digest(1) != sanitizer.payload_digest(True)
        assert sanitizer.payload_digest("1") != sanitizer.payload_digest(1)


class TestRecording:
    def test_disabled_by_default_record_is_noop(self):
        sanitizer.record("counts", {"x": 1})
        assert sanitizer.trace_events() == []

    def test_record_and_scope(self, on):
        with sanitizer.trace_scope("cell(0.001, 3)"):
            sanitizer.record("counts", {"x": 1})
        (event,) = sanitizer.trace_events()
        assert event[0] == "counts"
        assert event[1] == "cell(0.001, 3)"

    def test_explicit_key_beats_scope(self, on):
        with sanitizer.trace_scope("outer"):
            sanitizer.record("task", {"x": 1}, key="inner")
        (event,) = sanitizer.trace_events()
        assert event[1] == "inner"

    def test_capture_diverts_from_global_trace(self, on):
        with sanitizer.capture() as events:
            sanitizer.record("counts", {"x": 1}, key="k")
        assert len(events) == 1
        assert sanitizer.trace_events() == []
        # JSON round-trip shape (lists, not tuples) merges fine.
        sanitizer.merge_events([list(e) for e in events])
        assert sanitizer.trace_events() == events


class TestComparison:
    def test_order_independence_across_groups(self, on):
        a = [("counts", "k1", "d1"), ("counts", "k2", "d2")]
        b = list(reversed(a))
        assert sanitizer.compare_traces(a, b) == []
        assert sanitizer.trace_digest(a) == sanitizer.trace_digest(b)

    def test_count_sensitive_within_group(self):
        a = [("counts", "k", "d"), ("counts", "k", "d")]
        b = [("counts", "k", "d")]
        problems = sanitizer.compare_traces(a, b)
        assert len(problems) == 1
        assert "digests differ" in problems[0]

    def test_missing_key_reported(self):
        problems = sanitizer.compare_traces(
            [("counts", "k", "d")], []
        )
        assert problems == ["counts[k]: only in first trace"]

    def test_chunk_stage_excluded_by_default(self):
        a = [("counts", "k", "d"), ("chunk", "g", "x")]
        b = [("counts", "k", "d"), ("chunk", "g", "y")]
        assert sanitizer.compare_traces(a, b) == []
        assert sanitizer.compare_traces(
            a, b, stages=("counts", "chunk")
        ) != []


def _executor_events(workers):
    from repro.service.executor import SimulationExecutor
    from repro.service.model import SimRequest

    requests = [
        SimRequest.from_dict(dict(
            operation="add", n=2, m=2, x=[1], y=[y], shots=64,
            seed=20220131, error_axis="2q", error_rate=rate,
            trajectories=8,
        ))
        for y, rate in ((1, 0.0), (2, 0.002))
    ]

    async def drive():
        executor = SimulationExecutor(workers=workers)
        try:
            return [await executor.run(r) for r in requests]
        finally:
            executor.shutdown()

    sanitizer.clear_trace()
    results = asyncio.run(drive())
    return sanitizer.trace_events(), results, requests


def test_executor_thread_process_parity(on):
    thread_events, thread_results, requests = _executor_events(0)
    process_events, process_results, _ = _executor_events(2)
    assert sanitizer.compare_traces(thread_events, process_events) == []
    assert [r["counts"] for r in thread_results] == (
        [r["counts"] for r in process_results]
    )
    assert {e[0] for e in thread_events} >= {"counts"}
    # Worker events arrive keyed by the request content key.
    assert {e[1] for e in thread_events} == {
        r.content_key() for r in requests
    }
