"""Unit tests for the fault-tolerant supervisor (no quantum workload)."""

import os

import pytest

from repro.runtime import (
    CellTimeoutError,
    InjectedFault,
    NumericalHealthError,
    RetryPolicy,
    Supervisor,
    classify_retryable,
    run_supervised,
)

# ----------------------------------------------------------------------
# Module-level workers (must pickle into pool processes).
# ----------------------------------------------------------------------


def _double(payload, attempt):
    return payload * 2


def _flaky_until_third(payload, attempt):
    if attempt < 3:
        raise InjectedFault(f"attempt {attempt} fails")
    return payload + attempt


def _always_value_error(payload, attempt):
    raise ValueError("deterministic bug")


def _always_transient(payload, attempt):
    raise InjectedFault("never succeeds")


def _crash_in_pool_only(payload, attempt):
    main_pid = payload
    if os.getpid() != main_pid:
        os._exit(86)
    return "ran-serially"


def _crash_first_attempt(payload, attempt):
    if attempt == 1:
        os._exit(86)
    return payload * 10


class TestClassification:
    def test_health_error_not_retryable(self):
        assert classify_retryable(NumericalHealthError("nan")) is False

    def test_value_error_not_retryable(self):
        assert classify_retryable(ValueError("bad arg")) is False

    def test_timeout_retryable(self):
        assert classify_retryable(CellTimeoutError("hung")) is True

    def test_unknown_defaults_retryable(self):
        class Weird(Exception):
            pass

        assert classify_retryable(Weird()) is True

    def test_oserror_retryable_despite_deterministic_set(self):
        assert classify_retryable(OSError("io hiccup")) is True


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(backoff_base=1.0, backoff_factor=2.0, backoff_max=3.0)
        assert p.backoff(1) == 1.0
        assert p.backoff(2) == 2.0
        assert p.backoff(3) == 3.0  # capped, would be 4.0

    def test_zero_base_disables_backoff(self):
        assert RetryPolicy(backoff_base=0.0).backoff(5) == 0.0


class TestSerialSupervisor:
    def test_all_cells_complete(self):
        results, failures = run_supervised(
            _double, [(i, i) for i in range(5)], workers=1
        )
        assert failures == []
        assert results == {i: 2 * i for i in range(5)}

    def test_transient_failure_retries_to_success(self):
        results, failures = run_supervised(
            _flaky_until_third,
            [("a", 10)],
            workers=1,
            retry=RetryPolicy(max_attempts=3, backoff_base=0),
        )
        assert failures == []
        assert results == {"a": 13}

    def test_non_retryable_fails_on_first_attempt(self):
        results, failures = run_supervised(
            _always_value_error,
            [("a", 1)],
            workers=1,
            retry=RetryPolicy(max_attempts=5, backoff_base=0),
        )
        assert results == {}
        (f,) = failures
        assert f.error_type == "ValueError"
        assert f.attempts == 1
        assert not f.retryable
        assert "deterministic bug" in f.message
        assert "ValueError" in f.traceback

    def test_retries_exhaust_into_failure_record(self):
        results, failures = run_supervised(
            _always_transient,
            [("a", 1), ("b", 2)],
            workers=1,
            retry=RetryPolicy(max_attempts=3, backoff_base=0),
        )
        assert results == {}
        assert {f.key for f in failures} == {"a", "b"}
        assert all(f.attempts == 3 for f in failures)
        assert all(f.retryable for f in failures)

    def test_backoff_delays_are_slept(self):
        slept = []
        sup = Supervisor(
            _always_transient,
            workers=1,
            retry=RetryPolicy(
                max_attempts=3, backoff_base=0.5, backoff_factor=2.0
            ),
            sleep=slept.append,
        )
        sup.run([("a", 1)])
        # Two retries: delays ~0.5 then ~1.0 (clock runs during the
        # worker call, so allow small slack below the nominal value).
        assert len(slept) == 2
        assert 0.0 < slept[0] <= 0.5
        assert 0.5 < slept[1] <= 1.0

    def test_on_result_reports_attempt_count(self):
        seen = []
        sup = Supervisor(
            _flaky_until_third,
            workers=1,
            retry=RetryPolicy(max_attempts=3, backoff_base=0),
            on_result=lambda key, value, attempts: seen.append(
                (key, value, attempts)
            ),
        )
        results, failures = sup.run([("a", 0)])
        assert seen == [("a", 3, 3)]

    def test_single_cell_never_builds_a_pool(self):
        def explode():
            raise AssertionError("pool should not be constructed")

        sup = Supervisor(_double, workers=8, pool_factory=explode)
        results, failures = sup.run([("only", 21)])
        assert results == {"only": 42}
        assert failures == []


@pytest.mark.faults
class TestPooledSupervisor:
    def test_pool_matches_serial(self):
        cells = [(i, i) for i in range(6)]
        serial, _ = run_supervised(_double, cells, workers=1)
        pooled, failures = run_supervised(_double, cells, workers=2)
        assert failures == []
        assert pooled == serial

    def test_worker_crash_respawns_pool_and_recovers(self):
        cells = [(i, i) for i in range(4)]
        sup = Supervisor(
            _crash_first_attempt,
            workers=2,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.02),
        )
        results, failures = sup.run(cells)
        assert failures == []
        assert results == {i: 10 * i for i in range(4)}
        assert sup.pool_respawns >= 1

    def test_respawn_budget_degrades_to_serial(self):
        cells = [(i, os.getpid()) for i in range(3)]
        sup = Supervisor(
            _crash_in_pool_only,
            workers=2,
            retry=RetryPolicy(
                max_attempts=4, backoff_base=0.02, max_pool_respawns=0
            ),
        )
        results, failures = sup.run(cells)
        assert failures == []
        assert set(results.values()) == {"ran-serially"}
        assert sup.degraded_serial
