#!/usr/bin/env python
"""Chaos smoke check for the fault-tolerant sweep runtime.

Runs one tiny sweep fault-free, then re-runs it under injected worker
crashes, hangs and transient exceptions — with a checkpoint journal —
and asserts every recovery path lands on the bit-for-bit identical
result.  A final scenario injects a permanent failure and checks the
sweep still completes with a structured ``FailedCell`` record.

Exit status 0 means all scenarios passed; 1 means at least one failed.

Usage: python scripts/chaos_check.py [--workers N] [--verbose]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from repro.experiments import SweepConfig, run_sweep
from repro.runtime import FaultPlan, FaultSpec, RetryPolicy


def lint_preflight(config: SweepConfig) -> bool:
    """Lint the transpiled circuits this sweep will run; False on errors."""
    from repro.core.adders import qfa_circuit
    from repro.lint import LintContext, lint_circuit
    from repro.transpile.basis import IBM_BASIS
    from repro.transpile.decompose import decompose_to_basis

    context = LintContext(basis=IBM_BASIS)
    ok = True
    for depth in config.depths:
        circuit = qfa_circuit(config.n, config.m, depth=depth)
        report = lint_circuit(decompose_to_basis(circuit, IBM_BASIS), context)
        for diag in report:
            print(f"  lint: {diag.render()}")
        ok = ok and report.ok()
    return ok


def _config() -> SweepConfig:
    return SweepConfig(
        operation="add", n=3, m=3, orders=(1, 1), error_axis="2q",
        error_rates=(0.0, 0.05), depths=(2, None), instances=2,
        shots=64, trajectories=4, seed=1234,
    )


def _retry(**over) -> RetryPolicy:
    base = dict(max_attempts=3, backoff_base=0.02)
    base.update(over)
    return RetryPolicy(**base)


def _assert_identical(reference, candidate, label: str) -> None:
    if candidate.failures:
        raise AssertionError(
            f"{label}: unexpected failures {candidate.failures}"
        )
    for key, ref_point in reference.points.items():
        got = candidate.points[key]
        if got.outcomes != ref_point.outcomes:
            raise AssertionError(
                f"{label}: cell {key} diverged from the fault-free run"
            )


def scenario_transient_raise(reference, workers: int) -> None:
    plan = FaultPlan({(0.05, 2): FaultSpec("raise", attempts=1)})
    res = run_sweep(
        _config(), workers=workers, retry=_retry(), fault_plan=plan
    )
    _assert_identical(reference, res, "transient raise")


def scenario_worker_crash(reference, workers: int) -> None:
    plan = FaultPlan({(0.05, None): FaultSpec("crash", attempts=1)})
    res = run_sweep(
        _config(), workers=max(workers, 2), retry=_retry(), fault_plan=plan
    )
    _assert_identical(reference, res, "worker crash")


def scenario_hang_timeout(reference, workers: int) -> None:
    plan = FaultPlan({(0.0, 2): FaultSpec("hang", attempts=1, hang_seconds=60)})
    res = run_sweep(
        _config(),
        workers=max(workers, 2),
        retry=_retry(timeout=2.0),
        fault_plan=plan,
    )
    _assert_identical(reference, res, "hang + timeout")


def scenario_checkpoint_resume(reference, workers: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "panel.jsonl"
        plan = FaultPlan({(0.05, None): FaultSpec("raise", attempts=-1)})
        partial = run_sweep(
            _config(),
            workers=workers,
            checkpoint=journal,
            retry=_retry(max_attempts=2),
            fault_plan=plan,
        )
        if not partial.failures:
            raise AssertionError("checkpoint resume: fault was not injected")
        messages = []
        resumed = run_sweep(
            _config(),
            workers=workers,
            checkpoint=journal,
            progress=messages.append,
        )
        if not any("restored from checkpoint" in m for m in messages):
            raise AssertionError(
                "checkpoint resume: no cells restored from the journal"
            )
        _assert_identical(reference, resumed, "checkpoint resume")


def scenario_permanent_failure(reference, workers: int) -> None:
    plan = FaultPlan({(0.05, 2): FaultSpec("raise", attempts=-1)})
    res = run_sweep(
        _config(),
        workers=workers,
        retry=_retry(max_attempts=2),
        fault_plan=plan,
    )
    if res.complete or len(res.failures) != 1:
        raise AssertionError(
            "permanent failure: expected exactly one FailedCell, got "
            f"{res.failures}"
        )
    failure = res.failures[0]
    if failure.error_type != "InjectedFault" or failure.attempts != 2:
        raise AssertionError(f"permanent failure: bad record {failure}")
    for key, point in res.points.items():
        if point.outcomes != reference.points[key].outcomes:
            raise AssertionError(
                f"permanent failure: surviving cell {key} diverged"
            )


SCENARIOS = (
    ("transient raise retried to success", scenario_transient_raise),
    ("worker crash recovered via pool respawn", scenario_worker_crash),
    ("hang detected by timeout and retried", scenario_hang_timeout),
    ("interrupted run resumed from checkpoint", scenario_checkpoint_resume),
    ("permanent failure yields partial result", scenario_permanent_failure),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for the chaos runs (default 2)")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-scenario timing")
    args = parser.parse_args(argv)
    scenarios = SCENARIOS

    print("chaos_check: lint pre-flight over the sweep circuits ...")
    if not lint_preflight(_config()):
        print("chaos_check: lint pre-flight FAILED")
        return 1

    print("chaos_check: establishing fault-free reference ...")
    reference = run_sweep(_config(), workers=1)

    failed = 0
    for label, scenario in scenarios:
        start = time.perf_counter()
        try:
            scenario(reference, args.workers)
        except AssertionError as exc:
            failed += 1
            print(f"  FAIL  {label}: {exc}")
            continue
        elapsed = time.perf_counter() - start
        suffix = f"  ({elapsed:.1f}s)" if args.verbose else ""
        print(f"  ok    {label}{suffix}")

    if failed:
        print(f"chaos_check: {failed}/{len(scenarios)} scenario(s) FAILED")
        return 1
    print(f"chaos_check: all {len(scenarios)} scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
