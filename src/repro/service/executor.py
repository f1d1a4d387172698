"""The service's worker tier: compiled-program execution with retries.

One request executes exactly the batch harness's hot path —
:func:`repro.experiments.runner.build_compiled_program` (two-level
compile cache + kernel cache underneath) feeding
:func:`repro.sim.engines.simulate_counts` — wrapped in the runtime
supervisor's recovery semantics: bounded attempts with exponential
backoff, a per-attempt wall-clock timeout, and
``BrokenProcessPool`` respawn with degradation to in-process threads
once the respawn budget is exhausted (mirroring
:class:`repro.runtime.supervisor.Supervisor`).

Determinism: the RNG is rebuilt from the request's seed sequence inside
every attempt, so a retried request replays bit-identically — the
regression tests in ``tests/test_service_seed.py`` pin this.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor as _FuturesExecutor
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from ..experiments.runner import build_compiled_program, noise_model_for
from ..metrics.success import evaluate_instance
from ..runtime import sanitizer
from ..runtime.blas import process_pool
from ..runtime.envutil import env_flag
from ..runtime.supervisor import RetryPolicy
from ..sim.batch import TrajectoryTask, run_request_tasks
from ..sim.engines import DENSITY_MAX_QUBITS, simulate_counts
from .model import RequestValidationError, SimRequest

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from ..lint import LintReport

__all__ = [
    "CircuitRejected",
    "ExecutionFailed",
    "SimulationExecutor",
    "fusion_eligible",
    "lint_gate",
]


class CircuitRejected(ValueError):
    """The request's circuit failed static analysis (lint errors)."""

    def __init__(self, messages: List[str]) -> None:
        super().__init__("; ".join(messages))
        self.messages = messages


class ExecutionFailed(RuntimeError):
    """Every attempt of one request failed; carries the last error."""

    def __init__(self, attempts: int, last_error: str) -> None:
        super().__init__(
            f"simulation failed after {attempts} attempt(s): {last_error}"
        )
        self.attempts = attempts
        self.last_error = last_error


@lru_cache(maxsize=256)
def _lint_report(
    operation: str, n: int, m: int, depth: Optional[int]
) -> "LintReport":
    """Lint verdict for one circuit shape (operand-independent, cached)."""
    from ..experiments.runner import build_arithmetic_circuit
    from ..lint import LintContext, lint_circuit
    from ..transpile.basis import IBM_BASIS

    circuit = build_arithmetic_circuit(operation, n, m, depth)
    return lint_circuit(circuit, LintContext(basis=IBM_BASIS))


def lint_gate(request: SimRequest) -> None:
    """Admission check: reject requests whose circuit lints with errors.

    The lint runs on the transpiled circuit of the request's *shape*
    (operation, widths, depth) — operands only pick the initial state,
    so the verdict is cached per shape.  Warnings pass; error-severity
    diagnostics reject the request before it ever reaches the queue.
    """
    try:
        report = _lint_report(request.operation, request.n, request.m, request.depth)
    except ValueError as exc:  # unbuildable shape (e.g. bad depth)
        raise CircuitRejected([str(exc)]) from exc
    from ..lint import Severity

    errors = [
        f"{d.rule_id}: {d.message}"
        for d in report.diagnostics
        if d.severity >= Severity.ERROR
    ]
    if errors:
        raise CircuitRejected(errors)


def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one request end to end (top level: picklable for pools).

    Returns the result-determining slice of the response as plain
    JSON-able values; the server layers cache/queue bookkeeping on top.
    """
    request = SimRequest.from_dict(payload)
    if sanitizer.enabled():
        with sanitizer.capture() as events:
            with sanitizer.trace_scope(request.content_key()):
                result = _execute_payload_inner(request)
        result["sanitizer_events"] = [list(e) for e in events]
        return result
    return _execute_payload_inner(request)


def _execute_payload_inner(request: SimRequest) -> Dict[str, Any]:
    t0 = time.perf_counter()
    method = request.method
    if method == "cut":
        # Fragment evaluation lowers each fragment variant through
        # compile_circuit itself; the full-width compiled program is
        # never built (that is the point — its kernels would be as wide
        # as the statevector we are avoiding).
        from ..experiments.runner import build_arithmetic_circuit

        target: Any = build_arithmetic_circuit(
            request.operation, request.n, request.m, request.depth
        )
        fingerprint = ""
    else:
        program = build_compiled_program(
            request.operation,
            request.n,
            request.m,
            request.depth,
            request.error_axis,
            request.error_rate,
            request.convention,
        )
        target = program
        fingerprint = program.fingerprint
    noise = noise_model_for(
        request.error_axis, request.error_rate, request.convention
    )
    t_compile = time.perf_counter()
    instance = request.instance()
    if noise.is_ideal and method in ("auto", "trajectory"):
        # Mirror the batch runner: an ideal point is exact — never
        # spend trajectories on it (an explicit density/perturbative
        # request is honoured).
        method = "statevector"
    # Fresh stream per attempt: retries and coalesced duplicates replay
    # bit-identically from (seed, content_key).
    rng = np.random.default_rng(request.rng_seed())
    counts = simulate_counts(
        target,
        noise,
        shots=request.shots,
        method=method,
        trajectories=request.trajectories,
        rng=rng,
        initial_state=instance.initial_statevector(),
        # Opt-in error-configuration dedup (exact, but a different —
        # equally valid — random stream than the default path, so it is
        # a deployment-wide switch rather than a per-request knob:
        # toggling it must not split the result cache's key space).
        dedup=env_flag("REPRO_SERVICE_DEDUP", False),
    )
    t_sim = time.perf_counter()
    outcome = evaluate_instance(counts, instance.correct_outcomes())
    correct = sum(counts.get(o) for o in instance.correct_outcomes())
    return {
        "content_key": request.content_key(),
        "counts": {int(k): int(v) for k, v in counts.items()},
        "num_qubits": counts.num_qubits,
        "shots": request.shots,
        "method": counts.method or method,
        "program_fingerprint": fingerprint,
        "seed": request.seed,
        "success": bool(outcome.success),
        "min_diff": int(outcome.min_diff),
        "success_probability": correct / max(1, counts.shots),
        "timings_ms": {
            "compile": (t_compile - t0) * 1000.0,
            "simulate": (t_sim - t_compile) * 1000.0,
        },
    }


def fusion_eligible(request: SimRequest) -> bool:
    """Whether a request may ride the cross-request fusion tier.

    Cheap, request-shape-only screen used at admission: noisy
    trajectory work (explicit, or what ``method="auto"`` will resolve
    to once the width rules out density simulation).  The batch
    executor re-checks against the *compiled program* (Pauli-only
    sites, resolved method) and falls back to the per-request path for
    any survivor that turns out not to fit — eligibility here may
    over-approximate, never under-deliver.
    """
    if request.error_rate <= 0.0:
        return False
    if request.method == "trajectory":
        return True
    return (
        request.method == "auto"
        and request.total_qubits > DENSITY_MAX_QUBITS
    )


def _fused_task_for(request: SimRequest) -> Optional[TrajectoryTask]:
    """Build the request's scheduler task, or ``None`` if not fusable.

    ``None`` means the compiled program refused the trajectory
    scheduler (non-Pauli noise, no noise sites, or ``auto`` resolving
    to an exact method) — the caller then runs the request through the
    ordinary per-request path inside the same batch.
    """
    noise = noise_model_for(
        request.error_axis, request.error_rate, request.convention
    )
    if noise.is_ideal:
        return None
    program = build_compiled_program(
        request.operation,
        request.n,
        request.m,
        request.depth,
        request.error_axis,
        request.error_rate,
        request.convention,
    )
    if not program.pauli_only or program.num_noise_sites == 0:
        return None
    if request.method == "auto" and program.num_qubits <= DENSITY_MAX_QUBITS:
        return None
    return TrajectoryTask(
        key=request.content_key(),
        program=program,
        shots=request.shots,
        trajectories=request.trajectories,
        # Fresh stream from (seed, content_key), exactly as the
        # per-request path builds it — fusion must be bit-invisible.
        rng=np.random.default_rng(request.rng_seed()),
        initial_state=request.instance().initial_statevector(),
    )


def _execute_fused_batch(payloads: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Run one micro-batch of requests (top level: picklable for pools).

    All fusable requests share a single
    :func:`repro.sim.batch.run_request_tasks` pass — one chunked state
    buffer per fusion group, kernel caches and error-configuration
    dedup shared across tenants — while requests that compile out of
    the trajectory scheduler fall back to the per-request path inside
    the same call.  Returns ``{"results": [...]}`` with one
    response-shaped payload per request in input order; batch-level
    sanitizer events ride home under ``"sanitizer_events"``.

    Per-request results are bit-identical to running each request
    alone through the dedup path: every task draws from its own
    ``(seed, content_key)`` stream in a fixed order, so batch
    membership and chunk geometry never leak into results.
    """
    if sanitizer.enabled():
        with sanitizer.capture() as events:
            results = _execute_fused_batch_inner(payloads)
        return {
            "results": results,
            "sanitizer_events": [list(e) for e in events],
        }
    return {"results": _execute_fused_batch_inner(payloads)}


def _execute_fused_batch_inner(
    payloads: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    t0 = time.perf_counter()
    requests = [SimRequest.from_dict(p) for p in payloads]
    results: List[Optional[Dict[str, Any]]] = [None] * len(requests)
    fused: List[Tuple[int, SimRequest, TrajectoryTask]] = []
    for i, request in enumerate(requests):
        task = _fused_task_for(request)
        if task is None:
            with sanitizer.trace_scope(request.content_key()):
                results[i] = _execute_payload_inner(request)
            continue
        fused.append((i, request, task))
    t_compile = time.perf_counter()
    if fused:
        task_results = run_request_tasks(
            [task for _, _, task in fused], fuse=True, dedup=True
        )
        t_sim = time.perf_counter()
        compile_ms = (t_compile - t0) * 1000.0
        simulate_ms = (t_sim - t_compile) * 1000.0
        for i, request, task in fused:
            task_result = task_results[task.key]
            counts = task_result.counts
            counts.method = "trajectory"
            if sanitizer.enabled():
                # Mirror the per-request engine's ``counts`` event so
                # fused and unfused traces compare equal on the
                # portable stages (keys are content keys either way).
                sanitizer.record(
                    "counts",
                    {
                        "data": dict(counts.items()),
                        "num_qubits": counts.num_qubits,
                        "method": counts.method,
                    },
                    key=request.content_key(),
                )
            instance = request.instance()
            outcome = evaluate_instance(counts, instance.correct_outcomes())
            correct = sum(
                counts.get(o) for o in instance.correct_outcomes()
            )
            results[i] = {
                "content_key": request.content_key(),
                "counts": {int(k): int(v) for k, v in counts.items()},
                "num_qubits": counts.num_qubits,
                "shots": request.shots,
                "method": counts.method,
                "program_fingerprint": task.program.fingerprint,
                "seed": request.seed,
                "success": bool(outcome.success),
                "min_diff": int(outcome.min_diff),
                "success_probability": correct / max(1, counts.shots),
                # Batch-level costs: compile covers task construction
                # for the whole group, simulate the shared scheduler
                # pass (identical for every member by construction).
                "timings_ms": {
                    "compile": compile_ms,
                    "simulate": simulate_ms,
                },
            }
    return [r for r in results if r is not None]


class SimulationExecutor:
    """Async facade over the worker pool with the retry ladder.

    ``workers=0`` executes in-process on a thread pool (sharing the
    parent's compile/kernel caches — the right mode for tests and
    small deployments); ``workers>0`` uses a process pool, where each
    worker warms its own caches and survives crashes via respawn.
    """

    def __init__(
        self,
        workers: int = 0,
        concurrency: int = 4,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.workers = workers
        self.concurrency = concurrency
        self.retry = retry or RetryPolicy(max_attempts=2, timeout=None)
        self.pool_respawns = 0
        self.degraded = False
        self._pool = self._make_pool()

    def _make_pool(self) -> _FuturesExecutor:
        if self.workers > 0 and not self.degraded:
            return process_pool(self.workers)
        return ThreadPoolExecutor(
            max_workers=max(1, self.concurrency),
            thread_name_prefix="repro-exec",
        )

    @property
    def mode(self) -> str:
        if self.workers > 0 and not self.degraded:
            return "process"
        return "thread"

    def describe(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "workers": self.workers,
            "concurrency": self.concurrency,
            "pool_respawns": self.pool_respawns,
            "degraded": self.degraded,
            "max_attempts": self.retry.max_attempts,
            "timeout": self.retry.timeout,
        }

    async def run(self, request: SimRequest) -> Dict[str, Any]:
        """Execute ``request`` with retries; returns the result payload."""
        payload = request.to_dict()
        loop = asyncio.get_running_loop()
        last_error = "unknown"
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                future = loop.run_in_executor(
                    self._pool, _execute_payload, payload
                )
                if self.retry.timeout is not None:
                    result = await asyncio.wait_for(
                        future, self.retry.timeout
                    )
                else:
                    result = await future
                # Worker-side sanitizer events ride home on the result
                # (that is how they cross the process boundary); fold
                # them into the parent trace and keep the response
                # payload tier-independent.
                events = result.pop("sanitizer_events", None)
                if events:
                    sanitizer.merge_events(events)
                return result
            except (RequestValidationError, ValueError):
                # Deterministic input errors cannot succeed on retry.
                raise
            except BrokenProcessPool as exc:
                last_error = f"BrokenProcessPool: {exc}"
                self._respawn()
            except asyncio.TimeoutError:
                last_error = (
                    f"timeout after {self.retry.timeout}s "
                    f"(attempt {attempt})"
                )
            except Exception as exc:  # noqa: BLE001 — ladder mirrors Supervisor
                last_error = f"{type(exc).__name__}: {exc}"
            if attempt < self.retry.max_attempts:
                await asyncio.sleep(self.retry.backoff(attempt))
        raise ExecutionFailed(self.retry.max_attempts, last_error)

    async def run_batch(
        self, requests: List[SimRequest]
    ) -> List[Dict[str, Any]]:
        """Execute a fused micro-batch with the same retry ladder as
        :meth:`run`; returns one result payload per request, in order.

        The whole batch is one unit of work (that is the point — the
        scheduler pass is shared), so the whole batch retries together;
        determinism makes the replay bit-identical per request.
        """
        payloads = [request.to_dict() for request in requests]
        loop = asyncio.get_running_loop()
        last_error = "unknown"
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                future = loop.run_in_executor(
                    self._pool, _execute_fused_batch, payloads
                )
                if self.retry.timeout is not None:
                    doc = await asyncio.wait_for(future, self.retry.timeout)
                else:
                    doc = await future
                events = doc.get("sanitizer_events")
                if events:
                    sanitizer.merge_events(events)
                return list(doc["results"])
            except (RequestValidationError, ValueError):
                raise
            except BrokenProcessPool as exc:
                last_error = f"BrokenProcessPool: {exc}"
                self._respawn()
            except asyncio.TimeoutError:
                last_error = (
                    f"timeout after {self.retry.timeout}s "
                    f"(attempt {attempt})"
                )
            except Exception as exc:  # noqa: BLE001 — ladder mirrors Supervisor
                last_error = f"{type(exc).__name__}: {exc}"
            if attempt < self.retry.max_attempts:
                await asyncio.sleep(self.retry.backoff(attempt))
        raise ExecutionFailed(self.retry.max_attempts, last_error)

    def _respawn(self) -> None:
        """Replace a broken process pool; degrade to threads past budget."""
        try:
            self._pool.shutdown(wait=False)
        except Exception:  # noqa: BLE001 — broken pools may refuse shutdown
            pass
        self.pool_respawns += 1
        if self.pool_respawns > self.retry.max_pool_respawns:
            self.degraded = True
        self._pool = self._make_pool()

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)
