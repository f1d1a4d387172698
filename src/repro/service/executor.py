"""The service's worker tier: compiled-program execution with retries.

Every request runs alone through one function, :func:`_execute_payload`.
A noisy trajectory request becomes one
:class:`~repro.sim.batch.TrajectoryTask` for
:func:`~repro.sim.batch.run_request_tasks`; every other request runs
:func:`repro.experiments.runner.build_compiled_program` (two-level
compile cache + kernel cache underneath) feeding
:func:`repro.sim.engines.simulate_counts`.  One retry ladder wraps it
with the runtime supervisor's recovery semantics: bounded attempts
with exponential backoff, a per-attempt wall-clock timeout, and
``BrokenProcessPool`` respawn with degradation to in-process threads
once the respawn budget is exhausted (mirroring
:class:`repro.runtime.supervisor.Supervisor`).

Determinism: the RNG is rebuilt from the request's seed sequence inside
every attempt, so a retried request replays bit-identically — the
regression tests in ``tests/test_service_seed.py`` pin this.

Observability: a process worker's counters (``program.*``, ``batch.*``,
``ptm.*``, ``cut.*`` of :mod:`repro.runtime.obs`) ride home with each
result as the deltas that request caused, and the parent merges them,
so ``/stats`` reads the same on both tiers.  A failed or crashed
attempt brings nothing home.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import Executor as _FuturesExecutor
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from ..experiments.runner import build_compiled_program, noise_model_for
from ..metrics.success import evaluate_instance
from ..runtime import obs, sanitizer
from ..runtime.blas import process_pool
from ..runtime.faults import FaultPlan, FaultSpec, inject
from ..runtime.supervisor import RetryPolicy
from ..sim.batch import TrajectoryTask, run_request_tasks
from ..sim.engines import EXACT_MAX_QUBITS, simulate_counts
from ..sim.program import kernel_cache_stats
from ..sim.ptm import ptm_cache_stats
from ..sim.result import Counts
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


def fusion_eligible(request: SimRequest) -> bool:
    """Whether a request goes to the trajectory scheduler.

    Cheap, request-shape-only screen used at admission and again inside
    the executor before anything is compiled: noisy trajectory work
    (explicit, or what ``method="auto"`` will resolve to once the width
    rules out the exact PTM engine).  The executor re-checks survivors
    against the *compiled program* (Pauli-only sites, resolved method)
    and runs any that turn out not to fit through
    :func:`~repro.sim.engines.simulate_counts` instead — eligibility
    here may over-approximate, never under-deliver.
    """
    if request.error_rate <= 0.0:
        return False
    if request.method == "trajectory":
        return True
    return (
        request.method == "auto"
        and request.total_qubits > EXACT_MAX_QUBITS
    )


def _scheduler_task_for(request: SimRequest) -> Optional[TrajectoryTask]:
    """Build the request's scheduler task, or ``None`` if it has none.

    ``None`` means the compiled program refused the trajectory
    scheduler (non-Pauli noise, no noise sites, or ``auto`` resolving
    to an exact method).
    """
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
    if request.method == "auto" and program.num_qubits <= EXACT_MAX_QUBITS:
        return None
    return TrajectoryTask(
        key=request.content_key(),
        program=program,
        shots=request.shots,
        trajectories=request.trajectories,
        # Fresh stream per attempt: retries and coalesced duplicates
        # replay bit-identically from (seed, content_key).
        rng=np.random.default_rng(request.rng_seed()),
        initial_state=request.instance().initial_statevector(),
    )


def _response(
    request: SimRequest,
    counts: Counts,
    fingerprint: str,
    compile_s: float,
    simulate_s: float,
) -> Dict[str, Any]:
    """The result-determining slice of one request's response."""
    correct_outcomes = request.instance().correct_outcomes()
    outcome = evaluate_instance(counts, correct_outcomes)
    correct = sum(counts.get(o) for o in correct_outcomes)
    return {
        "content_key": request.content_key(),
        "counts": {int(k): int(v) for k, v in counts.items()},
        "num_qubits": counts.num_qubits,
        "shots": request.shots,
        "method": counts.method,
        "program_fingerprint": fingerprint,
        "seed": request.seed,
        "success": bool(outcome.success),
        "min_diff": int(outcome.min_diff),
        "success_probability": correct / max(1, counts.shots),
        "timings_ms": {
            "compile": compile_s * 1000.0,
            "simulate": simulate_s * 1000.0,
        },
    }


def _run_engine(request: SimRequest) -> Dict[str, Any]:
    """One request through :func:`~repro.sim.engines.simulate_counts`.

    Everything the trajectory scheduler does not take: exact methods,
    ``cut``, ideal points and non-Pauli noise.
    """
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
        target = build_compiled_program(
            request.operation,
            request.n,
            request.m,
            request.depth,
            request.error_axis,
            request.error_rate,
            request.convention,
        )
        fingerprint = target.fingerprint
    noise = noise_model_for(
        request.error_axis, request.error_rate, request.convention
    )
    t_compile = time.perf_counter()
    if noise.is_ideal and method in ("auto", "trajectory"):
        # Mirror the batch runner: an ideal point is exact — never
        # spend trajectories on it (an explicit density/perturbative
        # request is honoured).
        method = "statevector"
    counts = simulate_counts(
        target,
        noise,
        shots=request.shots,
        method=method,
        trajectories=request.trajectories,
        # Fresh stream per attempt, as for scheduler tasks.
        rng=np.random.default_rng(request.rng_seed()),
        initial_state=request.instance().initial_statevector(),
    )
    t_sim = time.perf_counter()
    return _response(
        request, counts, fingerprint, t_compile - t0, t_sim - t_compile
    )


def _run_request(request: SimRequest) -> Dict[str, Any]:
    t0 = time.perf_counter()
    # Screen before compiling: a cut request must never build the
    # full-width program it exists to avoid, and exact methods have no
    # scheduler task to compile for.
    task = _scheduler_task_for(request) if fusion_eligible(request) else None
    if task is None:
        with sanitizer.trace_scope(request.content_key()):
            return _run_engine(request)
    t_compile = time.perf_counter()
    counts = run_request_tasks([task])[task.key].counts
    t_sim = time.perf_counter()
    counts.method = "trajectory"
    if sanitizer.enabled():
        # The same ``counts`` event simulate_counts records for a
        # request it runs, keyed by the request's content key.
        sanitizer.record(
            "counts",
            {
                "data": dict(counts.items()),
                "num_qubits": counts.num_qubits,
                "method": counts.method,
            },
            key=request.content_key(),
        )
    return _response(
        request,
        counts,
        task.program.fingerprint,
        t_compile - t0,
        t_sim - t_compile,
    )


def _execute_payload(
    payload: Dict[str, Any],
    fault: Optional[FaultSpec] = None,
    attempt: int = 1,
) -> Dict[str, Any]:
    """Run one request end to end (top level: picklable for pools).

    The service's one execution function.  Returns the request's
    response-shaped payload; when the sanitizer is on, the request's
    trace events ride home under ``"sanitizer_events"``.

    ``fault`` (keyed by content key, firing by ``attempt``) fires after
    the request has run and before its result leaves, so the attempt's
    whole work is lost; ``nan`` has nothing to poison here and does
    nothing.
    """
    request = SimRequest.from_dict(payload)
    if not sanitizer.enabled():
        result = _run_request(request)
    else:
        with sanitizer.capture() as events:
            result = _run_request(request)
        result["sanitizer_events"] = [list(e) for e in events]
    inject(fault, request.content_key(), attempt)
    return result


def _execute_in_worker(
    payload: Dict[str, Any], fault: Optional[FaultSpec], attempt: int
) -> Dict[str, Any]:
    """Process-pool entry: :func:`_execute_payload`, plus the worker's
    report under ``"worker_stats"`` — the counter deltas this request
    caused and the worker's cache sizes.

    A pool worker runs one payload at a time, so the ledger's movement
    between the two snapshots is this request's alone.
    """
    before = obs.snapshot()
    result = _execute_payload(payload, fault, attempt)
    kernels = kernel_cache_stats()
    result["worker_stats"] = {
        "pid": os.getpid(),
        "counters": obs.delta(before, obs.snapshot()),
        "gauges": {
            "kernel_cache": {
                "entries": kernels["entries"],
                "total_bytes": kernels["total_bytes"],
            },
            "ptm_cache": {"plans": ptm_cache_stats()["plans"]},
        },
    }
    return result


class SimulationExecutor:
    """Async facade over the worker pool with the retry ladder.

    ``workers=0`` (the library default) executes in-process on a thread
    pool: in-process embedders and the tests share the parent's
    compile/kernel caches and can patch what runs.  ``workers>0`` uses
    a process pool (``repro-serve``'s default, one worker per slot),
    which runs the GIL-bound trajectory walks in parallel; each worker
    warms its own caches, reports its counters home with every result
    (merged into :mod:`repro.runtime.obs`; its cache sizes are kept per
    worker, see :meth:`worker_gauges`) and is replaced by a respawn if
    it dies.

    ``fault_plan`` is a test seam, as on
    :func:`~repro.experiments.sweep.run_sweep`: requests are keyed by
    content key and the attempt number picks the firing attempts.
    """

    def __init__(
        self,
        workers: int = 0,
        concurrency: int = 4,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.workers = workers
        self.concurrency = concurrency
        self.retry = retry or RetryPolicy(max_attempts=2, timeout=None)
        self.fault_plan = fault_plan or FaultPlan()
        self.pool_respawns = 0
        self.degraded = False
        #: Latest cache sizes each live worker sent, by pid.
        self._worker_gauges: Dict[int, Dict[str, Dict[str, int]]] = {}
        self._pool = self._make_pool()

    def _make_pool(self) -> _FuturesExecutor:
        if self.workers > 0 and not self.degraded:
            pool = process_pool(self.workers)
            # Forked workers start on the first submit: start them now,
            # from the constructing thread, rather than from under a
            # busy server's threads.
            pool.submit(os.getpid)
            return pool
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

    def worker_gauges(self) -> Dict[str, Dict[str, int]]:
        """Cache sizes summed over the live workers' latest reports
        (``{section: {name: value}}``; empty on the thread tier)."""
        total: Dict[str, Dict[str, int]] = {}
        for report in self._worker_gauges.values():
            for section, row in report.items():
                into = total.setdefault(section, {})
                for name, value in row.items():
                    into[name] = into.get(name, 0) + value
        return total

    def _absorb(self, result: Dict[str, Any]) -> Dict[str, Any]:
        """Fold what rode home on ``result`` into this process; return
        the tier-independent response payload."""
        # Sanitizer events: that is how they cross the process boundary.
        events = result.pop("sanitizer_events", None)
        if events:
            sanitizer.merge_events(events)
        report = result.pop("worker_stats", None)
        if report is not None:
            obs.merge(report["counters"])
            self._worker_gauges[report["pid"]] = report["gauges"]
        return result

    async def run(self, request: SimRequest) -> Dict[str, Any]:
        """Execute ``request`` with the retry ladder; returns its
        result payload.

        Determinism makes every retry replay bit-identically.
        """
        payload = request.to_dict()
        fault = self.fault_plan.for_cell(request.content_key())
        loop = asyncio.get_running_loop()
        last_error = "unknown"
        for attempt in range(1, self.retry.max_attempts + 1):
            pool = self._pool
            # Only a process worker reports counters: a thread's are
            # already this process's own.
            fn = _execute_in_worker if self.mode == "process" else _execute_payload
            try:
                future = loop.run_in_executor(pool, fn, payload, fault, attempt)
                if self.retry.timeout is not None:
                    result = await asyncio.wait_for(future, self.retry.timeout)
                else:
                    result = await future
                return self._absorb(result)
            except (RequestValidationError, ValueError):
                # Deterministic input errors cannot succeed on retry.
                raise
            except BrokenProcessPool as exc:
                last_error = f"BrokenProcessPool: {exc}"
                # One dead worker breaks every request in flight on its
                # pool; the first to notice replaces it.
                if pool is self._pool:
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
        """Execute ``requests`` one after another through :meth:`run`;
        one result payload per request, in order."""
        return [await self.run(request) for request in requests]

    def _respawn(self) -> None:
        """Replace a broken process pool; degrade to threads past budget."""
        try:
            self._pool.shutdown(wait=False)
        except Exception:  # noqa: BLE001 — broken pools may refuse shutdown
            pass
        self.pool_respawns += 1
        if self.pool_respawns > self.retry.max_pool_respawns:
            self.degraded = True
        # The old pool's workers are gone, and their cache sizes with them.
        self._worker_gauges.clear()
        self._pool = self._make_pool()

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)
