"""Fault-tolerant execution of independent cells over a process pool.

``Supervisor`` replaces the bare ``pool.map`` pattern: cells are
submitted individually, so one slow or dying worker cannot take the
whole sweep down with it.  The recovery ladder, in order:

1. **Retry with backoff** — transient failures (see
   :func:`~repro.runtime.errors.classify_retryable`) are re-queued up to
   ``RetryPolicy.max_attempts`` times with exponential backoff.
2. **Per-cell timeout** — a cell past ``RetryPolicy.timeout`` seconds is
   charged a :class:`~repro.runtime.errors.CellTimeoutError` attempt and
   the pool is recycled (a hung worker cannot be cancelled, only
   killed); innocent in-flight cells are re-queued without charge.
3. **Pool respawn** — ``BrokenProcessPool`` (a worker segfaulted or was
   OOM-killed) kills and re-creates the pool, up to
   ``RetryPolicy.max_pool_respawns`` times.
4. **Serial degradation** — when the pool keeps breaking, remaining
   cells run in-process, serially.  Timeouts are not enforceable there
   (documented trade-off), but a deterministic workload still completes.

Cells that exhaust every rung are returned as structured
:class:`CellFailure` records instead of raising, so a sweep with a few
dead cells still completes, renders and serialises.

The worker callable must be a module-level function (picklable) taking
``(payload, attempt)``; the attempt number makes deterministic fault
injection (:mod:`repro.runtime.faults`) possible across processes.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .blas import process_pool
from .errors import CellTimeoutError, classify_retryable

__all__ = [
    "RetryPolicy",
    "CellFailure",
    "Supervisor",
    "run_supervised",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for the supervisor's recovery ladder."""

    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    backoff_max: float = 10.0
    #: Per-cell wall-clock budget in seconds (None = unlimited).  Only
    #: enforced on the pooled path — a hung in-process cell cannot be
    #: interrupted from within.
    timeout: Optional[float] = None
    #: Pool re-creations tolerated before degrading to serial execution.
    max_pool_respawns: int = 2

    def backoff(self, attempt: int) -> float:
        """Delay before re-running a cell that failed ``attempt`` times."""
        if self.backoff_base <= 0:
            return 0.0
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )


@dataclass(frozen=True)
class CellFailure:
    """One cell that exhausted the recovery ladder."""

    key: Any
    error_type: str
    message: str
    traceback: str
    attempts: int
    retryable: bool


@dataclass
class _Pending:
    """A cell waiting to run (or re-run)."""

    key: Any
    payload: Any
    attempt: int = 1
    not_before: float = 0.0


def _format_exc(exc: BaseException) -> str:
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


class Supervisor:
    """Run independent cells with retries, timeouts and pool recovery.

    Parameters
    ----------
    worker:
        Module-level callable ``worker(payload, attempt) -> result``.
    workers:
        Process count; ``<= 1`` runs everything in-process.
    retry:
        The :class:`RetryPolicy`; defaults to 3 attempts, no timeout.
    on_result:
        ``on_result(key, result, attempts)`` fired as each cell
        completes — the checkpoint hook.
    clock / sleep / pool_factory:
        Injection points for tests (fake time, fake executors).
    """

    #: Upper bound on one ``wait()`` call so timeout checks stay timely.
    _TICK = 0.25

    def __init__(
        self,
        worker: Callable[[Any, int], Any],
        workers: int = 1,
        retry: Optional[RetryPolicy] = None,
        on_result: Optional[Callable[[Any, Any, int], None]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        pool_factory: Optional[Callable[[], ProcessPoolExecutor]] = None,
    ) -> None:
        self.worker = worker
        self.workers = max(1, int(workers))
        self.retry = retry or RetryPolicy()
        self.on_result = on_result
        self.clock = clock
        self.sleep = sleep
        self._pool_factory = pool_factory or (
            lambda: process_pool(self.workers)
        )
        #: Pool re-creations performed during the last :meth:`run`.
        self.pool_respawns = 0
        #: True when the last run degraded to serial execution.
        self.degraded_serial = False

    # ------------------------------------------------------------------
    def run(
        self, cells: Sequence[Tuple[Any, Any]]
    ) -> Tuple[Dict[Any, Any], List[CellFailure]]:
        """Execute every ``(key, payload)`` cell.

        Returns ``(results, failures)``: completed results by key, plus
        a structured record for every cell that exhausted its retries.
        Never raises for per-cell errors — only for genuinely fatal
        conditions (``KeyboardInterrupt``, ``SystemExit``).
        """
        queue: Deque[_Pending] = deque(
            _Pending(key, payload) for key, payload in cells
        )
        results: Dict[Any, Any] = {}
        failures: List[CellFailure] = []
        self.pool_respawns = 0
        self.degraded_serial = False
        if self.workers <= 1 or len(queue) <= 1:
            self._run_serial(queue, results, failures)
        else:
            self._run_pooled(queue, results, failures)
        return results, failures

    # ------------------------------------------------------------------
    def _success(self, item: _Pending, value: Any, results: dict) -> None:
        results[item.key] = value
        if self.on_result is not None:
            self.on_result(item.key, value, item.attempt)

    def _failure(
        self,
        item: _Pending,
        exc: BaseException,
        queue: Deque[_Pending],
        failures: List[CellFailure],
        charge: bool = True,
    ) -> None:
        """Requeue a failed cell with backoff, or record its failure."""
        if not charge:
            # An innocent bystander of a pool recycle: retry without
            # consuming one of its attempts.
            queue.appendleft(item)
            return
        retryable = classify_retryable(exc)
        if retryable and item.attempt < self.retry.max_attempts:
            delay = self.retry.backoff(item.attempt)
            queue.append(
                _Pending(
                    item.key,
                    item.payload,
                    attempt=item.attempt + 1,
                    not_before=self.clock() + delay,
                )
            )
            return
        failures.append(
            CellFailure(
                key=item.key,
                error_type=type(exc).__name__,
                message=str(exc),
                traceback=_format_exc(exc),
                attempts=item.attempt,
                retryable=retryable,
            )
        )

    # ------------------------------------------------------------------
    def _run_serial(
        self,
        queue: Deque[_Pending],
        results: dict,
        failures: List[CellFailure],
    ) -> None:
        while queue:
            item = queue.popleft()
            delay = item.not_before - self.clock()
            if delay > 0:
                self.sleep(delay)
            try:
                value = self.worker(item.payload, item.attempt)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                self._failure(item, exc, queue, failures)
                continue
            self._success(item, value, results)

    # ------------------------------------------------------------------
    def _run_pooled(
        self,
        queue: Deque[_Pending],
        results: dict,
        failures: List[CellFailure],
    ) -> None:
        pool = self._pool_factory()
        # future -> (pending item, submit timestamp).  In-flight is kept
        # <= workers so submit time approximates start time and the
        # per-cell timeout measures actual runtime.
        inflight: Dict[Any, Tuple[_Pending, float]] = {}

        def recycle(current_pool):
            """Kill the pool; requeue innocents; respawn or go serial."""
            for _fut, (item, _t0) in inflight.items():
                queue.appendleft(item)
            inflight.clear()
            _kill_pool(current_pool)
            self.pool_respawns += 1
            if self.pool_respawns > self.retry.max_pool_respawns:
                return None
            return self._pool_factory()

        try:
            while queue or inflight:
                now = self.clock()
                # Submit every due cell up to pool capacity.
                while len(inflight) < self.workers:
                    item = _pop_due(queue, now)
                    if item is None:
                        break
                    try:
                        fut = pool.submit(self.worker, item.payload, item.attempt)
                    except BrokenProcessPool:
                        queue.appendleft(item)
                        pool = recycle(pool)
                        if pool is None:
                            self.degraded_serial = True
                            self._run_serial(queue, results, failures)
                            return
                        continue
                    inflight[fut] = (item, self.clock())

                if not inflight:
                    # Everything queued is backing off; sleep to the
                    # earliest eligible retry.
                    nxt = min(i.not_before for i in queue)
                    self.sleep(max(0.0, nxt - self.clock()))
                    continue

                done, _ = wait(
                    list(inflight),
                    timeout=self._wait_budget(inflight, queue),
                    return_when=FIRST_COMPLETED,
                )
                broken = False
                for fut in done:
                    item, _t0 = inflight.pop(fut)
                    exc = fut.exception()
                    if exc is None:
                        self._success(item, fut.result(), results)
                    else:
                        if isinstance(exc, BrokenProcessPool):
                            broken = True
                        self._failure(item, exc, queue, failures)

                if self.retry.timeout is not None:
                    now = self.clock()
                    hung = [
                        fut
                        for fut, (_item, t0) in inflight.items()
                        if now - t0 > self.retry.timeout
                    ]
                    for fut in hung:
                        item, t0 = inflight.pop(fut)
                        self._failure(
                            item,
                            CellTimeoutError(
                                f"cell {item.key!r} exceeded "
                                f"{self.retry.timeout:g}s "
                                f"(attempt {item.attempt})"
                            ),
                            queue,
                            failures,
                        )
                    if hung:
                        # The hung workers cannot be reclaimed any other
                        # way — recycle the whole pool.
                        broken = True

                if broken:
                    pool = recycle(pool)
                    if pool is None:
                        self.degraded_serial = True
                        self._run_serial(queue, results, failures)
                        return
        finally:
            _kill_pool(pool)

    def _wait_budget(
        self, inflight: dict, queue: Deque[_Pending]
    ) -> Optional[float]:
        """How long one ``wait()`` may block before we must re-check."""
        budget = self._TICK if self.retry.timeout is not None else None
        if queue and len(inflight) < self.workers:
            # A backoff retry may become due before anything finishes.
            now = self.clock()
            due_in = max(0.0, min(i.not_before for i in queue) - now)
            budget = due_in if budget is None else min(budget, due_in)
            budget = max(budget, 0.01)
        return budget


def _pop_due(queue: Deque[_Pending], now: float) -> Optional[_Pending]:
    """Remove and return the first cell whose backoff has elapsed."""
    for i, item in enumerate(queue):
        if item.not_before <= now:
            del queue[i]
            return item
    return None


def _kill_pool(pool) -> None:
    """Terminate a pool's workers and release it, tolerating any state."""
    if pool is None:
        return
    try:
        procs = list((getattr(pool, "_processes", None) or {}).values())
    except Exception:
        procs = []
    for p in procs:
        try:
            p.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        try:
            pool.shutdown(wait=False)
        except Exception:
            pass


def run_supervised(
    worker: Callable[[Any, int], Any],
    cells: Sequence[Tuple[Any, Any]],
    workers: int = 1,
    retry: Optional[RetryPolicy] = None,
    on_result: Optional[Callable[[Any, Any, int], None]] = None,
) -> Tuple[Dict[Any, Any], List[CellFailure]]:
    """One-shot convenience wrapper around :class:`Supervisor`."""
    return Supervisor(
        worker, workers=workers, retry=retry, on_result=on_result
    ).run(cells)
