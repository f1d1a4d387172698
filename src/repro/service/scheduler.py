"""The service's front door: result cache, coalescing, admission.

The scheduler sits between the HTTP layer and the one queue
(:class:`~repro.service.fusion.FusionGate`):

1. **Result cache** — a request whose content key is cached returns
   immediately (``cache="hit"``).
2. **Coalescing** — if an identical request (same content key) is
   already waiting or executing, the newcomer attaches to its future
   instead of enqueueing a duplicate (``cache="coalesced"``); N
   concurrent identical requests cost exactly one simulation.
3. **Admission control** — everything else enters the queue, whose
   waiting backlog is bounded by ``max_queue``.  A full queue rejects
   with :class:`AdmissionError` carrying a ``retry_after`` estimate
   (drain time at the observed execution rate), which the server
   surfaces as HTTP 429 + ``Retry-After``.

The queue runs at most ``concurrency`` requests at once and fills a
free slot the moment one opens: priority and tenant fairness are its
business (see :mod:`repro.service.fusion`).  A request it ran answers
``cache="miss"``.

Draining: :meth:`close` stops admission (503 upstream) while
:meth:`drain` lets already-admitted jobs finish, so a graceful shutdown
never drops accepted work.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, Optional, Tuple

from .cache import ResultCache
from .executor import SimulationExecutor
from .fusion import FusionGate, FusionSaturated
from .metrics import ServiceMetrics
from .model import SimRequest

__all__ = ["AdmissionError", "JobScheduler"]


class AdmissionError(Exception):
    """Queue full — back off for ``retry_after`` seconds."""

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(
            f"queue full ({depth} jobs); retry after {retry_after:.1f}s"
        )
        self.depth = depth
        self.retry_after = retry_after


class JobScheduler:
    """Cache and coalescing in front of the one bounded queue.

    ``concurrency`` and ``max_queue`` size the queue built here; a
    queue passed in as ``fusion`` keeps its own.
    """

    def __init__(
        self,
        executor: SimulationExecutor,
        cache: Optional[ResultCache] = None,
        metrics: Optional[ServiceMetrics] = None,
        max_queue: int = 256,
        concurrency: int = 4,
        fusion: Optional[FusionGate] = None,
    ) -> None:
        self.executor = executor
        self.cache = cache if cache is not None else ResultCache()
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.fusion = fusion if fusion is not None else FusionGate(
            executor,
            metrics=self.metrics,
            cache=self.cache,
            concurrency=concurrency,
            max_queue=max_queue,
        )
        # Batches settle on the queue's tasks; this keeps the
        # coalescing map from pinning resolved futures forever.
        self.fusion.done_hooks.append(
            lambda key: self._inflight.pop(key, None)
        )
        self._inflight: Dict[
            str, "asyncio.Future[Tuple[Dict[str, Any], str]]"
        ] = {}
        self._accepting = True
        self.metrics.register_gauge("queue_depth", self.fusion.depth)
        self.metrics.register_gauge("jobs_running", lambda: self.fusion.running)
        self.metrics.register_gauge(
            "coalesced_inflight_keys", lambda: len(self._inflight)
        )

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Stop admitting new jobs; queued jobs keep draining."""
        self._accepting = False

    async def drain(self, timeout: Optional[float] = None) -> None:
        """Wait for the queue and every running job to finish."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.fusion.depth() or self.fusion.running or self._inflight:
            if deadline is not None and time.monotonic() > deadline:
                break
            await asyncio.sleep(0.01)
        await self.fusion.stop()

    # -- stats ------------------------------------------------------------
    def queue_stats(self) -> Dict[str, Any]:
        return {
            "depth": self.fusion.depth(),
            "max_queue": self.fusion.max_queue,
            "running": self.fusion.running,
            "inflight_keys": len(self._inflight),
            "accepting": self._accepting,
            "concurrency": self.fusion.concurrency,
            "avg_exec_seconds": self.fusion.avg_exec,
        }

    # -- submission -------------------------------------------------------
    async def submit(self, request: SimRequest) -> Tuple[Dict[str, Any], str]:
        """Resolve one admitted request.

        Returns ``(payload, source)`` with ``source`` in
        ``{"hit", "coalesced", "miss"}``.  Raises
        :class:`AdmissionError` on a full queue and ``RuntimeError``
        when the scheduler is closed.
        """
        if not self._accepting:
            raise RuntimeError("scheduler is draining; not accepting jobs")
        key = request.content_key()

        cached = self.cache.get(key)
        if cached is not None:
            self.metrics.inc("result_cache_hits_total")
            return cached, "hit"

        existing = self._inflight.get(key)
        if existing is not None:
            self.metrics.inc("requests_coalesced_total")
            # A shielded wait: one coalesced caller disconnecting must
            # not cancel the shared simulation.  If the duplicate is
            # still waiting in the queue, register as a waiter so the
            # entry survives the original caller hanging up.
            retained = self.fusion.retain(key)
            try:
                payload, _ = await asyncio.shield(existing)
            except asyncio.CancelledError:
                if retained and self.fusion.release(key):
                    self._inflight.pop(key, None)
                raise
            return payload, "coalesced"

        try:
            future = self.fusion.enqueue(request)
        except FusionSaturated as exc:
            self.metrics.inc("requests_rejected_total")
            raise AdmissionError(exc.depth, self.fusion.retry_after()) from None
        self._inflight[key] = future
        try:
            return await asyncio.shield(future)
        except asyncio.CancelledError:
            # Last waiter gone while the entry still waits: withdraw it
            # so no slot runs an orphan.  Once taken this is a no-op —
            # running requests always complete and cache their results.
            if self.fusion.release(key):
                self._inflight.pop(key, None)
            raise
