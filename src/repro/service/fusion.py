"""The service's one queue: work-conserving, multi-tenant, one request
per take.

Every admitted request that is not a result-cache hit or a coalesced
duplicate waits here, and at most ``concurrency`` requests execute at
once.  Whenever a slot is free it takes the next request at once —
there is no hold timer — and runs it alone through
:meth:`SimulationExecutor.run`.

Fairness: each take is chosen by deficit round robin (DRR) over
tenants.  A tenant's turn credits it :data:`QUANTUM` cost units (cost =
requested shots) when its head request does not fit its deficit, and
the head goes once it fits — so a balance never exceeds the larger of
the quantum and the costliest head.  A tenant whose queue was empty
goes before the tenants that stayed backlogged, so an interactive
request waits for the next free slot, not behind a sweep.  Within a
tenant, order is priority, then FIFO.  A tenant that empties its queue
forfeits its balance (standard DRR), and a progress guard serves the
oldest head when no deficit suffices.

The waiting backlog is bounded by ``max_queue`` (``--max-queue``);
past it :class:`FusionSaturated` becomes HTTP 429 with ``Retry-After``.
The ``fusion.*`` counters of :func:`fusion_stats` count requests bound
for the trajectory scheduler only (see
:func:`repro.service.executor.fusion_eligible`).  Every take holds one
request, so ``fused_requests`` and ``hit_rate`` read 0 and
``batch_occupancy`` reads 1; they keep the shape ``/stats`` readers
expect.
"""

from __future__ import annotations

import asyncio
import bisect
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from ..runtime import obs
from .cache import ResultCache
from .executor import SimulationExecutor, fusion_eligible
from .metrics import ServiceMetrics
from .model import SimRequest

__all__ = [
    "FusionGate",
    "FusionSaturated",
    "fusion_stats",
    "reset_fusion_stats",
]

#: DRR credit per tenant turn, in cost units (shots).
QUANTUM = 4096.0

#: Per-sample clamp feeding the execution-time EWMA: one pathological
#: request (a hang that eventually returned, a cold compile) must not drag
#: the average — and with it every Retry-After estimate — to minutes.
_AVG_EXEC_SAMPLE_CAP = 30.0
#: Ceiling on the advertised Retry-After: beyond this the estimate is
#: noise and clients should just re-poll.
_RETRY_AFTER_CAP = 120.0


class FusionSaturated(Exception):
    """The queue's waiting bound is full — back off."""

    def __init__(self, depth: int) -> None:
        super().__init__(f"queue full ({depth} waiting)")
        self.depth = depth


# ---------------------------------------------------------------------------
# Process-wide stats (mirrored by /stats and repro-arith cache-stats)
# ---------------------------------------------------------------------------

def fusion_stats() -> Dict[str, Any]:
    """Process-wide cumulative counters over fusion-eligible requests."""
    rows = obs.snapshot("fusion.")
    c = rows.pop((), {})
    executed = c.get("executed", 0)
    fused = c.get("fused_requests", 0)
    batches = c.get("batches", 0)
    batch_requests = c.get("batch_requests", 0)
    return {
        "admitted": c.get("admitted", 0),
        "executed": executed,
        "fused_requests": fused,
        "batches": batches,
        "batch_requests": batch_requests,
        "failures": c.get("failures", 0),
        "cancelled": c.get("cancelled", 0),
        "rejected": c.get("rejected", 0),
        "hit_rate": fused / executed if executed else 0.0,
        "batch_occupancy": batch_requests / batches if batches else 0.0,
        "tenants": {
            dict(labels)["tenant"]: row for labels, row in sorted(rows.items())
        },
    }


def reset_fusion_stats() -> None:
    """Zero the counters (tests, fresh benchmark runs)."""
    obs.reset("fusion.")


def _note_executed(failed: bool = False) -> None:
    """Count one executed fusion-eligible request (a take of one)."""
    obs.add({
        "fusion.batches": 1,
        "fusion.batch_requests": 1,
        "fusion.executed": 1,
        "fusion.failures": 1 if failed else 0,
    })


# ---------------------------------------------------------------------------
# The queue
# ---------------------------------------------------------------------------

class _Entry:
    """One waiting request."""

    __slots__ = (
        "request", "key", "tenant", "eligible", "priority", "cost",
        "future", "enqueued_at", "waiters", "seq",
    )

    def __init__(
        self,
        request: SimRequest,
        future: "asyncio.Future[Tuple[Dict[str, Any], str]]",
        seq: int,
    ) -> None:
        self.request = request
        self.key = request.content_key()
        self.tenant = request.tenant
        self.eligible = fusion_eligible(request)
        self.priority = request.priority
        self.cost = float(max(1, request.shots))
        self.future = future
        self.enqueued_at = time.monotonic()
        self.waiters = 1
        self.seq = seq

    def __lt__(self, other: "_Entry") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


def _consume_exception(future: "asyncio.Future[Any]") -> None:
    # Results may outlive their waiters (a client that disconnected
    # after its request started); retrieving the exception here keeps
    # asyncio's "exception was never retrieved" warning out of the logs.
    if not future.cancelled():
        future.exception()


class FusionGate:
    """The service queue: per-tenant waiting lists feeding executor slots.

    All state lives on the event loop (no locks); the only cross-thread
    artefacts are the process-wide ``fusion.*`` counters of
    :mod:`repro.runtime.obs`.  See the module docstring for the policy.
    ``concurrency`` defaults to the executor's.
    """

    def __init__(
        self,
        executor: SimulationExecutor,
        metrics: Optional[ServiceMetrics] = None,
        cache: Optional[ResultCache] = None,
        concurrency: Optional[int] = None,
        max_queue: int = 256,
        quantum: Optional[float] = None,
    ) -> None:
        self.executor = executor
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.cache = cache
        self.concurrency = max(
            1, executor.concurrency if concurrency is None else concurrency
        )
        self.max_queue = max_queue
        self.quantum = QUANTUM if quantum is None else float(quantum)
        #: Called with each entry's content key once its run settles;
        #: the scheduler registers its inflight-map cleanup here.
        self.done_hooks: List[Callable[[str], None]] = []
        #: EWMA of execution seconds, seeds the Retry-After estimate.
        self.avg_exec = 0.05
        self._queues: Dict[str, List[_Entry]] = {}
        self._deficit: Dict[str, float] = {}
        # Tenant rotation: tenants whose queue was empty go first.
        self._new: Deque[str] = deque()
        self._old: Deque[str] = deque()
        self._by_key: Dict[str, _Entry] = {}
        self._depth = 0
        self._seq = 0
        self._runs: "Set[asyncio.Task[None]]" = set()

    # -- lifecycle --------------------------------------------------------
    async def stop(self) -> None:
        """Wait until every admitted request has run."""
        while self._runs:
            await asyncio.gather(*list(self._runs), return_exceptions=True)

    # -- introspection ----------------------------------------------------
    def depth(self) -> int:
        """Requests waiting for a slot."""
        return self._depth

    @property
    def running(self) -> int:
        """Requests executing (one per busy slot)."""
        return len(self._runs)

    @property
    def slots_in_use(self) -> int:
        return len(self._runs)

    def tenant_deficits(self) -> Dict[str, float]:
        """Live DRR deficits of the backlogged tenants."""
        return dict(sorted(self._deficit.items()))

    def retry_after(self) -> float:
        """Rough drain time of the current backlog, in [1, cap] seconds."""
        backlog = self._depth + len(self._runs)
        return min(
            _RETRY_AFTER_CAP,
            max(1.0, backlog * self.avg_exec / self.concurrency),
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "concurrency": self.concurrency,
            "slots_in_use": self.slots_in_use,
            "max_queue": self.max_queue,
            "quantum": self.quantum,
            "pending": self._depth,
            "running": self.running,
            "tenant_pending": {
                t: len(q) for t, q in sorted(self._queues.items())
            },
            "tenant_deficits": self.tenant_deficits(),
        }

    # -- admission --------------------------------------------------------
    def enqueue(
        self, request: SimRequest
    ) -> "asyncio.Future[Tuple[Dict[str, Any], str]]":
        """Queue one request; resolves with ``(payload, "miss")``.

        Raises :class:`FusionSaturated` when every slot is busy and the
        waiting bound is full.  The caller owns one waiter reference;
        coalescers add theirs via :meth:`retain` and everyone returns
        them via :meth:`release` on cancellation.
        """
        if (
            len(self._runs) >= self.concurrency
            and self._depth >= self.max_queue
        ):
            if fusion_eligible(request):
                obs.add({"fusion.rejected": 1})
            raise FusionSaturated(self._depth)
        future: "asyncio.Future[Tuple[Dict[str, Any], str]]" = (
            asyncio.get_running_loop().create_future()
        )
        future.add_done_callback(_consume_exception)
        self._seq += 1
        entry = _Entry(request, future, self._seq)
        queue = self._queues.get(entry.tenant)
        if queue is None:
            queue = self._queues[entry.tenant] = []
            self._new.append(entry.tenant)
        bisect.insort(queue, entry)
        self._by_key[entry.key] = entry
        self._depth += 1
        if entry.eligible:
            obs.add({"fusion.admitted": 1})
            self.metrics.inc("fusion_requests_total")
        self._dispatch()
        return future

    def retain(self, key: str) -> bool:
        """Add one waiter to a *waiting* entry (coalesced duplicate)."""
        entry = self._by_key.get(key)
        if entry is None:
            return False
        entry.waiters += 1
        return True

    def release(self, key: str) -> bool:
        """Drop one waiter; ``True`` if the entry was withdrawn.

        An entry whose last waiter cancels while it still waits is
        removed from the queue and its future cancelled — nobody wants
        the result, so no slot runs it.  Once taken, the entry is out
        of :attr:`_by_key` and this is a no-op: running requests always
        complete (their results are cached for the retry the
        disconnected client will send).
        """
        entry = self._by_key.get(key)
        if entry is None:
            return False
        entry.waiters -= 1
        if entry.waiters > 0:
            return False
        del self._by_key[key]
        queue = self._queues[entry.tenant]
        queue.remove(entry)
        self._depth -= 1
        if not queue:
            self._retire(entry.tenant)
        if not entry.future.done():
            entry.future.cancel()
        if entry.eligible:
            obs.add({"fusion.cancelled": 1})
        self.metrics.inc("requests_withdrawn_total")
        return True

    # -- taking work --------------------------------------------------------
    def _retire(self, tenant: str) -> None:
        """Forget a tenant whose queue emptied (DRR forfeits its balance)."""
        del self._queues[tenant]
        self._deficit.pop(tenant, None)
        for rotation in (self._new, self._old):
            if tenant in rotation:
                rotation.remove(tenant)

    def _next_tenant(self) -> str:
        """One DRR turn: the tenant whose head request goes next."""
        for _ in range(len(self._new) + len(self._old)):
            tenant = (self._new or self._old).popleft()
            head = self._queues[tenant][0].cost
            credit = self._deficit.get(tenant, 0.0)
            # Credit only a head that does not fit: a take charges one
            # request, so crediting every turn would bank without bound.
            if head > credit:
                credit = self._deficit[tenant] = credit + self.quantum
            if head <= credit:
                return tenant
            self._old.append(tenant)
        # Progress guard: a request costlier than any deficit still goes
        # — the oldest head first, and its tenant starts from zero.
        oldest = min((q[0] for q in self._queues.values()), key=lambda e: e.seq)
        self._old.remove(oldest.tenant)
        self._deficit[oldest.tenant] = oldest.cost
        return oldest.tenant

    def _take(self) -> _Entry:
        """The next request: the head of the DRR-chosen tenant."""
        tenant = self._next_tenant()
        queue = self._queues[tenant]
        entry = queue.pop(0)
        self._deficit[tenant] -= entry.cost
        del self._by_key[entry.key]
        self._depth -= 1
        if queue:
            self._old.append(tenant)
        else:
            self._retire(tenant)
        return entry

    def _dispatch(self) -> None:
        """Fill every free slot with what is waiting."""
        while self._depth and len(self._runs) < self.concurrency:
            task = asyncio.get_running_loop().create_task(
                self._run(self._take())
            )
            self._runs.add(task)
            task.add_done_callback(self._settled)

    def _settled(self, task: "asyncio.Task[None]") -> None:
        """A request finished: its slot takes what is waiting."""
        self._runs.discard(task)
        self._dispatch()

    async def _run(self, entry: _Entry) -> None:
        started = time.monotonic()
        self.metrics.observe("queue_wait", started - entry.enqueued_at)
        if entry.eligible:
            obs.add(
                {"fusion.served_requests": 1.0,
                 "fusion.served_cost": entry.cost},
                tenant=entry.tenant,
            )
        try:
            payload = await self.executor.run(entry.request)
        except asyncio.CancelledError:
            if not entry.future.done():
                entry.future.cancel()
            raise
        except Exception as exc:  # noqa: BLE001 — surfaced via the future
            if entry.eligible:
                _note_executed(failed=True)
            self.metrics.inc(
                "jobs_failed_total", labels={"error": type(exc).__name__}
            )
            if not entry.future.done():
                entry.future.set_exception(exc)
        else:
            elapsed = time.monotonic() - started
            self.avg_exec = 0.8 * self.avg_exec + 0.2 * min(
                elapsed, _AVG_EXEC_SAMPLE_CAP
            )
            self.metrics.observe("execute", elapsed)
            self.metrics.inc("jobs_executed_total")
            if entry.eligible:
                _note_executed()
            if self.cache is not None:
                self.cache.put(entry.key, payload)
            if not entry.future.done():
                entry.future.set_result((payload, "miss"))
        finally:
            for hook in self.done_hooks:
                hook(entry.key)
