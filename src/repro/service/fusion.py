"""The service's one queue: work-conserving, fused, multi-tenant.

The paper's workload at fleet scale is many near-identical requests —
the same QFA/QFM circuit family at different error rates — and
:mod:`repro.sim.batch` already fuses such work into shared state
buffers when it arrives as one call.  Every admitted request that is
not a result-cache hit or a coalesced duplicate waits here, and at most
``concurrency`` executor batches are in flight.  Whenever a slot is
free it takes what is waiting, at once — there is no hold timer:

* an idle server runs a request immediately, as a batch of one
  (through :meth:`SimulationExecutor.run`);
* a busy server batches whatever queued behind it: a freed slot takes
  the head chosen by the tenant rotation plus the waiting requests of
  that head's circuit family (from every tenant), as one
  :meth:`SimulationExecutor.run_batch` call capped at
  :data:`MAX_BATCH` requests.  Requests that cannot fuse
  (see :func:`repro.service.executor.fusion_eligible`) go alone.

Correctness contract: fusion is **bit-invisible per request**.  Every
request's task draws from its own ``(seed, content_key)`` stream in
the scheduler's fixed per-task order, so the counts a request receives
are identical whether it ran alone or fused with a hundred neighbours
— batch membership and chunk geometry never leak into results.

Fairness: the head of each take is chosen by deficit round robin (DRR)
over tenants.  A tenant's turn credits it :data:`QUANTUM`
cost units (cost = requested shots) and its head request goes when it
fits the tenant's deficit; a tenant whose queue was empty goes before
the tenants that stayed backlogged, so an interactive request waits
for the next free slot, not behind a sweep.  Within a tenant, order is
priority, then FIFO, and a take never mixes priority classes of one
tenant.  The head's tenant fills the take up to its deficit; every
other tenant's riders add at most what the head's tenant put in (and
one quantum), so a small interactive request never waits on large
sweep cells.  Every request in a take is charged to its own tenant's
deficit; a tenant that empties its queue forfeits its balance
(standard DRR), and a progress guard serves the oldest head when no
deficit suffices.

The waiting backlog is bounded by ``max_queue`` (``--max-queue``);
past it :class:`FusionSaturated` becomes HTTP 429 with ``Retry-After``.
The ``fusion.*`` counters of :func:`fusion_stats` count fusion-eligible
requests only, so the hit rate is the share of fusable requests that
shared a batch.
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

#: Requests per take (one executor batch).
MAX_BATCH = 64
#: DRR credit per tenant turn, in cost units (shots).
QUANTUM = 4096.0

#: Per-sample clamp feeding the execution-time EWMA: one pathological
#: batch (a hang that eventually returned, a cold compile) must not drag
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


def _note_batch(size: int, failed: bool = False) -> None:
    """Count one executed batch of ``size`` fusion-eligible requests."""
    obs.add({
        "fusion.batches": 1,
        "fusion.batch_requests": size,
        "fusion.executed": size,
        "fusion.fused_requests": size if size > 1 else 0,
        "fusion.failures": size if failed else 0,
    })


# ---------------------------------------------------------------------------
# The queue
# ---------------------------------------------------------------------------

class _Entry:
    """One waiting request."""

    __slots__ = (
        "request", "key", "tenant", "group", "priority", "cost", "future",
        "enqueued_at", "waiters", "seq",
    )

    def __init__(
        self,
        request: SimRequest,
        future: "asyncio.Future[Tuple[Dict[str, Any], str]]",
        seq: int,
        eligible: bool,
    ) -> None:
        self.request = request
        self.key = request.content_key()
        self.tenant = request.tenant
        # Coarse circuit-family proxy, None for requests that cannot
        # fuse; the batch executor regroups by the exact
        # CompiledProgram.fusion_key, so a proxy that over-merges costs
        # nothing and never contaminates results.
        self.group: Optional[tuple] = (
            (
                request.operation,
                request.n,
                request.m,
                request.depth,
                request.error_axis,
                request.convention,
            )
            if eligible
            else None
        )
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
    # after its batch started); retrieving the exception here keeps
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
        max_batch: Optional[int] = None,
        quantum: Optional[float] = None,
    ) -> None:
        self.executor = executor
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.cache = cache
        self.concurrency = max(
            1, executor.concurrency if concurrency is None else concurrency
        )
        self.max_queue = max_queue
        self.max_batch = MAX_BATCH if max_batch is None else int(max_batch)
        self.quantum = QUANTUM if quantum is None else float(quantum)
        #: Called with each entry's content key once its batch settles;
        #: the scheduler registers its inflight-map cleanup here.
        self.done_hooks: List[Callable[[str], None]] = []
        #: EWMA of batch execution seconds, seeds the Retry-After estimate.
        self.avg_exec = 0.05
        self._queues: Dict[str, List[_Entry]] = {}
        self._deficit: Dict[str, float] = {}
        # Tenant rotation: tenants whose queue was empty go first.
        self._new: Deque[str] = deque()
        self._old: Deque[str] = deque()
        self._by_key: Dict[str, _Entry] = {}
        self._depth = 0
        self._seq = 0
        self._slots_busy = 0
        self._running = 0
        self._batches: "Set[asyncio.Task[None]]" = set()

    # -- lifecycle --------------------------------------------------------
    async def stop(self) -> None:
        """Wait until every admitted request has run."""
        while self._batches:
            await asyncio.gather(*list(self._batches), return_exceptions=True)

    # -- introspection ----------------------------------------------------
    def depth(self) -> int:
        """Requests waiting for a slot."""
        return self._depth

    @property
    def running(self) -> int:
        """Requests inside executing batches."""
        return self._running

    @property
    def slots_in_use(self) -> int:
        return self._slots_busy

    def tenant_deficits(self) -> Dict[str, float]:
        """Live DRR deficits of the backlogged tenants."""
        return dict(sorted(self._deficit.items()))

    def retry_after(self) -> float:
        """Rough drain time of the current backlog, in [1, cap] seconds."""
        backlog = self._depth + self._slots_busy
        return min(
            _RETRY_AFTER_CAP,
            max(1.0, backlog * self.avg_exec / self.concurrency),
        )

    def describe(self) -> Dict[str, Any]:
        return {
            "concurrency": self.concurrency,
            "slots_in_use": self._slots_busy,
            "max_queue": self.max_queue,
            "max_batch": self.max_batch,
            "quantum": self.quantum,
            "pending": self._depth,
            "running": self._running,
            "tenant_pending": {
                t: len(q) for t, q in sorted(self._queues.items())
            },
            "tenant_deficits": self.tenant_deficits(),
        }

    # -- admission --------------------------------------------------------
    def enqueue(
        self, request: SimRequest
    ) -> "asyncio.Future[Tuple[Dict[str, Any], str]]":
        """Queue one request; resolves with ``(payload, source)``.

        ``source`` is ``"fused"`` when the request shared its batch and
        ``"miss"`` when it ran alone.  Raises :class:`FusionSaturated`
        when every slot is busy and the waiting bound is full.  The
        caller owns one waiter reference; coalescers add theirs via
        :meth:`retain` and everyone returns them via :meth:`release` on
        cancellation.
        """
        eligible = fusion_eligible(request)
        if (
            self._slots_busy >= self.concurrency
            and self._depth >= self.max_queue
        ):
            if eligible:
                obs.add({"fusion.rejected": 1})
            raise FusionSaturated(self._depth)
        future: "asyncio.Future[Tuple[Dict[str, Any], str]]" = (
            asyncio.get_running_loop().create_future()
        )
        future.add_done_callback(_consume_exception)
        self._seq += 1
        entry = _Entry(request, future, self._seq, eligible)
        queue = self._queues.get(entry.tenant)
        if queue is None:
            queue = self._queues[entry.tenant] = []
            self._new.append(entry.tenant)
        bisect.insort(queue, entry)
        self._by_key[entry.key] = entry
        self._depth += 1
        if eligible:
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
        the result, so no batch carries it.  Once taken, the entry is
        out of :attr:`_by_key` and this is a no-op: running batches
        always complete (their results are cached for the retry the
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
        if entry.group is not None:
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
            credit = self._deficit.get(tenant, 0.0) + self.quantum
            self._deficit[tenant] = credit
            if self._queues[tenant][0].cost <= credit:
                return tenant
            self._old.append(tenant)
        # Progress guard: a request costlier than any deficit still goes
        # — the oldest head first, and its tenant starts from zero.
        oldest = min((q[0] for q in self._queues.values()), key=lambda e: e.seq)
        self._old.remove(oldest.tenant)
        self._deficit[oldest.tenant] = oldest.cost
        return oldest.tenant

    def _take(self) -> List[_Entry]:
        """The next batch: a DRR-chosen head plus its family's riders."""
        tenant = self._next_tenant()
        head = self._queues[tenant][0]
        taken = [head]
        if head.group is not None:
            # The head's tenant fills the take up to its deficit; every
            # other tenant rides with at most what the head's tenant put
            # in (and one quantum), so a small request never waits on
            # large ones.
            self._add_riders(tenant, self._deficit[tenant] - head.cost, taken)
            share = min(self.quantum, sum(entry.cost for entry in taken))
            for other in (*self._new, *self._old):
                self._add_riders(other, share, taken)
        for entry in taken:
            queue = self._queues[entry.tenant]
            queue.remove(entry)
            self._deficit[entry.tenant] = (
                self._deficit.get(entry.tenant, 0.0) - entry.cost
            )
            del self._by_key[entry.key]
        self._depth -= len(taken)
        for t in {entry.tenant for entry in taken}:
            if not self._queues[t]:
                self._retire(t)
        if tenant in self._queues:
            self._old.append(tenant)
        return taken

    def _add_riders(
        self, tenant: str, budget: float, taken: List[_Entry]
    ) -> None:
        """Append ``tenant``'s waiting entries of the head's family, in
        its top priority class, while they fit ``budget`` and the cap."""
        head = taken[0]
        queue = self._queues[tenant]
        priority = queue[0].priority
        for entry in queue:
            if len(taken) >= self.max_batch:
                return
            if entry is head or entry.priority != priority:
                continue
            if entry.group != head.group or entry.cost > budget:
                continue
            budget -= entry.cost
            taken.append(entry)

    def _dispatch(self) -> None:
        """Fill every free slot with what is waiting."""
        while self._depth and self._slots_busy < self.concurrency:
            entries = self._take()
            self._slots_busy += 1
            self._running += len(entries)
            task = asyncio.get_running_loop().create_task(self._run(entries))
            self._batches.add(task)
            task.add_done_callback(self._settled)

    def _settled(self, task: "asyncio.Task[None]") -> None:
        """A batch finished: its slot takes what is waiting."""
        self._batches.discard(task)
        self._slots_busy -= 1
        self._dispatch()

    async def _run(self, entries: List[_Entry]) -> None:
        started = time.monotonic()
        for entry in entries:
            self.metrics.observe("queue_wait", started - entry.enqueued_at)
            if entry.group is not None:
                obs.add(
                    {"fusion.served_requests": 1.0,
                     "fusion.served_cost": entry.cost},
                    tenant=entry.tenant,
                )
        fusable = entries[0].group is not None
        try:
            if len(entries) == 1:
                results = [await self.executor.run(entries[0].request)]
            else:
                results = await self.executor.run_batch(
                    [entry.request for entry in entries]
                )
        except asyncio.CancelledError:
            for entry in entries:
                if not entry.future.done():
                    entry.future.cancel()
            raise
        except Exception as exc:  # noqa: BLE001 — surfaced via futures
            if fusable:
                _note_batch(len(entries), failed=True)
            self.metrics.inc(
                "jobs_failed_total",
                len(entries),
                labels={"error": type(exc).__name__},
            )
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_exception(exc)
        else:
            elapsed = time.monotonic() - started
            self.avg_exec = 0.8 * self.avg_exec + 0.2 * min(
                elapsed, _AVG_EXEC_SAMPLE_CAP
            )
            self.metrics.observe("execute", elapsed)
            self.metrics.inc("jobs_executed_total", len(entries))
            if fusable:
                _note_batch(len(entries))
            source = "fused" if len(entries) > 1 else "miss"
            for entry, payload in zip(entries, results):
                if self.cache is not None:
                    self.cache.put(entry.key, payload)
                if not entry.future.done():
                    entry.future.set_result((payload, source))
        finally:
            self._running -= len(entries)
            for entry in entries:
                for hook in self.done_hooks:
                    hook(entry.key)
