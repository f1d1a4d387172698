"""Cross-request fusion gate: micro-batched multi-tenant execution.

The paper's workload at fleet scale is thousands of near-identical
sweep requests — the same QFA/QFM circuit family at different error
rates — and :mod:`repro.sim.batch` already fuses such work into shared
state buffers when it arrives as one call.  This module closes the gap
at the service front door: eligible requests (see
:func:`repro.service.executor.fusion_eligible`) are *held* for a
bounded window instead of dispatched individually, then executed as
one :func:`repro.sim.batch.run_request_tasks` pass per circuit-family
group, so concurrent tenants share chunks, kernel caches, and
error-configuration dedup.

Correctness contract: fusion is **bit-invisible per request**.  Every
request's task draws from its own ``(seed, content_key)`` stream in
the scheduler's fixed per-task order, so the counts a request receives
are identical whether it ran alone (a batch of one) or fused with a
hundred neighbours — batch membership and chunk geometry never
leak into results.  The sanitizer-trace parity tests pin this.

Fairness: admission into a flush is deficit-round-robin (DRR) over
tenants.  Each flush credits every backlogged tenant ``quantum``
cost units (cost = requested shots) and serves head-of-line requests
while their cost fits the tenant's accumulated deficit — so a tenant
spraying thousand-cell sweeps gets throughput proportional to its
share, not to its queue depth, and interactive single-shot tenants
keep their latency.  A tenant that empties its queue forfeits its
residual deficit (standard DRR), and a progress guard always serves
the globally oldest request when no deficit suffices.

Scheduling knobs (env, read at construction; ctor args override):

* ``REPRO_FUSION_WINDOW_MS``  — hold window in ms; ``0`` (default)
  disables the gate entirely (knobs-off byte-parity with PR 4).
* ``REPRO_FUSION_MIN_BATCH``  — early-flush once any group has this
  many pending requests (default 8).
* ``REPRO_FUSION_MAX_BATCH``  — per-flush request cap (default 64).
* ``REPRO_FUSION_QUANTUM``    — DRR credit per tenant per flush, in
  shots (default 4096).
* ``REPRO_FUSION_MAX_PENDING`` — gate backlog bound; beyond it
  :class:`FusionSaturated` maps to HTTP 429 (default 1024).

The gate holds *eligible* work only and is deliberately **not**
counted against the scheduler's interactive backlog: a deep fusion
queue must not starve admission of one-off requests that bypass it.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..runtime import obs
from ..runtime.envutil import env_float, env_int
from .cache import ResultCache
from .executor import SimulationExecutor
from .metrics import ServiceMetrics
from .model import SimRequest

__all__ = [
    "FusionGate",
    "FusionSaturated",
    "fusion_stats",
    "reset_fusion_stats",
]


class FusionSaturated(Exception):
    """The fusion gate's pending bound is full — back off."""

    def __init__(self, depth: int) -> None:
        super().__init__(f"fusion gate full ({depth} pending)")
        self.depth = depth


# ---------------------------------------------------------------------------
# Process-wide stats (mirrored by /stats and repro-arith cache-stats)
# ---------------------------------------------------------------------------

def fusion_stats() -> Dict[str, Any]:
    """Process-wide cumulative fusion-gate statistics."""
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
    """Count one executed batch of ``size`` requests."""
    obs.add({
        "fusion.batches": 1,
        "fusion.batch_requests": size,
        "fusion.executed": size,
        "fusion.fused_requests": size if size > 1 else 0,
        "fusion.failures": size if failed else 0,
    })


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------

class _Entry:
    """One pending request inside the gate."""

    __slots__ = (
        "request", "key", "tenant", "group", "cost", "future",
        "enqueued_at", "waiters", "seq",
    )

    def __init__(
        self,
        request: SimRequest,
        key: str,
        future: "asyncio.Future[Dict[str, Any]]",
        seq: int,
    ) -> None:
        self.request = request
        self.key = key
        self.tenant = request.tenant
        # Coarse circuit-family proxy; the scheduler regroups by the
        # exact CompiledProgram.fusion_key internally, so a proxy that
        # over-merges costs nothing and never contaminates results.
        self.group = (
            request.operation,
            request.n,
            request.m,
            request.depth,
            request.error_axis,
            request.convention,
        )
        self.cost = float(max(1, request.shots))
        self.future = future
        self.enqueued_at = time.monotonic()
        self.waiters = 1
        self.seq = seq


def _consume_exception(future: "asyncio.Future[Dict[str, Any]]") -> None:
    # Results may outlive their waiters (a client that disconnected
    # after flush); retrieving the exception here keeps asyncio's
    # "exception was never retrieved" warning out of the logs.
    if not future.cancelled():
        future.exception()


class FusionGate:
    """Holds eligible requests briefly, flushes them as fused batches.

    All state lives on the event loop (no locks); the only cross-thread
    artefacts are the process-wide ``fusion.*`` counters of
    :mod:`repro.runtime.obs`.  See the
    module docstring for the scheduling policy.
    """

    def __init__(
        self,
        executor: SimulationExecutor,
        metrics: Optional[ServiceMetrics] = None,
        cache: Optional[ResultCache] = None,
        window_ms: Optional[float] = None,
        min_batch: Optional[int] = None,
        max_batch: Optional[int] = None,
        quantum: Optional[float] = None,
        max_pending: Optional[int] = None,
    ) -> None:
        self.executor = executor
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.cache = cache
        self.window_ms = (
            env_float("REPRO_FUSION_WINDOW_MS", 0.0, minimum=0.0)
            if window_ms is None
            else float(window_ms)
        )
        self.min_batch = (
            env_int("REPRO_FUSION_MIN_BATCH", 8, minimum=1)
            if min_batch is None
            else int(min_batch)
        )
        self.max_batch = (
            env_int("REPRO_FUSION_MAX_BATCH", 64, minimum=1)
            if max_batch is None
            else int(max_batch)
        )
        self.quantum = (
            env_float("REPRO_FUSION_QUANTUM", 4096.0, minimum=1.0)
            if quantum is None
            else float(quantum)
        )
        self.max_pending = (
            env_int("REPRO_FUSION_MAX_PENDING", 1024, minimum=1)
            if max_pending is None
            else int(max_pending)
        )
        #: Called with each entry's content key once its batch settles;
        #: the scheduler registers its inflight-map cleanup here.
        self.done_hooks: List[Callable[[str], None]] = []
        self._queues: Dict[str, Deque[_Entry]] = {}
        self._deficit: Dict[str, float] = {}
        self._by_key: Dict[str, _Entry] = {}
        self._group_counts: Dict[tuple, int] = {}
        self._depth = 0
        self._seq = 0
        self._draining = False
        self._wake: Optional[asyncio.Event] = None
        self._task: Optional["asyncio.Task[None]"] = None
        self._group_tasks: "set[asyncio.Task[None]]" = set()

    @property
    def enabled(self) -> bool:
        """The gate only engages with a positive hold window."""
        return self.window_ms > 0.0

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Spawn the flush loop (call from inside the event loop)."""
        if self._task is not None or not self.enabled:
            return
        self._wake = asyncio.Event()
        self._task = asyncio.create_task(
            self._loop(), name="repro-fusion-gate"
        )

    def close(self) -> None:
        """Stop holding windows: everything pending flushes at once."""
        self._draining = True
        if self._wake is not None:
            self._wake.set()

    async def stop(self) -> None:
        """Cancel the flush loop, flush leftovers, await open batches."""
        self._draining = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while self._depth:
            self._flush()
        pending = list(self._group_tasks)
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    # -- introspection ----------------------------------------------------
    def depth(self) -> int:
        return self._depth

    def tenant_deficits(self) -> Dict[str, float]:
        """Live DRR deficits (cost units each backlogged tenant holds)."""
        return dict(sorted(self._deficit.items()))

    def describe(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "window_ms": self.window_ms,
            "min_batch": self.min_batch,
            "max_batch": self.max_batch,
            "quantum": self.quantum,
            "max_pending": self.max_pending,
            "pending": self._depth,
            "pending_groups": sum(
                1 for c in self._group_counts.values() if c
            ),
            "tenant_pending": {
                t: len(q) for t, q in sorted(self._queues.items()) if q
            },
            "tenant_deficits": self.tenant_deficits(),
        }

    # -- admission --------------------------------------------------------
    def enqueue(self, request: SimRequest) -> "asyncio.Future[Dict[str, Any]]":
        """Queue one eligible request; resolves with its result payload.

        Raises :class:`FusionSaturated` past the pending bound.  The
        caller owns one waiter reference; coalescers add theirs via
        :meth:`retain` and everyone returns them via :meth:`release`
        on cancellation.
        """
        if self._depth >= self.max_pending:
            obs.add({"fusion.rejected": 1})
            self.metrics.inc("fusion_rejected_total")
            raise FusionSaturated(self._depth)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        future.add_done_callback(_consume_exception)
        self._seq += 1
        entry = _Entry(request, request.content_key(), future, self._seq)
        self._queues.setdefault(entry.tenant, deque()).append(entry)
        self._by_key[entry.key] = entry
        self._group_counts[entry.group] = (
            self._group_counts.get(entry.group, 0) + 1
        )
        self._depth += 1
        obs.add({"fusion.admitted": 1})
        self.metrics.inc("fusion_requests_total")
        if self._wake is not None:
            self._wake.set()
        return future

    def retain(self, key: str) -> bool:
        """Add one waiter to a *pending* entry (coalesced duplicate)."""
        entry = self._by_key.get(key)
        if entry is None:
            return False
        entry.waiters += 1
        return True

    def release(self, key: str) -> bool:
        """Drop one waiter; ``True`` if the entry was abandoned.

        An entry whose last waiter cancels *before* its flush is
        removed from the queue and its future cancelled — nobody wants
        the result, so the batch must not carry it.  Post-flush the
        entry is out of :attr:`_by_key` and this is a no-op: running
        batches always complete (their results are cached for the
        retry the disconnected client will send).
        """
        entry = self._by_key.get(key)
        if entry is None:
            return False
        entry.waiters -= 1
        if entry.waiters > 0:
            return False
        self._by_key.pop(key, None)
        self._forget(entry)
        queue = self._queues.get(entry.tenant)
        if queue is not None:
            try:
                queue.remove(entry)
            except ValueError:
                pass
            if not queue:
                self._queues.pop(entry.tenant, None)
                self._deficit.pop(entry.tenant, None)
        if not entry.future.done():
            entry.future.cancel()
        obs.add({"fusion.cancelled": 1})
        self.metrics.inc("fusion_cancelled_total")
        return True

    def _forget(self, entry: _Entry) -> None:
        self._depth -= 1
        count = self._group_counts.get(entry.group, 0) - 1
        if count > 0:
            self._group_counts[entry.group] = count
        else:
            self._group_counts.pop(entry.group, None)

    # -- flush policy -----------------------------------------------------
    def _flush_due(self) -> bool:
        if self._draining:
            return True
        if self._depth >= self.max_batch:
            return True
        return any(
            c >= self.min_batch for c in self._group_counts.values()
        )

    async def _loop(self) -> None:
        assert self._wake is not None
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._depth == 0:
                continue
            deadline = time.monotonic() + self.window_ms / 1000.0
            while not self._flush_due():
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    break
                try:
                    await asyncio.wait_for(self._wake.wait(), remaining)
                except asyncio.TimeoutError:
                    break
                self._wake.clear()
            self._flush()
            if self._depth and self._wake is not None:
                # Leftovers past the per-flush cap open the next window.
                self._wake.set()

    def _select(self) -> List[_Entry]:
        """One DRR round: credit every backlogged tenant, serve heads."""
        popped: List[_Entry] = []
        tenants = sorted(t for t, q in self._queues.items() if q)
        for tenant in tenants:
            queue = self._queues[tenant]
            if not queue:
                continue
            self._deficit[tenant] = (
                self._deficit.get(tenant, 0.0) + self.quantum
            )
            while (
                queue
                and len(popped) < self.max_batch
                and queue[0].cost <= self._deficit[tenant]
            ):
                entry = queue.popleft()
                self._deficit[tenant] -= entry.cost
                popped.append(entry)
            if not queue:
                # Standard DRR: an emptied queue forfeits its residue
                # (deficits only accumulate while work is waiting).
                self._queues.pop(tenant, None)
                self._deficit.pop(tenant, None)
        if not popped and self._depth:
            # Progress guard: a request costlier than any accumulated
            # deficit still gets served — oldest first, and the lucky
            # tenant pays by forfeiting its deficit.
            oldest = min(
                (q[0] for q in self._queues.values() if q),
                key=lambda e: e.seq,
            )
            self._queues[oldest.tenant].remove(oldest)
            if not self._queues[oldest.tenant]:
                self._queues.pop(oldest.tenant, None)
            self._deficit.pop(oldest.tenant, None)
            popped.append(oldest)
        return popped

    def _flush(self) -> None:
        selected = self._select()
        if not selected:
            return
        now = time.monotonic()
        groups: Dict[tuple, List[_Entry]] = {}
        for entry in selected:
            self._by_key.pop(entry.key, None)
            self._forget(entry)
            self.metrics.observe(
                "fusion_window_wait", now - entry.enqueued_at
            )
            obs.add(
                {"fusion.served_requests": 1.0, "fusion.served_cost": entry.cost},
                tenant=entry.tenant,
            )
            groups.setdefault(entry.group, []).append(entry)
        for entries in groups.values():
            task = asyncio.create_task(self._run_group(entries))
            self._group_tasks.add(task)
            task.add_done_callback(self._group_tasks.discard)

    async def _run_group(self, entries: List[_Entry]) -> None:
        requests = [entry.request for entry in entries]
        try:
            results = await self.executor.run_batch(requests)
        except asyncio.CancelledError:
            for entry in entries:
                if not entry.future.done():
                    entry.future.cancel()
            raise
        except Exception as exc:  # noqa: BLE001 — surfaced via futures
            _note_batch(len(entries), failed=True)
            self.metrics.inc(
                "fusion_batches_failed_total",
                labels={"error": type(exc).__name__},
            )
            for entry in entries:
                if not entry.future.done():
                    entry.future.set_exception(exc)
        else:
            _note_batch(len(entries))
            self.metrics.inc("fusion_batches_total")
            for entry, payload in zip(entries, results):
                if self.cache is not None:
                    self.cache.put(entry.key, payload)
                if not entry.future.done():
                    entry.future.set_result(payload)
        finally:
            for entry in entries:
                for hook in self.done_hooks:
                    hook(entry.key)
