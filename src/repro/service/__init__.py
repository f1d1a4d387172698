"""Quantum-arithmetic-as-a-service: the online serving layer.

The batch harness (:mod:`repro.experiments`) evaluates the paper's
figure grids; this package exposes the same execution stack — compiled
programs, the two-level compile cache, the kernel cache, and the
runtime retry/timeout semantics — as a long-lived asyncio service:

* :mod:`repro.service.model` — typed, schema-validated request /
  response model with per-request deterministic seeding;
* :mod:`repro.service.cache` — content-addressed result cache with a
  TTL and byte budget (``REPRO_RESULT_CACHE_MB`` /
  ``REPRO_RESULT_CACHE_TTL``), mirroring the kernel cache's LRU;
* :mod:`repro.service.scheduler` — the front door: result-cache hits,
  **request coalescing** (concurrent identical requests collapse into
  one simulation) and admission control with 429 backpressure;
* :mod:`repro.service.fusion` — the one work-conserving queue: at most
  ``concurrency`` requests in flight, and a free slot takes the next
  request at once, chosen by deficit round robin over tenants;
* :mod:`repro.service.executor` — the worker tier (in-process threads
  or a process pool) reusing
  :func:`repro.experiments.runner.build_compiled_program` and the
  supervisor's retry ladder;
* :mod:`repro.service.server` — asyncio-streams HTTP/JSON server with
  ``/v1/simulate``, ``/v1/sweep`` (chunked JSON-lines streaming),
  ``/healthz``, ``/stats`` and Prometheus-text ``/metrics`` endpoints;
* :mod:`repro.service.client` — a blocking Python client (including
  the streaming :meth:`~repro.service.client.ServiceClient.submit_sweep`
  iterator with Retry-After-honouring resume);
* ``repro-serve`` — the console entry point
  (:mod:`repro.service.__main__`).

See ``docs/service.md`` for the protocol and tuning knobs.
"""

from .cache import ResultCache
from .client import (
    BackpressureError,
    RequestRejected,
    ServiceClient,
    ServiceError,
)
from .client import SweepPartial
from .executor import SimulationExecutor, fusion_eligible
from .fusion import FusionGate, fusion_stats, reset_fusion_stats
from .metrics import LatencyHistogram, ServiceMetrics
from .model import (
    RequestValidationError,
    SimRequest,
    SimResponse,
    SweepRequest,
)
from .scheduler import AdmissionError, JobScheduler
from .server import ArithmeticService, ServerThread
from .stats import cache_stats_snapshot, render_cache_stats

__all__ = [
    "AdmissionError",
    "ArithmeticService",
    "BackpressureError",
    "FusionGate",
    "JobScheduler",
    "LatencyHistogram",
    "RequestRejected",
    "RequestValidationError",
    "ResultCache",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "SimRequest",
    "SimResponse",
    "SimulationExecutor",
    "SweepPartial",
    "SweepRequest",
    "cache_stats_snapshot",
    "fusion_eligible",
    "fusion_stats",
    "render_cache_stats",
    "reset_fusion_stats",
]
