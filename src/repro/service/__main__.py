"""``repro-serve`` — run the arithmetic service from the command line.

Examples
--------
Serve on the default port with in-process execution::

    repro-serve --port 8777

A process-pool deployment with tighter admission control::

    repro-serve --workers 4 --max-queue 64 --timeout 30 --max-attempts 3

Enable cross-request fusion (hold eligible requests up to 25 ms and
execute them as shared micro-batches)::

    repro-serve --fusion-window-ms 25

Tuning knobs also honour the environment: ``REPRO_RESULT_CACHE_MB``,
``REPRO_RESULT_CACHE_TTL``, ``REPRO_SERVICE_MAX_QUBITS``,
``REPRO_KERNEL_CACHE_MB``, and the fusion tier's
``REPRO_FUSION_WINDOW_MS`` / ``REPRO_FUSION_MIN_BATCH`` /
``REPRO_FUSION_MAX_BATCH`` / ``REPRO_FUSION_QUANTUM`` /
``REPRO_FUSION_MAX_PENDING`` (see docs/service.md).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from typing import Optional


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Quantum-arithmetic-as-a-service: asyncio HTTP server "
        "over the compiled-program execution stack.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8777)
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-pool workers (0 = in-process threads, the default)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="simulations in flight at once (queue pump width)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="jobs waiting beyond running capacity before 429 backpressure",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-attempt execution timeout in seconds (default: none)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=2,
        help="execution attempts per request before 500",
    )
    parser.add_argument(
        "--no-lint",
        action="store_true",
        help="skip the static-analysis admission gate",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to let the queue drain on shutdown",
    )
    parser.add_argument(
        "--registry",
        default=None,
        help="fabric registry file to self-register this worker's "
        "host:port in once listening (see docs/distributed.md)",
    )
    parser.add_argument(
        "--fusion-window-ms",
        type=float,
        default=None,
        help="hold eligible requests this long and execute them as "
        "fused micro-batches (0/unset = per-request execution; "
        "defaults to REPRO_FUSION_WINDOW_MS)",
    )
    parser.add_argument(
        "--fusion-min-batch",
        type=int,
        default=None,
        help="flush a fusion group early once it holds this many "
        "requests (defaults to REPRO_FUSION_MIN_BATCH)",
    )
    return parser


async def _serve(args: argparse.Namespace) -> int:
    from ..runtime.supervisor import RetryPolicy
    from .executor import SimulationExecutor
    from .fusion import FusionGate
    from .server import ArithmeticService

    executor = SimulationExecutor(
        workers=args.workers,
        concurrency=args.concurrency,
        retry=RetryPolicy(max_attempts=args.max_attempts, timeout=args.timeout),
    )
    service = ArithmeticService(
        executor=executor,
        max_queue=args.max_queue,
        concurrency=args.concurrency,
        lint_requests=not args.no_lint,
        fusion=FusionGate(
            executor,
            window_ms=args.fusion_window_ms,
            min_batch=args.fusion_min_batch,
        ),
    )
    host, port = await service.start(args.host, args.port)
    print(
        f"repro-serve listening on http://{host}:{port} "
        f"(executor={executor.mode}, concurrency={args.concurrency}, "
        f"max_queue={args.max_queue})",
        flush=True,
    )
    if args.registry:
        from ..fabric.registry import WorkerRegistry

        WorkerRegistry(args.registry).register(host, port)
        print(f"repro-serve: registered {host}:{port} in {args.registry}",
              flush=True)

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(sig, stop.set)

    serve_task = asyncio.create_task(service.serve_forever())
    stop_task = asyncio.create_task(stop.wait())
    await asyncio.wait(
        {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
    )
    print("repro-serve: draining...", flush=True)
    await service.shutdown(drain=True, timeout=args.drain_timeout)
    serve_task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await serve_task
    executor.shutdown()
    final = service.final_stats or {}
    served = final.get("metrics", {}).get("counters", {})
    print(
        "repro-serve: bye "
        f"(uptime={final.get('uptime_seconds', 0.0):.1f}s, "
        f"work_units={final.get('work', {}).get('units_completed', 0)}, "
        f"requests={sum(v for k, v in served.items() if k.startswith('http_requests_total'))})",
        flush=True,
    )
    return 0


def main(argv: Optional[list] = None) -> int:
    from ..runtime.blas import cap_blas_threads

    cap_blas_threads()
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 130


def _entry() -> int:
    """Console-script entry point with SIGPIPE-friendly exit."""
    try:
        return main()
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(_entry())
