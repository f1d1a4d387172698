"""``repro-serve`` — run the arithmetic service from the command line.

Examples
--------
Serve on the default port, one worker process per queue slot::

    repro-serve --port 8777

Four slots with tighter admission control::

    repro-serve --concurrency 4 --max-queue 64 --timeout 30 --max-attempts 3

Everything in this process, on threads (one set of caches; the
trajectory walks then share one interpreter's GIL)::

    repro-serve --workers 0

Requests wait in one work-conserving queue: at most ``--concurrency``
requests run at once, and a free slot takes the next waiting request
at once.  ``--workers`` defaults to ``--concurrency``.

Tuning knobs also honour the environment: ``REPRO_RESULT_CACHE_MB``,
``REPRO_RESULT_CACHE_TTL``, ``REPRO_SERVICE_MAX_QUBITS``,
and ``REPRO_KERNEL_CACHE_MB`` (see docs/service.md).
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
        default=None,
        help="worker processes (default: one per --concurrency slot; "
        "0 = run requests on threads of this process)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="requests in flight at once (queue slots)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="requests waiting for a free slot before 429 backpressure",
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
    # Accepted and ignored: the queue has no hold window any more.
    parser.add_argument(
        "--fusion-window-ms", type=float, default=None, help=argparse.SUPPRESS
    )
    return parser


def parse_args(argv: Optional[list] = None) -> argparse.Namespace:
    """``repro-serve``'s arguments, ``--workers`` resolved."""
    args = build_parser().parse_args(argv)
    if args.workers is None:
        args.workers = args.concurrency
    return args


async def _serve(args: argparse.Namespace) -> int:
    from ..runtime.supervisor import RetryPolicy
    from .executor import SimulationExecutor
    from .server import ArithmeticService

    if args.fusion_window_ms is not None:
        print(
            "repro-serve: --fusion-window-ms is ignored (the queue has no "
            "hold window)",
            file=sys.stderr,
            flush=True,
        )

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
    )
    host, port = await service.start(args.host, args.port)
    print(
        f"repro-serve listening on http://{host}:{port} "
        f"(executor={executor.mode}, workers={executor.workers}, "
        f"concurrency={args.concurrency}, "
        f"max_queue={args.max_queue})",
        flush=True,
    )

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
        f"requests={sum(v for k, v in served.items() if k.startswith('http_requests_total'))})",
        flush=True,
    )
    return 0


def main(argv: Optional[list] = None) -> int:
    from ..runtime.blas import cap_blas_threads

    cap_blas_threads()
    args = parse_args(argv)
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
