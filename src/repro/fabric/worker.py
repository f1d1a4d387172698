"""``repro-fabric-worker`` — a dedicated fabric worker process.

A thin specialisation of ``repro-serve``: the same
:class:`~repro.service.server.ArithmeticService` (so ``/healthz``,
``/stats`` and ``/metrics`` all work), tuned for unit execution and
wired for fleet membership:

* ``--registry workers.txt`` self-registers the bound address once
  listening — start N workers against one registry file and point the
  coordinator at it (``repro-arith sweep --fabric workers.txt``).
* ``--kill-after-units N`` arms the chaos harness's real process kill:
  the Nth received unit ``os._exit``\\ s the worker mid-request, for
  end-to-end tests of coordinator reassignment against an actual dead
  process rather than a simulated one.
* SIGTERM/SIGINT drain gracefully: in-flight units finish (up to
  ``--drain-timeout``) before the process exits.

Example — a two-worker local fleet::

    repro-fabric-worker --registry /tmp/fleet.txt &
    repro-fabric-worker --registry /tmp/fleet.txt &
    repro-arith sweep --fabric /tmp/fleet.txt ...
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
        prog="repro-fabric-worker",
        description="Distributed-sweep fabric worker: executes work "
        "units dispatched by a sweep coordinator.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="port to bind (0 = ephemeral, the default — use --registry "
        "so the coordinator learns the bound port)",
    )
    parser.add_argument(
        "--registry", default=None,
        help="registry file to append this worker's host:port to once "
        "listening",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=1,
        help="work units executing concurrently (default 1)",
    )
    parser.add_argument(
        "--kill-after-units", type=int, default=None,
        help="chaos hook: os._exit on receiving the Nth work unit, "
        "before responding (simulates a worker crash mid-unit)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to let in-flight units finish on shutdown",
    )
    return parser


async def _serve(args: argparse.Namespace) -> int:
    from ..service.server import ArithmeticService
    from ..service.work import WorkHandler

    service = ArithmeticService(
        work=WorkHandler(
            max_inflight=args.max_inflight,
            kill_after_units=args.kill_after_units,
        ),
    )
    host, port = await service.start(args.host, args.port)
    print(
        f"repro-fabric-worker listening on http://{host}:{port} "
        f"(max_inflight={args.max_inflight})",
        flush=True,
    )
    if args.registry:
        from .registry import WorkerRegistry

        WorkerRegistry(args.registry).register(host, port)
        print(
            f"repro-fabric-worker: registered {host}:{port} in "
            f"{args.registry}",
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
    print("repro-fabric-worker: draining...", flush=True)
    await service.shutdown(drain=True, timeout=args.drain_timeout)
    serve_task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await serve_task
    final = service.final_stats or {}
    print(
        "repro-fabric-worker: bye "
        f"(units={final.get('work', {}).get('units_completed', 0)})",
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
