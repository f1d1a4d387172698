#!/usr/bin/env python
"""CI parity check for the runtime determinism sanitizer.

Runs the same workload through execution tiers that the determinism
contract promises are interchangeable, with ``REPRO_SANITIZER``
tracing on, and cross-compares the portable trace stages
(``counts``/``task``/``point`` — see :mod:`repro.runtime.sanitizer`):
the service executor thread tier (``workers=0``) vs process tier
(``workers=2``) — worker events ride home on the result payload and
must match the in-process trace exactly.

Exits non-zero on any divergence — this is the ``sanitizer-parity``
CI lane (the dynamic complement of ``repro-arith audit``'s DET rules).
"""

from __future__ import annotations

import asyncio
import sys
from typing import List, Tuple


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def _executor_trace(workers: int) -> Tuple[str, List[object]]:
    """Portable-trace digest of four requests through one executor tier."""
    from repro.runtime import sanitizer
    from repro.service.executor import SimulationExecutor
    from repro.service.model import SimRequest

    requests = [
        SimRequest.from_dict(dict(
            operation="add", n=2, m=3, x=[1, 2], y=[y],
            shots=128, seed=20220131, error_axis="2q",
            error_rate=rate, trajectories=8,
        ))
        for y in (3, 5)
        for rate in (0.0, 0.002)
    ]

    async def drive() -> List[object]:
        executor = SimulationExecutor(workers=workers)
        try:
            return list(await asyncio.gather(
                *(executor.run(r) for r in requests)
            ))
        finally:
            executor.shutdown()

    sanitizer.clear_trace()
    results = asyncio.run(drive())
    return sanitizer.trace_digest(sanitizer.trace_events()), results


def main() -> int:
    from repro.runtime import sanitizer

    sanitizer.force(True)
    try:
        thread_digest, thread_results = _executor_trace(0)
        process_digest, process_results = _executor_trace(2)
        if thread_digest != process_digest:
            fail("executor thread vs process traces diverge")
        t_counts = [r["counts"] for r in thread_results]
        p_counts = [r["counts"] for r in process_results]
        if t_counts != p_counts:
            fail("executor thread vs process counts diverge")
        print(f"[parity] executor thread == process over "
              f"{len(thread_results)} requests: digest {thread_digest[:16]}")
    finally:
        sanitizer.force(None)
        sanitizer.clear_trace()

    print("[parity] PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
