"""Helpers shared by the workloads: statistics, memory, run outcome."""

from __future__ import annotations

import math
import os
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is repeated this many times per run and ``setup_s`` is the
#: median: set-up is short, so one sample is at the mercy of the host.
#: Three, not more: the repeats share the run's time with the measured
#: window (a server start costs ``service-mix`` about 1.4 s), and 22
#: runs of each workload must fit the benchmark's time cap.
SETUP_REPEATS = 3


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: the caller's, plus ``src`` on the path."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    # A failed request's latency is inf; keep inf - inf and inf * 0 out.
    if pos == lo or ordered[hi] == ordered[lo]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's samples.

    The quartiles are ``statistics.quantiles(values, n=4)`` (its default
    "exclusive" method), the definition every spread in this benchmark
    and its calibration uses.
    """
    if len(values) < 2:
        q1 = q3 = values[0] if values else math.nan
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values) if values else math.nan,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)

    def fail(self, messages: List[str], ops: int) -> None:
        """Record check failures that spoiled ``ops`` operations."""
        self.errors.extend(messages)
        self.failed += ops


def counter_metrics(counts: Dict[str, float], lowerings: float, binds: float,
                    ops: int) -> Dict[str, float]:
    """Per-layer numbers from process counters.

    ``counts`` are deltas over the traced window (see
    ``trace.CELL_COUNTERS``), divided here by ``ops``; ``lowerings`` and
    ``binds`` are the compile-cache totals after the traced set-up.
    """
    per_op = 1.0 / max(1, ops)
    hits, misses = counts["kernel_hits"], counts["kernel_misses"]
    rows = counts["batch_rows"]
    return {
        "program.lowerings": float(lowerings),
        "program.binds": float(binds),
        "program.kernel_hits": hits * per_op,
        "program.kernel_misses": misses * per_op,
        "program.kernel_evictions": counts["kernel_evictions"] * per_op,
        "program.kernel_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "program.kernel_mb": counts["kernel_bytes"] / 2**20,
        "batch.tasks": counts["batch_tasks"] * per_op,
        "batch.rows_simulated": rows * per_op,
        "batch.trajectories_sampled": counts["batch_sampled"] * per_op,
        "batch.dedup_ratio": counts["batch_sampled"] / rows if rows else 0.0,
        "cut.fragments_compiled": counts["cut_fragments_compiled"] * per_op,
        "cut.variants_evaluated": counts["cut_variants_evaluated"] * per_op,
        "cut.jobs_local": counts["cut_jobs_local"] * per_op,
        "cut.jobs_pool": counts["cut_jobs_pool"] * per_op,
    }
