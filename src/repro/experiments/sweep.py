"""Grid sweeps over (error rate, depth) with fault-tolerant execution.

A panel sweep is embarrassingly parallel over its cells.  Cells run
under the :class:`~repro.runtime.supervisor.Supervisor`: each is
submitted to the process pool individually, transient failures retry
with exponential backoff, hung cells time out, a broken pool is
respawned (degrading to in-process serial execution if it keeps
breaking), and each completed cell is appended to an optional
checkpoint journal the moment it finishes, so an interrupted sweep
resumes where it stopped.

Failure is *partial*: a cell that exhausts its retries becomes a
structured :class:`FailedCell` record on the :class:`SweepResult`
instead of sinking the whole sweep — the remaining panel still renders
and serialises.  Determinism is unaffected by any of this: every cell
seeds its own RNG stream from ``(config.seed, rate, depth)``, so a
resumed, retried, or serially-degraded sweep is bit-for-bit identical
to an uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..runtime import (
    CheckpointJournal,
    FaultPlan,
    RetryPolicy,
    Supervisor,
    config_fingerprint,
    inject,
)
from ..runtime import sanitizer
from ..sim.backend import dtype_tag, resolve_complex_dtype
from .config import SweepConfig
from .instances import ArithmeticInstance, generate_instances
from .runner import (
    PointResult,
    build_compiled_program,
    check_point_health as _check_point_health,
    poison_point as _poison_point,
    run_point,
)
from .serialize import depth_to_json, point_from_dict, point_to_dict

__all__ = [
    "SweepResult",
    "FailedCell",
    "run_sweep",
    "default_workers",
    "sweep_fingerprint",
]

CellKey = Tuple[float, Optional[int]]

def default_workers() -> int:
    """Worker processes to use: cpu_count - 1, at least 1."""
    return max(1, (os.cpu_count() or 1) - 1)


@dataclass(frozen=True)
class FailedCell:
    """One (error_rate, depth) cell that exhausted the recovery ladder."""

    error_rate: float
    depth: Optional[int]
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    retryable: bool = False

    @property
    def key(self) -> CellKey:
        return (self.error_rate, self.depth)

    def __str__(self) -> str:
        d = "full" if self.depth is None else self.depth
        return (
            f"rate={self.error_rate:.4f} depth={d}: {self.error_type}"
            f" after {self.attempts} attempt(s): {self.message}"
        )


@dataclass
class SweepResult:
    """All points of one panel, indexed by (error_rate, depth).

    ``failures`` lists the cells that could not be computed; a sweep
    with failures still renders and serialises (partial-result
    semantics), with the dead cells marked in figures and reports.
    """

    config: SweepConfig
    points: Dict[CellKey, PointResult]
    instances: List[ArithmeticInstance]
    elapsed_seconds: float = 0.0
    failures: List[FailedCell] = field(default_factory=list)

    def point(self, error_rate: float, depth: Optional[int]) -> PointResult:
        """The point at one (error rate, depth) cell (KeyError if absent)."""
        return self.points[(error_rate, depth)]

    def series(self, depth: Optional[int]) -> List[PointResult]:
        """The success-vs-rate curve of one depth, ordered by rate."""
        return [
            self.points[(r, depth)]
            for r in self.config.error_rates
            if (r, depth) in self.points
        ]

    def best_depth(self, error_rate: float) -> Tuple[Optional[int], float]:
        """(depth, success %) of the best depth at one error rate."""
        best, best_rate = None, -1.0
        for d in self.config.depths:
            pr = self.points.get((error_rate, d))
            if pr is not None and pr.summary.success_rate > best_rate:
                best, best_rate = d, pr.summary.success_rate
        return best, best_rate

    @property
    def complete(self) -> bool:
        """True when every configured cell produced a result."""
        return not self.failures and len(self.points) == len(
            self.config.error_rates
        ) * len(self.config.depths)

    @property
    def failed_keys(self) -> frozenset:
        """The (rate, depth) keys of all failed cells."""
        return frozenset(f.key for f in self.failures)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _execute_cell(payload, attempt: int) -> PointResult:
    """Supervisor worker: one (rate, depth) cell, fault-injectable.

    Module-level so it pickles into pool workers; ``attempt`` comes from
    the supervisor and drives deterministic fault injection.  The
    payload optionally carries the cell's precompiled execution program
    (compiled once in the parent and shipped with the payload — workers
    then skip lowering entirely); 5-tuples from older callers still
    work, compiling worker-side.
    """
    config, instances, rate, depth, fault_spec = payload[:5]
    program = payload[5] if len(payload) > 5 else None
    poison = inject(fault_spec, (rate, depth), attempt)
    point = run_point(config, instances, rate, depth, program=program)
    if poison:
        point = _poison_point(point)
    _check_point_health(point)
    return point


# ----------------------------------------------------------------------
# Checkpoint plumbing
# ----------------------------------------------------------------------
def sweep_fingerprint(
    config: SweepConfig, instances: List[ArithmeticInstance]
) -> str:
    """The checkpoint-compatibility fingerprint of a sweep.

    Covers everything that determines cell results: the full config,
    the exact operand sets, and the precision tier ``REPRO_BACKEND``
    selects (pool workers inherit it).  Two runs resume from each
    other's journals iff their fingerprints match.
    """
    return config_fingerprint(
        {
            "config": dataclasses.asdict(config),
            "dtype": dtype_tag(resolve_complex_dtype()),
            "instances": [
                [list(inst.x.values), list(inst.y.values)]
                for inst in instances
            ],
        }
    )


def _journal_key(key: CellKey) -> Tuple:
    return (key[0], depth_to_json(key[1]))


# ----------------------------------------------------------------------
def run_sweep(
    config: SweepConfig,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    instances: Optional[List[ArithmeticInstance]] = None,
    *,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = True,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> SweepResult:
    """Run every (rate, depth) cell of ``config``.

    ``instances`` may be supplied to share one operand set across panels
    (the paper reuses each row's instances across both error axes);
    otherwise they are generated from ``config.seed``.

    ``checkpoint`` names a JSONL journal file: completed cells are
    appended as they finish, and (with ``resume=True``, the default) any
    cells already journalled under the same config fingerprint are
    restored instead of re-simulated.  ``resume=False`` discards an
    existing journal first.  ``retry`` tunes the supervisor's recovery
    ladder (attempts, backoff, per-cell timeout, pool respawns);
    ``fault_plan`` deterministically injects failures for chaos testing.
    """
    if instances is None:
        instances = generate_instances(
            config.operation,
            config.n,
            config.m,
            config.orders,
            config.instances,
            config.seed,
        )
    workers = default_workers() if workers is None else max(1, workers)
    retry = retry or RetryPolicy()
    fault_plan = fault_plan or FaultPlan()
    fingerprint = sweep_fingerprint(config, instances)
    all_keys: List[CellKey] = [
        (rate, depth)
        for rate in config.error_rates
        for depth in config.depths
    ]
    total = len(all_keys)
    t0 = time.monotonic()

    journal: Optional[CheckpointJournal] = None
    points: Dict[CellKey, PointResult] = {}
    if checkpoint is not None:
        journal = CheckpointJournal(checkpoint, fingerprint)
        if resume:
            restored = journal.load()
            for key in all_keys:
                cell = restored.get(_journal_key(key))
                if cell is not None:
                    points[key] = point_from_dict(cell)
        else:
            journal.reset()
    done_count = len(points)
    if progress and done_count:
        progress(
            f"[{done_count}/{total}] restored from checkpoint "
            f"({Path(checkpoint).name})"
        )

    # Compile every pending cell's program up front in the parent: one
    # lowering per depth (shared across rates via the compile cache) and
    # one cheap bind per rate.  Workers receive the compiled payload and
    # never lower; the picklable op descriptors keep shipping cheap.
    pending = [key for key in all_keys if key not in points]
    programs = {
        key: (
            None
            if config.method == "cut"
            # Cut cells never lower the full-width program — fragments
            # compile individually inside the evaluation.
            else build_compiled_program(
                config.operation, config.n, config.m, key[1],
                config.error_axis, key[0], config.convention,
            )
        )
        for key in pending
    }

    state = {"done": done_count}

    def on_result(key: CellKey, point: PointResult, attempts: int) -> None:
        if sanitizer.enabled():
            # The single choke point every fresh point passes through,
            # whether it ran in a pool worker or in-process.
            sanitizer.record("point", point_to_dict(point), key=repr(key))
        if journal is not None:
            journal.record(_journal_key(key), point_to_dict(point))
        state["done"] += 1
        if progress:
            note = f" (attempt {attempts})" if attempts > 1 else ""
            progress(
                f"[{state['done']}/{total}] rate={key[0]:.4f} "
                f"depth={point.depth_label}: {point.summary}{note}"
            )

    cell_failures: List = []
    if pending:
        cells = [
            (
                key,
                (
                    config,
                    instances,
                    key[0],
                    key[1],
                    fault_plan.for_cell(key),
                    programs[key],
                ),
            )
            for key in pending
        ]
        supervisor = Supervisor(
            _execute_cell, workers=workers, retry=retry, on_result=on_result
        )
        ran, cell_failures = supervisor.run(cells)
        points.update(ran)
    # Restored and pooled cells arrive in completion order; re-key into
    # grid order so serialized output is deterministic across runs.
    points = {
        (rate, depth): points[(rate, depth)]
        for rate in config.error_rates
        for depth in config.depths
        if (rate, depth) in points
    }

    failures = [
        FailedCell(
            error_rate=cf.key[0],
            depth=cf.key[1],
            error_type=cf.error_type,
            message=cf.message,
            traceback=cf.traceback,
            attempts=cf.attempts,
            retryable=cf.retryable,
        )
        for cf in cell_failures
    ]
    if progress:
        for f in failures:
            progress(f"[FAILED] {f}")

    return SweepResult(
        config=config,
        points=points,
        instances=instances,
        elapsed_seconds=time.monotonic() - t0,
        failures=failures,
    )
