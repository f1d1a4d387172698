"""Work-unit partitioning for the distributed sweep fabric.

A *work unit* is the fabric's dispatch granule: a contiguous group of
fusion-compatible sweep cells that one worker executes in a single
``/v1/work`` call.  Cells sharing a :attr:`CompiledProgram.fusion_key`
stay co-located, so the worker's lowering and kernel caches amortise
across the whole unit, and the supervisor's :func:`partition_weighted`
chunker bounds per-unit runtime — the lease timeout and retry
granularity stay sane because no unit can grow unboundedly heavy.

Unit identifiers are *deterministic*: derived from the sweep
fingerprint and the member cell keys, so a restarted coordinator
re-derives the same ids for the same remaining work and journalled
lease/ack events stay attributable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..runtime.checkpoint import config_fingerprint
from ..runtime.supervisor import partition_weighted

__all__ = ["WorkUnit", "partition_units", "DEFAULT_UNIT_MAX_CELLS"]

CellKey = Tuple[float, Optional[int]]

#: Cells per unit ceiling — bounds a unit's runtime, and so the
#: granularity of lease expiry, retry and work stealing.
DEFAULT_UNIT_MAX_CELLS = 8


@dataclass(frozen=True)
class WorkUnit:
    """One dispatchable group of sweep cells."""

    unit_id: str
    cells: Tuple[CellKey, ...]

    @property
    def weight(self) -> int:
        return len(self.cells)

    def __str__(self) -> str:
        return f"{self.unit_id}[{len(self.cells)} cells]"


def unit_id_for(fingerprint: str, cells: Sequence[CellKey]) -> str:
    """Deterministic id of the unit holding ``cells`` of one sweep."""
    digest = config_fingerprint(
        {
            "fp": fingerprint,
            "cells": [[rate, "full" if d is None else d] for rate, d in cells],
        }
    )
    return f"u-{digest[:12]}"


def partition_units(
    keys: Sequence[CellKey],
    fusion_key_of: Callable[[CellKey], Any],
    fingerprint: str,
    max_cells: int = DEFAULT_UNIT_MAX_CELLS,
    weight_of: Optional[Callable[[CellKey], float]] = None,
) -> List[WorkUnit]:
    """Partition pending cells into weighted, fusion-co-located units.

    Cells are first bucketed by their fusion key (grid order preserved
    inside a bucket — :func:`partition_weighted` relies on it), then
    greedily chunked under the ``max_cells`` weight ceiling.  Each cell
    of a unit still runs through its own
    :func:`~repro.experiments.runner.run_point` stream, so the grouping
    decides dispatch (and per-worker cache reuse), never results.
    """
    weight_of = weight_of or (lambda _key: 1.0)
    by_fusion: dict = {}
    for key in keys:
        by_fusion.setdefault(fusion_key_of(key), []).append(key)
    units: List[WorkUnit] = []
    for bucket in by_fusion.values():
        for chunk in partition_weighted(
            bucket, [weight_of(k) for k in bucket], float(max_cells)
        ):
            cells = tuple(chunk)
            units.append(WorkUnit(unit_id_for(fingerprint, cells), cells))
    return units
