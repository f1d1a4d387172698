"""Cell-level (de)serialisation shared by results files and checkpoints.

Both the sweep-result JSON (:mod:`repro.experiments.results`) and the
runtime checkpoint journal (:mod:`repro.runtime.checkpoint`) persist
individual :class:`~repro.experiments.runner.PointResult` cells and
:class:`~repro.experiments.sweep.FailedCell` records; keeping the
dict <-> dataclass mapping in one place guarantees a checkpointed cell
is bit-for-bit the cell a full save would have written.

The ``"full"`` string is the JSON sentinel for ``depth=None`` (the
un-truncated QFT) throughout.
"""

from __future__ import annotations

from typing import Optional

from ..metrics.success import InstanceOutcome, SuccessSummary
from .runner import PointResult

__all__ = [
    "depth_to_json",
    "depth_from_json",
    "point_to_dict",
    "point_from_dict",
    "failed_cell_to_dict",
    "failed_cell_from_dict",
]


def depth_to_json(depth: Optional[int]):
    """``None`` (full QFT) -> the ``"full"`` sentinel."""
    return "full" if depth is None else int(depth)


def depth_from_json(v) -> Optional[int]:
    """Inverse of :func:`depth_to_json`."""
    return None if v == "full" else int(v)


def point_to_dict(pr: PointResult) -> dict:
    """A JSON-ready representation of one sweep cell."""
    return {
        "error_rate": pr.error_rate,
        "depth": depth_to_json(pr.depth),
        "depth_label": pr.depth_label,
        "success_rate": pr.summary.success_rate,
        "num_instances": pr.summary.num_instances,
        "num_success": pr.summary.num_success,
        "sigma": pr.summary.sigma,
        "lower_flip": pr.summary.lower_flip,
        "upper_flip": pr.summary.upper_flip,
        "mean_min_diff": pr.summary.mean_min_diff,
        "outcomes": [
            [int(o.success), o.min_diff, o.shots] for o in pr.outcomes
        ],
        "program_fingerprint": pr.program_fingerprint,
        "num_fragments": pr.num_fragments,
        "cut_count": pr.cut_count,
        "variants_evaluated": pr.variants_evaluated,
    }


def point_from_dict(p: dict) -> PointResult:
    """Rebuild one sweep cell written by :func:`point_to_dict`."""
    outcomes = tuple(
        InstanceOutcome(bool(s), int(d), int(sh)) for s, d, sh in p["outcomes"]
    )
    summary = SuccessSummary(
        num_instances=p["num_instances"],
        num_success=p["num_success"],
        sigma=p["sigma"],
        lower_flip=p["lower_flip"],
        upper_flip=p["upper_flip"],
        mean_min_diff=p["mean_min_diff"],
    )
    return PointResult(
        error_rate=p["error_rate"],
        depth=depth_from_json(p["depth"]),
        depth_label=p["depth_label"],
        summary=summary,
        outcomes=outcomes,
        # Absent in journals written before program compilation existed.
        program_fingerprint=p.get("program_fingerprint", ""),
        # Absent before circuit cutting; zeros mean "point not cut".
        num_fragments=int(p.get("num_fragments", 0)),
        cut_count=int(p.get("cut_count", 0)),
        variants_evaluated=int(p.get("variants_evaluated", 0)),
    )


def failed_cell_to_dict(f) -> dict:
    """A JSON-ready representation of one FailedCell record."""
    return {
        "error_rate": f.error_rate,
        "depth": depth_to_json(f.depth),
        "error_type": f.error_type,
        "message": f.message,
        "traceback": f.traceback,
        "attempts": f.attempts,
        "retryable": f.retryable,
    }


def failed_cell_from_dict(d: dict):
    """Rebuild one FailedCell written by :func:`failed_cell_to_dict`."""
    from .sweep import FailedCell

    return FailedCell(
        error_rate=d["error_rate"],
        depth=depth_from_json(d["depth"]),
        error_type=d["error_type"],
        message=d["message"],
        traceback=d.get("traceback", ""),
        attempts=int(d.get("attempts", 1)),
        retryable=bool(d.get("retryable", False)),
    )
