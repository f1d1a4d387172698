"""Correctness checks that need no stored reference, so any seed works.

Each check returns a list of human-readable failures (empty = pass);
the harness counts the operations they spoil in ``failed``.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Mapping, Optional, Tuple

CellKey = Tuple[float, Optional[int]]


def diff_points(first: Mapping[CellKey, object], points: Mapping[CellKey, object]) -> List[str]:
    """Cells whose result differs from the first timed repeat.

    Sweeps are seeded per cell, so every repeat must return
    ``PointResult`` records equal field for field.
    """
    errors = []
    for key in sorted(set(first) | set(points), key=repr):
        if first.get(key) != points.get(key):
            errors.append(f"cell {key}: result differs from the first repeat")
    return errors


def check_ideal_cells(
    points: Mapping[CellKey, object], single_outcome: bool
) -> List[str]:
    """Rate-0, full-depth cells put every shot on a correct outcome.

    ``PointResult`` keeps only each instance's ``min_diff`` (correct
    count minus the largest incorrect count); it equals ``shots``
    exactly when a single correct outcome takes every shot, and is
    positive whenever no incorrect outcome was seen.
    """
    errors = []
    for (rate, depth), point in points.items():
        if rate != 0.0 or depth is not None:
            continue
        for i, out in enumerate(point.outcomes):
            want_all = single_outcome and out.min_diff != out.shots
            if not out.success or out.min_diff <= 0 or want_all:
                errors.append(
                    f"ideal cell {(rate, depth)} instance {i}: "
                    f"min_diff={out.min_diff} of {out.shots} shots"
                )
    return errors


def noise_floor(p0: float, shots: int, realisations: int) -> float:
    """Lowest plausible ``min_diff`` of a basis-operand instance.

    The shots with no error all land on the one correct outcome, and at
    worst every other shot lands on a single incorrect outcome, so
    ``min_diff >= 2 * clean - shots``.  ``clean`` is a share ``P0`` of
    ``realisations`` independent noise draws, each covering
    ``shots / realisations`` shots: ``realisations == shots`` where the
    trajectory engine draws the clean shots as ``Binomial(shots, P0)``
    (its clean split, on Pauli-only noise), and the trajectory count
    where it splits the shots evenly over trajectories instead.  The slack is five standard deviations of
    ``2 * clean``, and never less than ``5 * sqrt(shots)``.

    The floor is positive only where ``P0`` exceeds about one half; below
    that the check cannot fail.
    """
    sd = 2.0 * shots * math.sqrt(p0 * (1.0 - p0) / realisations)
    return (2.0 * p0 - 1.0) * shots - 5.0 * max(sd, math.sqrt(shots))


def check_noise_floor(
    points: Mapping[CellKey, object], p0_by_rate: Mapping[float, float],
    realisations_by_rate: Mapping[float, int],
) -> List[str]:
    """Every noisy full-depth basis-operand cell clears its noise floor."""
    errors = []
    for (rate, depth), point in points.items():
        if rate == 0.0 or depth is not None:
            continue
        for i, out in enumerate(point.outcomes):
            floor = noise_floor(p0_by_rate[rate], out.shots, realisations_by_rate[rate])
            if out.min_diff < floor:
                errors.append(
                    f"cell {(rate, depth)} instance {i}: min_diff="
                    f"{out.min_diff} below the noise floor {floor:.0f}"
                )
    return errors


def check_counts(
    counts: Mapping[int, int], shots: int, correct: Optional[Iterable[int]] = None
) -> List[str]:
    """A service response's counts sum to its shots; with ``correct``
    given (an ideal probe), every shot is on a correct outcome."""
    errors = []
    total = sum(counts.values())
    if total != shots:
        errors.append(f"counts sum to {total}, expected {shots} shots")
    if correct is not None:
        stray = sorted(set(counts) - set(correct))
        if stray:
            errors.append(f"ideal probe measured incorrect outcomes {stray[:4]}")
    return errors


def check_clean_share(
    counts: Mapping[int, int], shots: int, correct: int, p0: float
) -> List[str]:
    """A noisy basis-operand response keeps its error-free shots on the
    correct outcome.

    The trajectory engine's clean split and the fused scheduler draw
    those shots as ``Binomial(shots, P0)``; density sampling draws every
    shot independently from a distribution that gives the correct
    outcome at least ``P0``.  Either way the correct outcome holds at
    least ``P0 * shots - 5 * sqrt(shots)``: ten standard deviations or
    more below its mean.
    """
    floor = p0 * shots - 5.0 * math.sqrt(shots)
    got = counts.get(correct, 0)
    if got < floor:
        return [f"correct outcome got {got} of {shots} shots, below the "
                f"no-error floor {floor:.0f} (P0 = {p0:.4f})"]
    return []


def correct_sum(n: int, m: int, x: int, y: int) -> int:
    """The full-register outcome of a basis-operand QFA ``x + y mod 2**m``
    (x on the low ``n`` bits, the sum above it)."""
    return x | (((x + y) % (1 << m)) << n)
