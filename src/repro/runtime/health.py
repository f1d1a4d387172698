"""Numerical-health guards shared by the simulation engines.

Long gate sequences can silently corrupt a state: a NaN introduced by a
bad amplitude propagates to every probability, and norm drift turns the
Born rule into a biased sampler.  quantumsim-style engines check these
invariants explicitly; here every engine validates its final state and
raises a typed :class:`~repro.runtime.errors.NumericalHealthError` that
the sweep supervisor classifies as non-retryable (the per-cell seeding
makes the blow-up deterministic).

Checks are O(state size) — negligible next to the evolution itself.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalHealthError

__all__ = [
    "NumericalHealthError",
    "norm_tolerance",
    "check_finite",
    "check_norms",
    "check_trace",
]


def norm_tolerance(dtype) -> float:
    """Acceptable norm drift for a state of ``dtype``.

    ``complex64`` accumulates ~1e-7 per kernel over hundreds of gates;
    ``complex128`` drift is far below either bound.
    """
    return 1e-3 if np.dtype(dtype).itemsize <= 8 else 1e-6


def check_finite(arr: np.ndarray, where: str) -> None:
    """Raise :class:`NumericalHealthError` on any NaN/Inf entry."""
    if not np.all(np.isfinite(arr)):
        raise NumericalHealthError(
            f"{where}: non-finite values in state "
            f"(shape {arr.shape}, dtype {arr.dtype})"
        )


def check_norms(state: np.ndarray, where: str, atol: float = None) -> None:
    """Validate a ``(B, 2**n)`` batch of pure states.

    Every row must be finite with ``| ||psi||^2 - 1 | <= atol``.  The
    state is read once: row norms are sums of squares over its real
    view.  A NaN or ±Inf entry makes its row's norm non-finite, and
    only then is the state scanned for :func:`check_finite`'s error
    (a finite state whose squares overflow fails the drift check).
    """
    if atol is None:
        atol = norm_tolerance(state.dtype)
    v = np.ascontiguousarray(state).view(state.real.dtype)
    norms = np.einsum("bi,bi->b", v, v)
    if not np.all(np.isfinite(norms)):
        check_finite(state, where)
    drift = np.abs(norms - 1.0)
    worst = int(np.argmax(drift))
    if drift[worst] > atol:
        raise NumericalHealthError(
            f"{where}: state norm drifted to {norms[worst]:.6g} "
            f"(|drift| {drift[worst]:.3g} > tolerance {atol:.3g}, "
            f"batch row {worst})"
        )


def check_trace(rho: np.ndarray, where: str, atol: float = 1e-6) -> None:
    """Validate a density matrix: finite entries, trace within ``atol`` of 1."""
    check_finite(rho, where)
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > atol:
        raise NumericalHealthError(
            f"{where}: density-matrix trace drifted to {tr:.6g} "
            f"(tolerance {atol:.3g})"
        )
