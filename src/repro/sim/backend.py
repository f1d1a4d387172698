"""Precision tiers: the one place a simulation state dtype is chosen.

Every layer that allocates simulation state — statevector batches,
density operators, trajectory chunks, compiled-kernel vectors — takes
its dtype from :func:`resolve_complex_dtype`, so the precision tier is
picked at a single seam.

Two named tiers exist (:data:`BACKEND_NAMES`):

* ``numpy64`` — the default: NumPy + ``complex128``.  The house
  bit-identity contract (seeded RNG streams, parity tests) is defined
  on this tier; every kernel builds here first.
* ``numpy32`` — NumPy + ``complex64``: half the memory and bandwidth
  at ~1e-7 per-gate amplitude error.  Kernels are built in
  ``complex128`` and cast once, so the low-precision tier rounds the
  *exact* kernel rather than accumulating single-precision error
  during construction.

Selection: the ``REPRO_BACKEND`` environment knob (read through
:mod:`repro.runtime.envutil` on every call) is the only process-wide
selector; an engine constructor's explicit ``dtype=`` still pins one
engine's tier.

Kernel-cache policy lives here too: :func:`dtype_tag` maps a dtype to
the short tag that keys materialised kernels (``c128``/``c64``) so a
float32 kernel can never collide with — or pollute — a float64 one,
and :data:`canonical_complex` names the reference dtype every kernel
builder materialises in before casting down.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..runtime.envutil import env_str

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "as_complex",
    "canonical_complex",
    "dtype_tag",
    "resolve_complex_dtype",
]

#: Environment knob selecting the process-wide precision tier.
BACKEND_ENV = "REPRO_BACKEND"

#: Every requestable tier name -> its complex state dtype (``numpy64``
#: is the default).
BACKEND_NAMES = {"numpy64": np.complex128, "numpy32": np.complex64}

#: The reference dtype kernels are built in before any down-cast.
canonical_complex = np.complex128


def dtype_tag(dtype: Any) -> str:
    """The kernel-cache key tag of a complex dtype (``c128``/``c64``).

    Unknown dtypes get a ``str()`` tag — still collision-free.
    """
    dt = np.dtype(dtype)
    if dt == np.dtype(np.complex128):
        return "c128"
    if dt == np.dtype(np.complex64):
        return "c64"
    return str(dt)


def as_complex(data: Any, dtype: Any = None) -> np.ndarray:
    """``np.asarray`` at the canonical complex dtype (or an explicit one).

    The sanctioned conversion for wrapper classes (``Statevector``,
    ``DensityMatrix``) whose contract is exact complex128 arithmetic.
    """
    return np.asarray(data, dtype=canonical_complex if dtype is None else dtype)


def resolve_complex_dtype(dtype: Any = None) -> Any:
    """An engine's state dtype: explicit wins, else ``REPRO_BACKEND``'s.

    The single hook every engine constructor funnels ``dtype=None``
    through, so ``REPRO_BACKEND=numpy32`` flips the whole stack while
    an explicit ``dtype=np.complex128`` still pins a caller's tier.
    The knob is read case-insensitively on every call; an unknown name
    raises ``ValueError``.
    """
    if dtype is not None:
        return dtype
    name = env_str(BACKEND_ENV, "numpy64").lower()
    try:
        return BACKEND_NAMES[name]
    except KeyError:
        raise ValueError(
            f"unknown {BACKEND_ENV} {name!r}; expected one of "
            f"{list(BACKEND_NAMES)}"
        ) from None
