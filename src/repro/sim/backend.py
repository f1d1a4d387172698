"""Pluggable array-backend strategy: dtype tiers.

Every layer that allocates simulation state — statevector batches,
density operators, trajectory chunks, compiled-kernel vectors — routes
through one :class:`ArrayBackend` so precision tiers slot in behind a
single seam (quantumsim's backend hierarchy is the model: one
interface, swappable kernels underneath).

Two named backends exist:

* ``numpy64`` — the default: NumPy + ``complex128``.  The house
  bit-identity contract (seeded RNG streams, sanitizer traces, parity
  tests) is defined on this tier; every kernel builds here first.
* ``numpy32`` — NumPy + ``complex64``: half the memory and bandwidth
  at ~1e-7 per-gate amplitude error.  Kernels are built in
  ``complex128`` and cast once, so the low-precision tier rounds the
  *exact* kernel rather than accumulating single-precision error
  during construction.

Selection: explicit ``get_backend(name)``, or the ``REPRO_BACKEND``
environment knob (read through :mod:`repro.runtime.envutil`) for the
process-wide default returned by :func:`active_backend`.

Kernel-cache policy lives here too: :func:`dtype_tag` maps a dtype to
the short tag that keys materialised kernels (``c128``/``c64``) so a
float32 kernel can never collide with — or pollute — a float64 one,
and :data:`canonical_complex` names the reference dtype every kernel
builder materialises in before casting down.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..runtime.envutil import env_str

__all__ = [
    "ArrayBackend",
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "active_backend",
    "available_backends",
    "as_complex",
    "canonical_complex",
    "dtype_tag",
    "get_backend",
    "kernel_group",
    "resolve_complex_dtype",
]

#: Environment knob selecting the process-wide default backend.
BACKEND_ENV = "REPRO_BACKEND"

DEFAULT_BACKEND = "numpy64"

#: Every requestable backend name, in preference order.
BACKEND_NAMES = ("numpy64", "numpy32")

#: The reference dtype kernels are built in before any down-cast.
canonical_complex = np.complex128

#: dtype tag -> stats-group name for the per-backend kernel breakdown.
_TAG_TO_GROUP = {"c128": "numpy64", "c64": "numpy32"}


def dtype_tag(dtype: Any) -> str:
    """The kernel-cache key tag of a complex dtype (``c128``/``c64``).

    Unknown dtypes get a ``str()`` tag — still collision-free, just not
    aggregated under a named tier in the stats breakdown.
    """
    dt = np.dtype(dtype)
    if dt == np.dtype(np.complex128):
        return "c128"
    if dt == np.dtype(np.complex64):
        return "c64"
    return str(dt)


def kernel_group(tag: str) -> str:
    """The stats-group (backend tier) name for a kernel dtype tag."""
    return _TAG_TO_GROUP.get(tag, tag)


def as_complex(data: Any, dtype: Any = None) -> np.ndarray:
    """``np.asarray`` at the canonical complex dtype (or an explicit one).

    The sanctioned conversion for wrapper classes (``Statevector``,
    ``DensityMatrix``) whose contract is exact complex128 arithmetic.
    """
    return np.asarray(data, dtype=canonical_complex if dtype is None else dtype)


class ArrayBackend:
    """One NumPy complex-dtype strategy.

    Owns allocation policy for simulation state; ``tag`` is the
    kernel-cache key component.
    """

    __slots__ = ("name", "complex_dtype", "real_dtype", "tag")

    def __init__(self, name: str, complex_dtype: Any, real_dtype: Any) -> None:
        self.name = name
        self.complex_dtype = complex_dtype
        self.real_dtype = real_dtype
        self.tag = dtype_tag(complex_dtype)

    # -- allocation policy ------------------------------------------------
    def zeros(self, shape: Any) -> np.ndarray:
        """A zeroed complex array of this backend's dtype."""
        return np.zeros(shape, dtype=self.complex_dtype)

    def empty(self, shape: Any) -> np.ndarray:
        """An uninitialised complex array of this backend's dtype."""
        return np.empty(shape, dtype=self.complex_dtype)

    def ones(self, shape: Any) -> np.ndarray:
        """A ones complex array of this backend's dtype."""
        return np.ones(shape, dtype=self.complex_dtype)

    def zeros_real(self, shape: Any) -> np.ndarray:
        """A zeroed real array of this backend's real dtype."""
        return np.zeros(shape, dtype=self.real_dtype)

    def asarray(self, data: Any) -> np.ndarray:
        """Convert ``data`` to this backend's complex dtype."""
        return np.asarray(data, dtype=self.complex_dtype)

    def empty_like(self, a: Any) -> np.ndarray:
        return np.empty_like(a)

    def describe(self) -> Dict[str, Any]:
        """Operator-facing summary (surfaced in ``/stats``)."""
        return {
            "name": self.name,
            "tag": self.tag,
            "complex_dtype": str(np.dtype(self.complex_dtype)),
        }

    def __repr__(self) -> str:
        return f"<ArrayBackend {self.name}>"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_LOCK = threading.Lock()
_BACKENDS: Dict[str, ArrayBackend] = {}


def _build_backend(name: str) -> ArrayBackend:
    if name == "numpy64":
        return ArrayBackend("numpy64", np.complex128, np.float64)
    if name == "numpy32":
        return ArrayBackend("numpy32", np.complex64, np.float32)
    raise ValueError(
        f"unknown backend {name!r}; expected one of {list(BACKEND_NAMES)}"
    )


def get_backend(name: Optional[str] = None) -> ArrayBackend:
    """Resolve a backend by name (None/"" -> the active default)."""
    if not name:
        return active_backend()
    with _LOCK:
        backend = _BACKENDS.get(name)
        if backend is None:
            backend = _build_backend(name)
            _BACKENDS[name] = backend
        return backend


def active_backend() -> ArrayBackend:
    """The process default, selected by ``REPRO_BACKEND`` (``numpy64``)."""
    return get_backend(env_str(BACKEND_ENV, DEFAULT_BACKEND).lower())


def available_backends() -> Tuple[str, ...]:
    """Requestable backend names."""
    return BACKEND_NAMES


def resolve_complex_dtype(dtype: Any = None) -> Any:
    """An engine's state dtype: explicit wins, else the active backend's.

    The single hook every engine constructor funnels ``dtype=None``
    through, so ``REPRO_BACKEND=numpy32`` flips the whole stack while
    an explicit ``dtype=np.complex128`` still pins a caller's tier.
    """
    if dtype is None:
        return active_backend().complex_dtype
    return dtype
