"""Strict environment-variable parsing shared by the cache/budget knobs.

Every numeric knob in the repo (``REPRO_KERNEL_CACHE_MB``,
``REPRO_RESULT_CACHE_MB``, ``REPRO_RESULT_CACHE_TTL``,
``REPRO_CUT_MB``) goes through :func:`env_float`, which rejects
non-numeric and out-of-range values with an error that names the
variable — instead of crashing deep inside ``float()`` or silently
building a cache with a nonsense (e.g. negative) budget.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["env_float", "env_int", "env_mb_bytes", "env_flag", "env_str"]


def env_float(
    name: str,
    default: float,
    minimum: Optional[float] = None,
) -> float:
    """``float(os.environ[name])`` with validation.

    Unset (or empty/whitespace) values return ``default``.  A value
    that does not parse as a finite float, or falls below ``minimum``,
    raises :class:`ValueError` naming the variable.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return float(default)
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a number, got {raw!r}"
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"{name} must be finite, got {raw!r}")
    if minimum is not None and value < minimum:
        raise ValueError(
            f"{name} must be >= {minimum:g}, got {raw!r}"
        )
    return value


def env_int(
    name: str,
    default: int,
    minimum: Optional[int] = None,
) -> int:
    """``int(os.environ[name])`` with validation (same policy as
    :func:`env_float`; rejects non-integer values rather than
    truncating)."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return int(default)
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {raw!r}")
    return value


def env_str(name: str, default: str) -> str:
    """``os.environ[name]`` stripped, or ``default`` when unset/blank.

    The single sanctioned entry point for string-valued knobs in
    result-path modules; the audit's DET004 flags direct
    ``os.environ`` reads outside this module.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    return raw.strip()


def env_mb_bytes(name: str, default_mb: float) -> int:
    """A megabyte-denominated budget variable, returned in bytes."""
    return int(env_float(name, default_mb, minimum=0.0) * 1024 * 1024)


def env_flag(name: str, default: bool = False) -> bool:
    """A boolean variable: 1/true/yes/on (any case) is True, 0/false/no/
    off is False; anything else raises :class:`ValueError`."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    norm = raw.strip().lower()
    if norm in ("1", "true", "yes", "on"):
        return True
    if norm in ("0", "false", "no", "off"):
        return False
    raise ValueError(
        f"{name} must be a boolean (1/0/true/false/yes/no/on/off), "
        f"got {raw!r}"
    )
