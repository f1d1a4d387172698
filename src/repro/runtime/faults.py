"""Deterministic fault injection for exercising recovery paths.

Chaos testing a fault-tolerant runtime needs faults that are *exactly*
reproducible: the same cell fails the same way on the same attempt,
every run, in every process.  Randomised fault injection can't prove a
recovery path works — a deterministic plan can.

A :class:`FaultPlan` maps cell keys to :class:`FaultSpec` entries; the
sweep worker calls :func:`inject` at the top of each cell with the
attempt number the supervisor passed in.  Because the decision depends
only on ``(key, attempt)``, it is consistent across worker processes
with no shared state.

Fault kinds
-----------
``raise``
    Raise :class:`InjectedFault` (a transient, retryable error).
``crash``
    ``os._exit`` the worker process — the supervisor sees
    ``BrokenProcessPool`` and must respawn the pool.  In the main
    process (serial-degraded execution) this softens to ``raise`` so
    an injected fault can never kill the harness itself.
``hang``
    Sleep past any sane per-cell timeout — exercises timeout detection
    and pool recycling.
``nan``
    Return ``True`` so the caller poisons its numeric output with NaN —
    exercises the numerical-health guards end to end.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

__all__ = [
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "inject",
    "CRASH_EXIT_CODE",
]

#: Exit status used by ``crash`` faults (recognisable in worker logs).
CRASH_EXIT_CODE = 86


class InjectedFault(RuntimeError):
    """A deliberately injected, transient (retryable) failure."""


@dataclass(frozen=True)
class FaultSpec:
    """What to inject at one cell.

    ``attempts`` bounds the injection: fire on attempt numbers ``<=
    attempts`` (so ``attempts=1`` fails only the first try, letting a
    retry succeed), or on every attempt when negative (a *permanent*
    fault — the cell must surface as a failure record).
    """

    kind: str  # "raise" | "crash" | "hang" | "nan"
    attempts: int = 1
    hang_seconds: float = 3600.0

    _KINDS = ("raise", "crash", "hang", "nan")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{self._KINDS}"
            )

    def active(self, attempt: int) -> bool:
        """Whether this fault fires on the given (1-based) attempt."""
        return self.attempts < 0 or attempt <= self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """Cell key -> fault to inject there.  Empty plan = no faults."""

    specs: Mapping[Any, FaultSpec] = field(default_factory=dict)

    def for_cell(self, key: Any) -> Optional[FaultSpec]:
        return self.specs.get(key)

    def __bool__(self) -> bool:
        return bool(self.specs)


def inject(spec: Optional[FaultSpec], key: Any, attempt: int) -> bool:
    """Execute ``spec`` for ``key`` on this ``attempt``.

    Returns True iff the caller should poison its output with NaN (the
    ``nan`` kind); raises/crashes/hangs for the other kinds; returns
    False when no fault applies.
    """
    if spec is None or not spec.active(attempt):
        return False
    if spec.kind == "raise":
        raise InjectedFault(
            f"injected transient failure at cell {key!r} (attempt {attempt})"
        )
    if spec.kind == "crash":
        if multiprocessing.parent_process() is None:
            # Never kill the host process: when the supervisor has
            # degraded to in-process execution, a crash fault softens to
            # a (still retryable) raise so the harness survives.
            raise InjectedFault(
                f"injected crash at cell {key!r} ran in the main process "
                f"(attempt {attempt})"
            )
        # Bypass all cleanup: indistinguishable from a segfault/OOM kill.
        os._exit(CRASH_EXIT_CODE)
    if spec.kind == "hang":
        time.sleep(spec.hang_seconds)
        raise InjectedFault(
            f"injected hang at cell {key!r} outlived its {spec.hang_seconds}s"
        )
    return True  # "nan"
