"""Fault-tolerant execution runtime for long-running sweeps.

The pieces, bottom-up:

* :mod:`~repro.runtime.errors` — typed failures and the
  retryable/deterministic classification.
* :mod:`~repro.runtime.health` — NaN / norm-drift guards the simulation
  engines call on their final states.
* :mod:`~repro.runtime.checkpoint` — append-only JSONL journal of
  completed cells, keyed by a config fingerprint.
* :mod:`~repro.runtime.supervisor` — per-cell submission with retries,
  timeouts, ``BrokenProcessPool`` recovery and serial degradation.
* :mod:`~repro.runtime.faults` — deterministic crash/hang/NaN injection
  so every recovery path above is testable.

See ``docs/reliability.md`` for the end-to-end story.
"""

from .checkpoint import CheckpointJournal, config_fingerprint, locked_append
from .envutil import env_float, env_mb_bytes
from .errors import CellTimeoutError, NumericalHealthError, classify_retryable
from .faults import FaultPlan, FaultSpec, InjectedFault, inject
from .health import check_finite, check_norms, check_trace, norm_tolerance
from .supervisor import (
    CellFailure,
    RetryPolicy,
    Supervisor,
    run_supervised,
)

__all__ = [
    "CheckpointJournal",
    "config_fingerprint",
    "locked_append",
    "CellTimeoutError",
    "NumericalHealthError",
    "classify_retryable",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "inject",
    "check_finite",
    "check_norms",
    "check_trace",
    "norm_tolerance",
    "CellFailure",
    "RetryPolicy",
    "Supervisor",
    "run_supervised",
    "env_float",
    "env_mb_bytes",
]
