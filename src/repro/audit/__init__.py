"""Codebase-level determinism & concurrency audit.

Static analysis of the repository's own source enforcing the house
contracts the paper reproduction depends on:

* **DET** — seed discipline: every random draw derives from the
  ``(seed, content_key)`` threading; no wall-clock or environment
  value can reach a result, key, or fingerprint.
* **ASYNC** — loop hygiene: no blocking calls or thread-lock-held
  awaits inside the service coroutines.
* **RACE** — shared-state discipline: module-level mutable state
  reached from executor threads must be lock-guarded.
* **SUP** — the ``# repro: allow[RULE] reason=...`` allowlist is
  itself audited (unused, reason-less, over-budget).

Run via ``repro-arith audit`` (``--strict`` in CI) or
:func:`repro.audit.audit_paths`.  The runtime complement — trace-hash
parity across execution tiers — lives in
:mod:`repro.runtime.sanitizer` (kept in the runtime package so the
simulation engines can hook it without importing the analyzer).
"""

from .budget import SUPPRESSION_BUDGET, budget_for
from .engine import (
    RULES,
    Rule,
    audit_modules,
    audit_paths,
    audit_source,
    discover_modules,
    rule_descriptions,
    used_suppression_counts,
)
from .modinfo import AuditModule, RawFinding, load_module
from .suppress import Suppression, parse_suppressions

__all__ = [
    "AuditModule",
    "RawFinding",
    "RULES",
    "Rule",
    "SUPPRESSION_BUDGET",
    "Suppression",
    "audit_modules",
    "audit_paths",
    "audit_source",
    "budget_for",
    "discover_modules",
    "load_module",
    "parse_suppressions",
    "rule_descriptions",
    "used_suppression_counts",
]
