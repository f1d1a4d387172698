"""Audit driver: discovery, rule dispatch, suppression, budget.

Glues the rule families (:mod:`det`, :mod:`async_rules`, :mod:`race`)
to the shared :class:`~repro.lint.diagnostics.Diagnostic` model from
the circuit-lint framework: every raw finding becomes a Diagnostic
with a file/line anchor, suppressions are applied (and themselves
audited — SUP001/SUP002/SUP003), and the result is an ordinary
:class:`~repro.lint.diagnostics.LintReport`, so the text/JSON/SARIF
renderers and the ``--strict`` exit-code policy come for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..lint.diagnostics import Diagnostic, LintReport, Severity
from . import async_rules, det, dtype, race
from .budget import budget_for
from .modinfo import AuditModule, RawFinding, load_module
from .suppress import Suppression

__all__ = [
    "RULES",
    "Rule",
    "audit_modules",
    "audit_paths",
    "audit_source",
    "default_src_root",
    "discover_modules",
    "rule_descriptions",
]


@dataclass(frozen=True)
class Rule:
    """Catalog entry for one audit rule."""

    rule_id: str
    name: str
    severity: Severity
    description: str


def _rule(rid: str, name: str, sev: Severity, desc: str) -> Rule:
    return Rule(rule_id=rid, name=name, severity=sev, description=desc)


RULES: Dict[str, Rule] = {
    r.rule_id: r
    for r in (
        _rule(
            "DET001", "unseeded-rng", Severity.ERROR,
            "RNG constructed without a seed, or drawn from a "
            "module-global stream; results are irreproducible",
        ),
        _rule(
            "DET002", "wall-clock-in-result-path", Severity.ERROR,
            "wall-clock read inside a result-producing module",
        ),
        _rule(
            "DET003", "nondeterministic-key-input", Severity.ERROR,
            "clock/env/RNG value flows into a content key, fingerprint, "
            "or cache key",
        ),
        _rule(
            "DET004", "env-read-in-result-path", Severity.WARNING,
            "direct environment read in a result-path module (route "
            "through repro.runtime.envutil)",
        ),
        _rule(
            "ASYNC001", "blocking-call-in-async", Severity.ERROR,
            "known-blocking call inside an async def stalls the event "
            "loop",
        ),
        _rule(
            "ASYNC002", "untimed-future-result", Severity.ERROR,
            "Future.result() with no timeout inside an async def",
        ),
        _rule(
            "ASYNC003", "await-holding-lock", Severity.ERROR,
            "await while holding a thread-level lock",
        ),
        _rule(
            "ASYNC004", "sync-io-in-async", Severity.WARNING,
            "synchronous file IO inside an async def",
        ),
        _rule(
            "DTYPE001", "backend-bypass-alloc", Severity.ERROR,
            "direct NumPy allocation with a hard-coded complex dtype "
            "in repro.sim, bypassing the resolve_complex_dtype seam",
        ),
        _rule(
            "DTYPE002", "complex-dtype-literal", Severity.WARNING,
            "complex dtype literal outside repro.sim.backend; dtype "
            "policy belongs to the backend seam",
        ),
        _rule(
            "RACE001", "unlocked-shared-instance", Severity.ERROR,
            "module-level shared instance mutated without a lock",
        ),
        _rule(
            "RACE002", "unlocked-global-mutation", Severity.ERROR,
            "module-level mutable global mutated without a lock",
        ),
        _rule(
            "RACE003", "executor-shared-state", Severity.WARNING,
            "callable handed to an executor reaches unsynchronized "
            "shared state (call-graph inference)",
        ),
        _rule(
            "SUP001", "unused-suppression", Severity.WARNING,
            "# repro: allow[...] annotation suppressed nothing",
        ),
        _rule(
            "SUP002", "suppression-budget-exceeded", Severity.ERROR,
            "used suppressions exceed the committed budget in "
            "repro.audit.budget",
        ),
        _rule(
            "SUP003", "suppression-missing-reason", Severity.WARNING,
            "# repro: allow[...] annotation without a reason= clause",
        ),
    )
}


def rule_descriptions() -> Dict[str, str]:
    """rule id -> description, for the SARIF rule table."""
    return {rid: rule.description for rid, rule in RULES.items()}


def default_src_root() -> Path:
    """The ``src/`` directory containing the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent.parent


def discover_modules(src_root: Optional[Path] = None) -> List[AuditModule]:
    """Parse every ``repro`` module under ``src_root`` (skips nothing)."""
    root = (src_root or default_src_root()).resolve()
    pkg = root / "repro"
    modules: List[AuditModule] = []
    for path in sorted(pkg.rglob("*.py")):
        rel_parts = path.relative_to(root).with_suffix("").parts
        if rel_parts[-1] == "__init__":
            rel_parts = rel_parts[:-1]
        module = ".".join(rel_parts)
        # Reporting path: repo-relative when the conventional src/
        # layout is in place, else package-relative.
        if root.name == "src":
            rel = str(Path("src") / path.relative_to(root))
        else:
            rel = str(path.relative_to(root))
        modules.append(load_module(path, module, rel))
    return modules


def _diag(mod: AuditModule, raw: RawFinding) -> Diagnostic:
    rule = RULES[raw.rule_id]
    return Diagnostic(
        rule_id=raw.rule_id,
        rule_name=rule.name,
        severity=rule.severity,
        message=raw.message,
        fix_hint=raw.fix_hint,
        file=mod.rel,
        line=raw.line,
    )


def _apply_suppressions(
    mod: AuditModule, raw_findings: Sequence[RawFinding]
) -> List[Diagnostic]:
    """Filter ``raw_findings`` through the module's allow annotations."""
    out: List[Diagnostic] = []
    for raw in raw_findings:
        suppressed = False
        for sup in mod.suppressions.get(raw.line, []):
            if sup.covers(raw.rule_id):
                sup.mark_used(raw.rule_id)
                suppressed = True
        if not suppressed:
            out.append(_diag(mod, raw))
    return out


def _suppression_findings(mod: AuditModule) -> List[Diagnostic]:
    """SUP001/SUP003 for the module's annotations (post-filtering)."""
    out: List[Diagnostic] = []
    seen: List[Suppression] = []
    for sups in mod.suppressions.values():
        for sup in sups:
            if sup in seen:
                continue
            seen.append(sup)
            if not sup.reason:
                out.append(
                    Diagnostic(
                        rule_id="SUP003",
                        rule_name=RULES["SUP003"].name,
                        severity=RULES["SUP003"].severity,
                        message=(
                            "suppression has no reason= clause; the "
                            "allowlist must stay self-documenting"
                        ),
                        file=mod.rel,
                        line=sup.comment_line,
                    )
                )
            for rid in sup.unused_rules:
                out.append(
                    Diagnostic(
                        rule_id="SUP001",
                        rule_name=RULES["SUP001"].name,
                        severity=RULES["SUP001"].severity,
                        message=(
                            f"allow[{rid}] suppressed nothing; remove the "
                            f"stale annotation"
                        ),
                        fix_hint="delete the annotation (and shrink the "
                        "budget if it frees headroom)",
                        file=mod.rel,
                        line=sup.comment_line,
                    )
                )
    return out


def _budget_findings(
    modules: Sequence[AuditModule], enforce_budget: bool
) -> List[Diagnostic]:
    if not enforce_budget:
        return []
    used: Dict[str, int] = {}
    for mod in modules:
        for sups in mod.suppressions.values():
            for sup in sups:
                for rid in sup.used_rules:
                    used[rid] = used.get(rid, 0) + 1
    # An annotation covering N lines registers once per target line; the
    # per-rule totals are what the budget pins.
    out: List[Diagnostic] = []
    for rid in sorted(used):
        if used[rid] > budget_for(rid):
            out.append(
                Diagnostic(
                    rule_id="SUP002",
                    rule_name=RULES["SUP002"].name,
                    severity=RULES["SUP002"].severity,
                    message=(
                        f"{used[rid]} used allow[{rid}] suppressions "
                        f"exceed the committed budget of "
                        f"{budget_for(rid)}; fix the new site or grow "
                        f"SUPPRESSION_BUDGET in a reviewed diff"
                    ),
                    file="src/repro/audit/budget.py",
                )
            )
    return out


def used_suppression_counts(
    modules: Sequence[AuditModule],
) -> Dict[str, int]:
    """Used-suppression totals per rule (modules must be audited first)."""
    used: Dict[str, int] = {}
    for mod in modules:
        for sups in mod.suppressions.values():
            for sup in sups:
                for rid in sup.used_rules:
                    used[rid] = used.get(rid, 0) + 1
    return used


def audit_modules(
    modules: Sequence[AuditModule], enforce_budget: bool = True
) -> LintReport:
    """Run every rule family over ``modules`` and return one report."""
    report = LintReport()
    index = race.PackageIndex(modules)
    race_findings = race.check_race(modules, index=index)
    for mod in modules:
        raw: List[RawFinding] = []
        raw.extend(det.check_det(mod))
        raw.extend(dtype.check_dtype(mod))
        if mod.in_zone(async_rules.ASYNC_ZONE_PREFIXES):
            raw.extend(async_rules.check_async(mod))
        raw.extend(race_findings.get(mod.module, []))
        raw.sort(key=lambda f: (f.line, f.rule_id))
        for diag in _apply_suppressions(mod, raw):
            report.add(diag)
        for diag in _suppression_findings(mod):
            report.add(diag)
    for diag in _budget_findings(modules, enforce_budget):
        report.add(diag)
    return report


def audit_paths(
    src_root: Optional[Path] = None, enforce_budget: bool = True
) -> LintReport:
    """Discover and audit the whole package under ``src_root``."""
    return audit_modules(
        discover_modules(src_root), enforce_budget=enforce_budget
    )


def audit_source(
    source: str,
    module: str = "repro.sim.fixture",
    rel: str = "fixture.py",
    enforce_budget: bool = False,
) -> LintReport:
    """Audit one in-memory source blob (test fixture entry point)."""
    import ast as _ast

    from .modinfo import resolve_imports
    from .suppress import parse_suppressions

    tree = _ast.parse(source)
    mod = AuditModule(
        path=Path(rel),
        rel=rel,
        module=module,
        tree=tree,
        source=source,
        suppressions=parse_suppressions(source),
        imports=resolve_imports(tree, module),
    )
    return audit_modules([mod], enforce_budget=enforce_budget)
