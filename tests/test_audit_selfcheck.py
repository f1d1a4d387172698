"""The package must pass its own audit — the repo-level gate.

These tests pin the audit's verdict on the shipped source tree: zero
unsuppressed findings (strict — warnings included), and a suppression
ledger that matches the committed budget *exactly*, so a fixed site
cannot leave a stale allowance behind and a new site cannot ride in
under an old one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.audit import (
    audit_modules,
    discover_modules,
    used_suppression_counts,
)
from repro.audit.budget import SUPPRESSION_BUDGET


@pytest.fixture(scope="module")
def audited():
    modules = discover_modules()
    report = audit_modules(modules, enforce_budget=True)
    return modules, report


def test_package_audits_clean(audited):
    _, report = audited
    details = "\n".join(d.render() for d in report.diagnostics)
    assert report.ok(strict=True), f"audit found:\n{details}"


def test_discovery_covers_the_package(audited):
    modules, _ = audited
    names = {m.module for m in modules}
    # Spot-check: every layer the audit gates must be discovered.
    for expected in (
        "repro.sim.program",
        "repro.experiments.sweep",
        "repro.service.executor",
        "repro.service.server",
        "repro.runtime.sanitizer",
        "repro.audit.engine",
    ):
        assert expected in names
    assert len(modules) > 80


def test_used_suppressions_match_budget_exactly(audited):
    modules, _ = audited
    assert used_suppression_counts(modules) == SUPPRESSION_BUDGET


def _run_cli(*argv: str) -> "subprocess.CompletedProcess[str]":
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "audit", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_cli_strict_exits_zero():
    proc = _run_cli("--strict")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout
    assert "suppressions used:" in proc.stdout


def test_cli_json_is_valid_sarif():
    from repro.lint.sarif import validate_sarif

    proc = _run_cli("--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert validate_sarif(doc) == []
    assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-arith audit"


def test_cli_list_rules_prints_catalog():
    from repro.audit.engine import RULES

    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in RULES:
        assert rule_id in proc.stdout
