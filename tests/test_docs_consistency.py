"""Documentation consistency guards.

Cheap meta-tests that keep DESIGN.md / README.md honest: every benchmark
and example they reference must exist, and every benchmark on disk must
be indexed in DESIGN.md's experiment table.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_design_references_existing_benchmarks():
    design = (ROOT / "DESIGN.md").read_text()
    for ref in set(re.findall(r"benchmarks/\w+\.py", design)):
        assert (ROOT / ref).exists(), f"DESIGN.md references missing {ref}"


def test_every_benchmark_is_indexed_in_design():
    design = (ROOT / "DESIGN.md").read_text()
    for path in (ROOT / "benchmarks").glob("test_*.py"):
        assert path.name in design, (
            f"{path.name} not indexed in DESIGN.md's experiment table"
        )


def test_readme_references_existing_examples():
    readme = (ROOT / "README.md").read_text()
    for ref in set(re.findall(r"`(\w+\.py)`", readme)):
        assert (ROOT / "examples" / ref).exists(), (
            f"README references missing examples/{ref}"
        )


def test_every_example_runs_in_tests():
    """test_examples.py must smoke-run every example on disk."""
    runner = (ROOT / "tests" / "test_examples.py").read_text()
    for path in (ROOT / "examples").glob("*.py"):
        assert path.name in runner, f"{path.name} not smoke-tested"


def test_docs_pages_exist():
    readme = (ROOT / "README.md").read_text()
    for ref in set(re.findall(r"docs/\w+\.md", readme)):
        assert (ROOT / ref).exists(), f"README references missing {ref}"


def test_design_mentions_all_packages():
    design = (ROOT / "DESIGN.md").read_text()
    for pkg in (ROOT / "src" / "repro").iterdir():
        if pkg.is_dir() and (pkg / "__init__.py").exists():
            assert f"repro.{pkg.name}" in design, (
                f"package repro.{pkg.name} missing from DESIGN.md inventory"
            )


def test_documented_env_vars_are_read_by_the_code():
    """Every ``REPRO_*`` name the docs mention is read under ``src/``
    (as a quoted name), so a removed knob cannot linger in a table."""
    pages = [ROOT / "README.md", ROOT / "DESIGN.md"]
    pages += sorted((ROOT / "docs").glob("*.md"))
    documented = set()
    for page in pages:
        documented |= set(re.findall(r"REPRO_[A-Z0-9_]+", page.read_text()))
    source = "\n".join(
        path.read_text() for path in (ROOT / "src").rglob("*.py")
    )
    unread = sorted(
        name for name in documented
        if f'"{name}"' not in source and f"'{name}'" not in source
    )
    assert documented and not unread, f"documented but never read: {unread}"


def test_cli_method_choices_follow_registry():
    """`--method` choices and help text come from the single registry."""
    import os
    import subprocess
    import sys

    from repro.sim.methods import METHOD_SPECS, METHODS

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--help"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    for name in METHODS:
        assert f"'{name}'" in proc.stdout or name in proc.stdout, (
            f"method {name!r} missing from `repro sweep --help`"
        )
    assert "max-fragment-qubits" in proc.stdout
    # The example that demos wide registers enumerates the same registry.
    example = (ROOT / "examples" / "circuit_cutting.py").read_text()
    assert "METHOD_SPECS" in example
    assert len(METHOD_SPECS) == len(METHODS)


def test_registry_is_single_source_for_all_surfaces():
    from repro.experiments.config import SWEEP_METHODS
    from repro.service import model as service_model
    from repro.sim.methods import METHODS

    assert SWEEP_METHODS == METHODS
    assert tuple(service_model._METHODS) == METHODS
    # The cutting docs page documents the escape hatch the width guards
    # point at.
    cutting = (ROOT / "docs" / "cutting.md").read_text()
    for needle in ("method=\"cut\"", "REPRO_CUT_MB", "max_fragment_qubits"):
        assert needle in cutting


def test_service_docs_list_every_method():
    """The `method` row of docs/service.md's request table names every
    registered method, in registry order."""
    from repro.sim.methods import METHODS

    service = (ROOT / "docs" / "service.md").read_text()
    (row,) = re.findall(r"^\| `method` \|.*$", service, flags=re.M)
    listed = tuple(re.findall(r"`(\w+)`", row.split("|")[3]))
    assert listed == METHODS, f"docs/service.md lists {listed}"
