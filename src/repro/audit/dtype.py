"""DTYPE rules: dtype policy belongs to the ``resolve_complex_dtype`` seam.

Complex-dtype policy lives in :mod:`repro.sim.backend` — engines
resolve their state dtype through ``resolve_complex_dtype``, kernels
build at ``canonical_complex`` and cast once, and wrapper classes
convert through ``as_complex``.  Two rules keep the seam from eroding:

* **DTYPE001 backend-bypass-alloc** — a direct NumPy allocation
  (``np.zeros``/``empty``/``asarray``/...) with a *literal* complex
  dtype argument inside :mod:`repro.sim`.  Such an array is pinned to
  one precision tier no matter which tier is selected; allocate at
  ``resolve_complex_dtype(dtype)`` (or through ``as_complex`` for
  exact-contract wrappers) instead.
* **DTYPE002 complex-dtype-literal** — any other ``np.complex128`` /
  ``np.complex64`` literal in :mod:`repro.sim` outside ``backend.py``.
  Dtype literals outside the seam drift: comparisons and casts should
  use ``state.dtype``, ``dtype_tag`` or ``canonical_complex``.

Both rules exempt ``repro.sim.backend`` itself — it is the one module
allowed to name concrete complex dtypes.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from .modinfo import AuditModule, RawFinding, dotted_name

__all__ = ["check_dtype", "DTYPE_ZONE_PREFIXES", "DTYPE_EXEMPT_MODULES"]

#: Modules whose allocations must take their dtype from resolve_complex_dtype.
DTYPE_ZONE_PREFIXES = ("repro.sim", "repro.cut")

#: The dtype-policy seam itself: the only sim module allowed to name
#: concrete complex dtypes.
DTYPE_EXEMPT_MODULES = ("repro.sim.backend",)

#: NumPy allocation/conversion entry points whose ``dtype`` argument
#: pins the precision tier of the resulting array.
_ALLOC_FNS = frozenset({
    "numpy.zeros", "numpy.empty", "numpy.ones", "numpy.full",
    "numpy.asarray", "numpy.array", "numpy.ascontiguousarray",
    "numpy.zeros_like", "numpy.empty_like", "numpy.ones_like",
    "numpy.full_like",
})

_COMPLEX_DOTTED = frozenset({"numpy.complex128", "numpy.complex64"})
_COMPLEX_STRINGS = frozenset({"complex128", "complex64"})


def _is_complex_dtype_literal(
    node: ast.AST, imports: Dict[str, str]
) -> bool:
    """Whether an expression is a hard-coded complex dtype."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in _COMPLEX_STRINGS
    if isinstance(node, ast.Name) and node.id == "complex":
        # The builtin: ``dtype=complex`` is complex128 by another name.
        return node.id not in imports
    resolved: Optional[str] = dotted_name(node, imports)
    return resolved in _COMPLEX_DOTTED


def check_dtype(mod: AuditModule) -> List[RawFinding]:
    """Run DTYPE001/DTYPE002 over one module (zone-gated internally)."""
    if not mod.in_zone(DTYPE_ZONE_PREFIXES):
        return []
    if mod.module in DTYPE_EXEMPT_MODULES:
        return []
    findings: List[RawFinding] = []
    # Dtype expressions already reported under DTYPE001 (every
    # descendant node id) — DTYPE002 skips them to avoid double-counts.
    reported: Set[int] = set()

    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        fn = dotted_name(node.func, mod.imports)
        if fn not in _ALLOC_FNS:
            continue
        hits: List[ast.AST] = [
            kw.value
            for kw in node.keywords
            if kw.arg == "dtype"
            and _is_complex_dtype_literal(kw.value, mod.imports)
        ]
        # Positional dtype (``np.array(x, complex)``): any argument
        # past the data operand that is a dtype literal counts.
        hits.extend(
            arg
            for arg in node.args[1:]
            if _is_complex_dtype_literal(arg, mod.imports)
        )
        for value in hits:
            for sub in ast.walk(value):
                reported.add(id(sub))
            findings.append(
                RawFinding(
                    rule_id="DTYPE001",
                    line=node.lineno,
                    message=(
                        f"{fn} allocates with a hard-coded complex "
                        f"dtype, bypassing resolve_complex_dtype"
                    ),
                    fix_hint=(
                        "allocate at repro.sim.backend."
                        "resolve_complex_dtype(dtype) (or convert with "
                        "as_complex) so precision tiers apply"
                    ),
                )
            )

    for node in ast.walk(mod.tree):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        if id(node) in reported:
            continue
        resolved = dotted_name(node, mod.imports)
        if resolved in _COMPLEX_DOTTED:
            findings.append(
                RawFinding(
                    rule_id="DTYPE002",
                    line=node.lineno,
                    message=(
                        f"complex dtype literal {resolved} outside "
                        f"repro.sim.backend"
                    ),
                    fix_hint=(
                        "use state.dtype, dtype_tag, canonical_complex "
                        "or resolve_complex_dtype from "
                        "repro.sim.backend instead of a dtype literal"
                    ),
                )
            )
    return findings
