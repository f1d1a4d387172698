"""DET rules: seed discipline and wall-clock hygiene.

The reproduction's determinism contract is that every random draw in a
result path is derived from an explicit ``(seed, content_key)``-style
stream, and that no wall-clock or environment value can reach a cache
key, fingerprint, or result.  Four rules enforce it statically:

* **DET001 unseeded-rng** — construction of an RNG with no (or a
  possibly-``None``) seed, or use of the legacy module-global streams
  (``np.random.rand``, stdlib ``random.random``, ...).  Package-wide.
* **DET002 wall-clock-in-result-path** — wall-clock reads
  (``time.time``, ``datetime.now``, ...) inside the result-producing
  zones (sim, experiments, core, noise, transpile, metrics,
  mitigation, analysis, the service executor/model/cache).
  Monotonic interval clocks (``time.monotonic``, ``time.perf_counter``)
  are allowed — they cannot masquerade as timestamps in keys and are
  the correct tool for latency metadata.
* **DET003 nondeterministic-key-input** — *any* clock (monotonic
  included), environment read, or RNG use inside a function that
  computes a content key, fingerprint, fusion/structure key, or cache
  key, or inside a same-module helper such a function calls.
* **DET004 env-read-in-result-path** — direct ``os.environ`` /
  ``os.getenv`` reads in the result zones outside
  :mod:`repro.runtime.envutil`; env knobs must be funnelled through
  that module's validating accessors at a boundary.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set

from .modinfo import AuditModule, RawFinding, dotted_name

__all__ = ["check_det", "RESULT_ZONE_PREFIXES"]

#: Modules whose code feeds simulated results, keys, or fingerprints.
RESULT_ZONE_PREFIXES = (
    "repro.sim",
    "repro.experiments",
    "repro.core",
    "repro.noise",
    "repro.transpile",
    "repro.metrics",
    "repro.mitigation",
    "repro.analysis",
    "repro.circuits",
    "repro.service.executor",
    "repro.service.model",
    "repro.service.cache",
)

#: numpy legacy module-global stream functions.
_NP_LEGACY = {
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "uniform", "normal", "binomial",
    "multinomial", "seed", "get_state", "set_state",
}
#: stdlib `random` module-global stream functions.
_STDLIB_RANDOM = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "seed", "getrandbits", "triangular", "vonmisesvariate",
}
#: Wall-clock reads (banned in result zones; DET002).
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    # `from datetime import datetime` resolves the chain to these:
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
}
#: Any clock at all (banned in key functions; DET003).
_ANY_CLOCK = _WALL_CLOCK | {
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time",
}
#: Environment reads.
_ENV_CALLS = {"os.getenv", "os.environ.get"}

#: Function names that compute keys/fingerprints (DET003 roots).
_KEY_FN_RE = re.compile(
    r"(content_key|fingerprint|cache_key|structure_key|fusion_key"
    r"|canonical_json|canonical_dict|rng_seed)",
    re.IGNORECASE,
)


def _param_default_none(
    stack: List[ast.AST], name: str
) -> bool:
    """Whether ``name`` is a parameter (of any enclosing function) whose
    declared default is ``None``."""
    for frame in reversed(stack):
        if not isinstance(frame, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = frame.args
        pos = list(args.posonlyargs) + list(args.args)
        defaults = list(args.defaults)
        # defaults align with the tail of the positional list
        offset = len(pos) - len(defaults)
        for i, arg in enumerate(pos):
            if arg.arg != name:
                continue
            if i >= offset:
                d = defaults[i - offset]
                return isinstance(d, ast.Constant) and d.value is None
            return False
        for arg, d in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == name:
                return isinstance(d, ast.Constant) and d.value is None
    return False


def _is_env_read(node: ast.Call, imports: Dict[str, str]) -> bool:
    path = dotted_name(node.func, imports)
    if path in _ENV_CALLS:
        return True
    # os.environ[...] handled by the Subscript visitor, not here.
    return False


def _rng_finding(
    node: ast.Call, imports: Dict[str, str], stack: List[ast.AST]
) -> Optional[str]:
    """DET001 message for ``node`` when it is an unseeded RNG use."""
    path = dotted_name(node.func, imports)
    if path is None:
        return None
    if path == "numpy.random.default_rng":
        if not node.args and not node.keywords:
            return "np.random.default_rng() constructed without a seed"
        first = node.args[0] if node.args else None
        for kw in node.keywords:
            if kw.arg == "seed":
                first = kw.value
        if isinstance(first, ast.Constant) and first.value is None:
            return "np.random.default_rng(None) is an unseeded stream"
        if isinstance(first, ast.Name) and _param_default_none(
            stack, first.id
        ):
            return (
                f"np.random.default_rng({first.id}) where parameter "
                f"{first.id!r} defaults to None: callers that omit it get "
                f"an unseeded, irreproducible stream"
            )
        return None
    if path == "numpy.random.RandomState":
        if not node.args and not node.keywords:
            return "np.random.RandomState() constructed without a seed"
        return None
    if path.startswith("numpy.random.") and path.rsplit(".", 1)[1] in (
        _NP_LEGACY
    ):
        return (
            f"{path} draws from numpy's module-global stream; thread the "
            f"per-cell/per-request Generator instead"
        )
    if path.startswith("random."):
        tail = path[len("random."):]
        if tail in _STDLIB_RANDOM:
            return (
                f"stdlib random.{tail} draws from the process-global "
                f"stream; thread a seeded Generator instead"
            )
        if tail == "Random" and not node.args and not node.keywords:
            return "random.Random() constructed without a seed"
        if tail == "SystemRandom":
            return "random.SystemRandom is nondeterministic by design"
    return None


def _key_functions(module: AuditModule) -> Set[ast.AST]:
    """Function nodes that compute keys, plus same-module helpers they call.

    One level of module-local closure: a helper defined in this module
    and called (by bare name) from a key function inherits the DET003
    ban — key inputs often get hashed in a private ``_canonical`` step.
    """
    by_name: Dict[str, ast.AST] = {}
    roots: List[ast.AST] = []
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            by_name.setdefault(node.name, node)
            if _KEY_FN_RE.search(node.name):
                roots.append(node)
    out: Set[ast.AST] = set(roots)
    frontier = list(roots)
    while frontier:
        fn = frontier.pop()
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name
            ):
                callee = by_name.get(node.func.id)
                if callee is not None and callee not in out:
                    out.add(callee)
                    frontier.append(callee)
    return out


def check_det(module: AuditModule) -> List[RawFinding]:
    """Run the DET family over one module."""
    findings: List[RawFinding] = []
    in_result_zone = module.in_zone(RESULT_ZONE_PREFIXES)
    is_envutil = module.module == "repro.runtime.envutil"
    key_fns = _key_functions(module)
    imports = module.imports

    # Map every node to its enclosing function stack via a manual walk.
    def visit(node: ast.AST, stack: List[ast.AST], in_key_fn: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_key_fn = in_key_fn or node in key_fns
            stack = stack + [node]
        if isinstance(node, ast.Call):
            msg = _rng_finding(node, imports, stack)
            if msg is not None:
                findings.append(
                    RawFinding(
                        "DET001",
                        node.lineno,
                        msg,
                        fix_hint=(
                            "derive the stream from the cell/request "
                            "(seed, content_key) seeding"
                        ),
                    )
                )
            path = dotted_name(node.func, imports)
            if in_key_fn and path is not None:
                if path in _ANY_CLOCK:
                    findings.append(
                        RawFinding(
                            "DET003",
                            node.lineno,
                            f"clock read {path} inside a key/fingerprint "
                            f"computation makes the key nondeterministic",
                        )
                    )
                elif path in _ENV_CALLS:
                    findings.append(
                        RawFinding(
                            "DET003",
                            node.lineno,
                            f"environment read {path} inside a "
                            f"key/fingerprint computation makes the key "
                            f"host-dependent",
                        )
                    )
                elif path.startswith(("numpy.random.", "random.")):
                    findings.append(
                        RawFinding(
                            "DET003",
                            node.lineno,
                            f"random draw {path} inside a key/fingerprint "
                            f"computation makes the key nondeterministic",
                        )
                    )
            elif in_result_zone and path is not None:
                if path in _WALL_CLOCK:
                    findings.append(
                        RawFinding(
                            "DET002",
                            node.lineno,
                            f"wall-clock read {path} in a result-path "
                            f"module; use time.monotonic/perf_counter for "
                            f"intervals, or move the timestamp out of the "
                            f"result path",
                        )
                    )
                elif path in _ENV_CALLS and not is_envutil:
                    findings.append(
                        RawFinding(
                            "DET004",
                            node.lineno,
                            f"direct environment read {path} in a "
                            f"result-path module",
                            fix_hint=(
                                "route env knobs through "
                                "repro.runtime.envutil accessors"
                            ),
                        )
                    )
        if (
            isinstance(node, ast.Subscript)
            and in_result_zone
            and not is_envutil
            and dotted_name(node.value, imports) == "os.environ"
            and isinstance(node.ctx, ast.Load)
        ):
            findings.append(
                RawFinding(
                    "DET004",
                    node.lineno,
                    "direct os.environ[...] read in a result-path module",
                    fix_hint=(
                        "route env knobs through repro.runtime.envutil "
                        "accessors"
                    ),
                )
            )
        for child in ast.iter_child_nodes(node):
            visit(child, stack, in_key_fn)

    visit(module.tree, [], False)
    return findings
