"""RACE rules: unsynchronized shared mutable state across executors.

The stack runs the same code from an asyncio loop, thread-pool
executor workers, and (memory-isolated) process-pool workers; the
thread tier shares the parent's module-level caches by design, so any
module-level mutable object touched from executor code is cross-thread
shared state.  Three rules:

* **RACE001 unlocked-shared-instance** — a class instantiated as a
  module-level global whose methods mutate ``self`` state without a
  lock.  This is exactly the ``KernelCache`` / stats-counter shape:
  process-wide singletons reached from both the loop (stats snapshots)
  and executor threads (the hot path).
* **RACE002 unlocked-global-mutation** — direct mutation of a
  module-level mutable global (attribute/subscript/augmented
  assignment, or a known mutator-method call) outside a ``with
  <lock>:`` block.
* **RACE003 executor-shared-state** — call-graph rule: a callable
  handed to an executor boundary (``pool.submit``,
  ``loop.run_in_executor``, ``asyncio.to_thread``,
  ``threading.Thread(target=...)``) transitively reaches an
  unsynchronized shared-state mutation.  Reported at the submission
  site with the call path, so the reviewer sees *how* the state
  becomes concurrent.

Call edges resolve best-effort: bare names, imported functions,
``self.method``, methods called on module-level instance globals, and
``Class(...).method`` chains.  Unresolvable dynamic dispatch is skipped
(no guessing), so RACE003 under-approximates — RACE001/002 catch the
definition side regardless of reachability.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .modinfo import AuditModule, RawFinding, dotted_name

__all__ = ["PackageIndex", "check_race", "RACE_ZONE_PREFIXES"]

RACE_ZONE_PREFIXES = (
    "repro.sim",
    "repro.service",
    "repro.experiments",
    "repro.runtime",
)

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "appendleft", "add", "update", "pop", "popitem", "popleft",
    "clear", "extend", "insert", "remove", "discard", "setdefault",
    "push",
}

_MUTABLE_CTORS = {
    "dict", "list", "set", "collections.defaultdict", "collections.deque",
    "collections.OrderedDict", "collections.Counter",
    "weakref.WeakKeyDictionary", "weakref.WeakValueDictionary",
}

_LOCK_CTORS = {"Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition"}


def _is_lockish_expr(node: ast.expr) -> bool:
    path = dotted_name(node)
    if path is None:
        return False
    tail = path.rsplit(".", 1)[-1].lower()
    return tail.endswith("lock") or tail in ("mutex", "guard")


@dataclass
class Mutation:
    """One in-place write, with its lock context."""

    #: "global:<module>.<NAME>" or "self:<attr>"
    target: str
    line: int
    locked: bool
    describe: str


@dataclass
class FuncRec:
    qual: str
    module: AuditModule
    node: ast.AST
    is_async: bool
    cls: Optional[str] = None  # qualified class name for methods
    calls: Set[str] = field(default_factory=set)
    mutations: List[Mutation] = field(default_factory=list)
    global_reads: Set[str] = field(default_factory=set)


@dataclass
class ClassRec:
    qual: str
    module: AuditModule
    node: ast.ClassDef
    lock_attrs: Set[str] = field(default_factory=set)
    methods: Dict[str, str] = field(default_factory=dict)  # name -> func qual
    #: subclasses threading.local — per-thread state, never shared
    thread_local: bool = False


@dataclass
class GlobalRec:
    qual: str  # "<module>.<NAME>"
    module: AuditModule
    line: int
    #: qualified class name when the global is `NAME = SomeClass()`,
    #: else "" for literal containers
    cls: str = ""


class PackageIndex:
    """Cross-module function/class/global index with call edges."""

    def __init__(self, modules: Sequence[AuditModule]) -> None:
        self.modules = list(modules)
        self.functions: Dict[str, FuncRec] = {}
        self.classes: Dict[str, ClassRec] = {}
        self.globals_: Dict[str, GlobalRec] = {}
        #: executor submission sites: (submitted qual, module, line, kind)
        self.submissions: List[Tuple[str, AuditModule, int, str]] = []
        # Classes/functions across every module first, then globals
        # (so `G = other_module.Cls()` resolves), then bodies.
        for mod in self.modules:
            self._index_decls(mod)
        for mod in self.modules:
            self._index_globals(mod)
        for mod in self.modules:
            self._collect_bodies(mod)

    # -- pass 1a: class/function declarations -----------------------------
    def _index_decls(self, mod: AuditModule) -> None:
        for node in mod.tree.body:
            if isinstance(node, ast.ClassDef):
                self._index_class(mod, node)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                qual = f"{mod.module}.{node.name}"
                self.functions[qual] = FuncRec(
                    qual=qual,
                    module=mod,
                    node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                )

    # -- pass 1b: module-level globals ------------------------------------
    def _index_globals(self, mod: AuditModule) -> None:
        for node in mod.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self._maybe_global(mod, target.id, node.value, node.lineno)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self._maybe_global(
                        mod, node.target.id, node.value, node.lineno
                    )

    def _index_class(self, mod: AuditModule, node: ast.ClassDef) -> None:
        qual = f"{mod.module}.{node.name}"
        rec = ClassRec(qual=qual, module=mod, node=node)
        for base in node.bases:
            bpath = dotted_name(base, mod.imports)
            if bpath is not None and bpath.rsplit(".", 1)[-1] == "local":
                rec.thread_local = True
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fq = f"{qual}.{item.name}"
                rec.methods[item.name] = fq
                self.functions[fq] = FuncRec(
                    qual=fq,
                    module=mod,
                    node=item,
                    is_async=isinstance(item, ast.AsyncFunctionDef),
                    cls=qual,
                )
                if item.name == "__init__":
                    rec.lock_attrs |= _find_lock_attrs(item)
        self.classes[qual] = rec

    def _maybe_global(
        self, mod: AuditModule, name: str, value: ast.expr, line: int
    ) -> None:
        if name == "__all__":
            return
        if isinstance(
            value,
            (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
             ast.SetComp),
        ):
            self.globals_[f"{mod.module}.{name}"] = GlobalRec(
                qual=f"{mod.module}.{name}", module=mod, line=line
            )
            return
        if isinstance(value, ast.Call):
            path = dotted_name(value.func, mod.imports)
            if path in _MUTABLE_CTORS:
                self.globals_[f"{mod.module}.{name}"] = GlobalRec(
                    qual=f"{mod.module}.{name}", module=mod, line=line
                )
            elif path is not None:
                # Instance of an in-package class?  threading.local
                # subclasses are per-thread by construction — not
                # shared state, however global the binding.
                cls = self._resolve_class(path, mod)
                if cls is not None and not self.classes[cls].thread_local:
                    self.globals_[f"{mod.module}.{name}"] = GlobalRec(
                        qual=f"{mod.module}.{name}",
                        module=mod,
                        line=line,
                        cls=cls,
                    )

    def _resolve_class(
        self, path: str, mod: AuditModule
    ) -> Optional[str]:
        """Qualified class name for a (possibly bare) constructor path."""
        if path in self.classes:
            return path
        candidate = f"{mod.module}.{path}"
        if candidate in self.classes:
            return candidate
        return None

    # -- pass 2: bodies (calls, mutations, submissions) -------------------
    def _collect_bodies(self, mod: AuditModule) -> None:
        for qual, rec in self.functions.items():
            if rec.module is not mod:
                continue
            _BodyVisitor(self, rec).run()

    # -- resolution helpers ----------------------------------------------
    def resolve_callable(
        self, node: ast.expr, mod: AuditModule, cls: Optional[str]
    ) -> Optional[str]:
        """Best-effort: the qualified function a callable expr names."""
        if isinstance(node, ast.Name):
            local = f"{mod.module}.{node.id}"
            if local in self.functions:
                return local
            imported = mod.imports.get(node.id)
            if imported and imported in self.functions:
                return imported
            # imported class used as callable -> its __init__
            if imported and imported in self.classes:
                return self.classes[imported].methods.get("__init__")
            return None
        if isinstance(node, ast.Attribute):
            # self.method
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and cls is not None
            ):
                return self.classes[cls].methods.get(node.attr) if (
                    cls in self.classes
                ) else None
            # module-global instance: G.method
            base = dotted_name(node.value, mod.imports)
            if base is not None:
                local_global = (
                    f"{mod.module}.{base}" if "." not in base else base
                )
                grec = self.globals_.get(local_global) or self.globals_.get(
                    base
                )
                if grec is not None and grec.cls:
                    return self.classes[grec.cls].methods.get(node.attr) if (
                        grec.cls in self.classes
                    ) else None
                # plain module attribute: a.b.f
                full = f"{base}.{node.attr}"
                if full in self.functions:
                    return full
            # Class(...).method
            if isinstance(node.value, ast.Call):
                cpath = dotted_name(node.value.func, mod.imports)
                if cpath is not None:
                    cqual = self._resolve_class(cpath, mod)
                    if cqual is not None:
                        return self.classes[cqual].methods.get(node.attr)
        return None

    def global_for_name(
        self, name: str, mod: AuditModule
    ) -> Optional[GlobalRec]:
        """The GlobalRec a bare name refers to in ``mod`` (local or
        imported), or None."""
        local = self.globals_.get(f"{mod.module}.{name}")
        if local is not None:
            return local
        imported = mod.imports.get(name)
        if imported is not None:
            return self.globals_.get(imported)
        return None


def _find_lock_attrs(init: ast.AST) -> Set[str]:
    """``self.X`` attributes assigned a threading lock in ``__init__``."""
    out: Set[str] = set()
    for node in ast.walk(init):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Attribute)
            and isinstance(node.targets[0].value, ast.Name)
            and node.targets[0].value.id == "self"
            and isinstance(node.value, ast.Call)
        ):
            path = dotted_name(node.value.func)
            if path and path.rsplit(".", 1)[-1] in _LOCK_CTORS:
                out.add(node.targets[0].attr)
    return out


class _BodyVisitor:
    """Collect calls, mutations, and executor submissions of one function."""

    def __init__(self, index: PackageIndex, rec: FuncRec) -> None:
        self.index = index
        self.rec = rec
        self.mod = rec.module
        self.cls = rec.cls
        self.lock_attrs: Set[str] = set()
        if rec.cls and rec.cls in index.classes:
            self.lock_attrs = index.classes[rec.cls].lock_attrs

    def run(self) -> None:
        body = getattr(self.rec.node, "body", [])
        for stmt in body:
            self._visit(stmt, locked=False)

    # -- helpers ----------------------------------------------------------
    def _is_locked_with(self, node: ast.With) -> bool:
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and (expr.attr in self.lock_attrs or _is_lockish_expr(expr))
            ):
                return True
            if _is_lockish_expr(expr):
                return True
        return False

    def _mutation_target(self, node: ast.expr) -> Optional[Tuple[str, str]]:
        """(target-id, description) when ``node`` is a mutable receiver.

        ``G.attr``/``G[...]`` with G a module global -> ("global:<qual>",
        "G"); ``self.attr`` inside a method -> ("self:<attr>", "self").
        """
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            base = node.value.id
            if base == "self" and self.cls is not None:
                return f"self:{node.attr}", f"self.{node.attr}"
            grec = self.index.global_for_name(base, self.mod)
            if grec is not None:
                return f"global:{grec.qual}", base
        if isinstance(node, ast.Name):
            grec = self.index.global_for_name(node.id, self.mod)
            if grec is not None:
                return f"global:{grec.qual}", node.id
        return None

    def _note_mutation(
        self, target: Tuple[str, str], line: int, locked: bool, how: str
    ) -> None:
        tid, desc = target
        self.rec.mutations.append(
            Mutation(
                target=tid,
                line=line,
                locked=locked,
                describe=f"{how} of {desc}",
            )
        )

    # -- walk -------------------------------------------------------------
    def _visit(self, node: ast.AST, locked: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are separate (unindexed) scopes
        if isinstance(node, ast.With):
            inner = locked or self._is_locked_with(node)
            for item in node.items:
                self._visit(item.context_expr, locked)
            for stmt in node.body:
                self._visit(stmt, inner)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for tgt in targets:
                recv: Optional[ast.expr] = None
                how = "assignment"
                if isinstance(tgt, ast.Attribute):
                    recv = tgt.value
                    how = f"attribute write .{tgt.attr}"
                elif isinstance(tgt, ast.Subscript):
                    recv = tgt.value
                    how = "item write"
                if recv is not None:
                    target = self._mutation_target(recv)
                    # An attribute write *through* a receiver: the
                    # receiver itself is what must be shared.
                    if target is None and isinstance(recv, ast.Attribute):
                        target = self._mutation_target(recv)
                    if target is not None:
                        self._note_mutation(target, tgt.lineno, locked, how)
                elif isinstance(tgt, ast.Name):
                    # plain rebinding of a global needs `global` decl;
                    # treat as mutation only with an explicit global stmt
                    pass
            self._visit(node.value, locked)
            return
        if isinstance(node, ast.Delete):
            for tgt in node.targets:
                if isinstance(tgt, ast.Subscript):
                    target = self._mutation_target(tgt.value)
                    if target is not None:
                        self._note_mutation(
                            target, tgt.lineno, locked, "item delete"
                        )
            return
        if isinstance(node, ast.Call):
            self._handle_call(node, locked)
            for child in ast.iter_child_nodes(node):
                self._visit(child, locked)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            grec = self.index.global_for_name(node.id, self.mod)
            if grec is not None:
                self.rec.global_reads.add(grec.qual)
        for child in ast.iter_child_nodes(node):
            self._visit(child, locked)

    def _handle_call(self, node: ast.Call, locked: bool) -> None:
        # call edge
        target = self.index.resolve_callable(node.func, self.mod, self.cls)
        if target is not None:
            self.rec.calls.add(target)
        # mutator-method mutation: G.append(...) / self.x.update(...)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            mt = self._mutation_target(node.func.value)
            if mt is not None:
                self._note_mutation(
                    mt, node.lineno, locked, f".{node.func.attr}() call"
                )
        # executor submissions
        path = dotted_name(node.func, self.mod.imports)
        tail = path.rsplit(".", 1)[-1] if path else (
            node.func.attr if isinstance(node.func, ast.Attribute) else ""
        )
        submitted: Optional[ast.expr] = None
        kind = ""
        if tail == "submit" and node.args:
            submitted, kind = node.args[0], "pool.submit"
        elif tail == "run_in_executor" and len(node.args) >= 2:
            submitted, kind = node.args[1], "run_in_executor"
        elif tail == "to_thread" and node.args:
            submitted, kind = node.args[0], "asyncio.to_thread"
        elif tail == "Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    submitted, kind = kw.value, "Thread(target=...)"
        if submitted is not None:
            # unwrap functools.partial(f, ...)
            if isinstance(submitted, ast.Call):
                inner_path = dotted_name(submitted.func, self.mod.imports)
                if inner_path and inner_path.rsplit(".", 1)[-1] == "partial":
                    if submitted.args:
                        submitted = submitted.args[0]
            qual = self.index.resolve_callable(submitted, self.mod, self.cls)
            if qual is not None:
                self.index.submissions.append(
                    (qual, self.mod, node.lineno, kind)
                )


# ---------------------------------------------------------------------------
# Rule evaluation
# ---------------------------------------------------------------------------

def _closure(
    index: PackageIndex, roots: Sequence[str]
) -> Dict[str, Tuple[str, ...]]:
    """Reachable functions with one witness call path per function."""
    out: Dict[str, Tuple[str, ...]] = {}
    frontier = [(r, (r,)) for r in roots if r in index.functions]
    while frontier:
        qual, path = frontier.pop()
        if qual in out:
            continue
        out[qual] = path
        for callee in index.functions[qual].calls:
            if callee in index.functions and callee not in out:
                frontier.append((callee, path + (callee,)))
    return out


def _unlocked_shared_mutations(
    index: PackageIndex, rec: FuncRec
) -> List[Mutation]:
    """Mutations of ``rec`` that hit shared state without a lock."""
    out = []
    for mut in rec.mutations:
        if mut.locked:
            continue
        if mut.target.startswith("global:"):
            out.append(mut)
        elif mut.target.startswith("self:") and rec.cls is not None:
            # self-state is shared iff an instance of the class lives in
            # a module-level global somewhere in the package
            if any(g.cls == rec.cls for g in index.globals_.values()):
                out.append(mut)
    return out


def check_race(
    modules: Sequence[AuditModule],
    index: Optional[PackageIndex] = None,
) -> Dict[str, List[RawFinding]]:
    """Run the RACE family; findings keyed by module dotted name."""
    if index is None:
        index = PackageIndex(modules)
    findings: Dict[str, List[RawFinding]] = {m.module: [] for m in modules}

    zone = {
        m.module for m in modules if m.in_zone(RACE_ZONE_PREFIXES)
    }

    # RACE001: module-level instances of classes with unlocked self-mutation
    flagged_lines: Set[Tuple[str, int]] = set()
    for grec in index.globals_.values():
        if not grec.cls or grec.module.module not in zone:
            continue
        cls = index.classes.get(grec.cls)
        if cls is None:
            continue
        for mname, fqual in sorted(cls.methods.items()):
            if mname == "__init__":
                continue  # runs before the instance is shared
            frec = index.functions[fqual]
            for mut in frec.mutations:
                if mut.locked or not mut.target.startswith("self:"):
                    continue
                key = (frec.module.module, mut.line)
                if key in flagged_lines:
                    continue
                flagged_lines.add(key)
                findings.setdefault(frec.module.module, []).append(
                    RawFinding(
                        "RACE001",
                        mut.line,
                        f"{cls.qual.rsplit('.', 1)[-1]}.{mname} mutates "
                        f"instance state ({mut.describe}) without a lock, "
                        f"but {grec.qual} is a module-level shared "
                        f"instance reached from executor threads",
                        fix_hint=(
                            "guard the mutation with a threading.Lock "
                            "held for the whole read-modify-write"
                        ),
                    )
                )

    # RACE002: direct unlocked mutation of module-level mutable globals
    for rec in index.functions.values():
        if rec.module.module not in zone:
            continue
        for mut in rec.mutations:
            if mut.locked or not mut.target.startswith("global:"):
                continue
            key = (rec.module.module, mut.line)
            if key in flagged_lines:
                continue
            flagged_lines.add(key)
            findings.setdefault(rec.module.module, []).append(
                RawFinding(
                    "RACE002",
                    mut.line,
                    f"unlocked {mut.describe}: "
                    f"{mut.target[len('global:'):]} is module-level "
                    f"shared mutable state",
                    fix_hint="hold a lock around the mutation",
                )
            )

    # RACE003: executor-submitted callables transitively reaching
    # unsynchronized shared mutations (reported at the submission site)
    reported: Set[Tuple[str, int, str]] = set()
    for qual, mod, line, kind in index.submissions:
        reachable = _closure(index, [qual])
        for fq, path in reachable.items():
            frec = index.functions[fq]
            for mut in _unlocked_shared_mutations(index, frec):
                # A definition-site allow (RACE001/RACE002) covers the
                # concurrency claim; don't demand a second annotation
                # at every submission site that can reach it.
                if any(
                    sup.covers("RACE001") or sup.covers("RACE002")
                    for sup in frec.module.suppressions.get(mut.line, [])
                ):
                    continue
                # definition-side rules already flagged in-zone lines;
                # the submission-site report adds the concurrency proof
                sig = (mod.module, line, mut.target)
                if sig in reported:
                    continue
                reported.add(sig)
                chain = " -> ".join(p.rsplit(".", 2)[-1] if False else p
                                    for p in path)
                findings.setdefault(mod.module, []).append(
                    RawFinding(
                        "RACE003",
                        line,
                        f"callable handed to {kind} reaches an "
                        f"unsynchronized mutation of "
                        f"{mut.target.split(':', 1)[1]} "
                        f"(call path: {chain}; mutation at "
                        f"{frec.module.rel}:{mut.line})",
                        fix_hint=(
                            "synchronize the shared state or confine it "
                            "to one side of the executor boundary"
                        ),
                    )
                )
    return findings
