"""ASYNC rules: blocking work and lock discipline inside coroutines.

The service runs on a single asyncio loop; one blocking call inside a
coroutine stalls every queued request, stream, and drain.  Four rules:

* **ASYNC001 blocking-call-in-async** — known-blocking calls
  (``time.sleep``, the ``subprocess`` family, ``urllib.request.urlopen``,
  ``socket.create_connection``, ``os.system``) directly inside an
  ``async def``.
* **ASYNC002 untimed-future-result** — ``fut.result()`` with no timeout
  inside an ``async def``: blocks the loop until (if ever) the future
  resolves; await it, or hand it to ``run_in_executor``.
* **ASYNC003 await-holding-lock** — an ``await`` inside a synchronous
  ``with <lock>:`` block: the coroutine parks while holding a
  thread-level lock, deadlocking any executor thread that needs it.
* **ASYNC004 sync-io-in-async** — synchronous file IO (``open``,
  ``Path.read_text``/``write_text``/...) inside an ``async def``
  (warning: fine for tiny config reads, lethal on hot paths).

Only modules under ``repro.service`` are checked — the zone the house
style requires to be loop-clean.  Function bodies
nested *inside* a coroutine (sync helpers destined for an executor)
are excluded.
"""

from __future__ import annotations

import ast
from typing import List

from .modinfo import AuditModule, RawFinding, dotted_name

__all__ = ["check_async", "ASYNC_ZONE_PREFIXES"]

ASYNC_ZONE_PREFIXES = ("repro.service",)

_BLOCKING_CALLS = {
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.system", "os.popen", "os.waitpid",
    "urllib.request.urlopen",
    "socket.create_connection", "socket.getaddrinfo",
}

_SYNC_IO_TAILS = (
    ".read_text", ".write_text", ".read_bytes", ".write_bytes",
)


def _is_lockish(node: ast.expr) -> bool:
    """Heuristic: does this context-manager expression look like a
    thread-level lock?  Matches ``self._lock`` / ``some_lock`` names and
    direct ``threading.Lock()/RLock()/Semaphore()`` constructions."""
    if isinstance(node, ast.Call):
        path = dotted_name(node.func)
        if path and path.rsplit(".", 1)[-1] in (
            "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition"
        ):
            # asyncio primitives are used via `async with`; a *sync*
            # `with` on any of these names is thread-level.
            return True
        return False
    path = dotted_name(node)
    if path is None:
        return False
    tail = path.rsplit(".", 1)[-1].lower()
    return tail == "lock" or tail.endswith("_lock") or tail.endswith("lock")


def _contains_await(node: ast.AST) -> bool:
    if isinstance(node, ast.Await):
        return True
    for child in ast.iter_child_nodes(node):
        # Nested function definitions are other coroutines' business.
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if _contains_await(child):
            return True
    return False


class _AsyncVisitor(ast.NodeVisitor):
    def __init__(self, module: AuditModule) -> None:
        self.module = module
        self.findings: List[RawFinding] = []
        self._async_depth = 0

    # -- scope tracking ---------------------------------------------------
    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._async_depth += 1
        self.generic_visit(node)
        self._async_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A sync def nested in a coroutine runs elsewhere (executor
        # thunk, callback) — its blocking calls are out of scope here.
        saved = self._async_depth
        self._async_depth = 0
        self.generic_visit(node)
        self._async_depth = saved

    # -- rules ------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self._async_depth:
            path = dotted_name(node.func, self.module.imports)
            if path in _BLOCKING_CALLS:
                self.findings.append(
                    RawFinding(
                        "ASYNC001",
                        node.lineno,
                        f"blocking call {path} inside async def stalls "
                        f"the event loop",
                        fix_hint=(
                            "await asyncio.sleep / run_in_executor the "
                            "blocking work"
                        ),
                    )
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "result"
                and not node.args
                and not node.keywords
            ):
                self.findings.append(
                    RawFinding(
                        "ASYNC002",
                        node.lineno,
                        "untimed Future.result() inside async def blocks "
                        "the loop until the future resolves",
                        fix_hint="await the future (or wrap_future) instead",
                    )
                )
            elif path == "open" or (
                path is not None
                and any(path.endswith(t) for t in _SYNC_IO_TAILS)
            ):
                self.findings.append(
                    RawFinding(
                        "ASYNC004",
                        node.lineno,
                        f"synchronous file IO ({path}) inside async def",
                        fix_hint="move file IO to an executor on hot paths",
                    )
                )
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        if self._async_depth:
            for item in node.items:
                if _is_lockish(item.context_expr) and any(
                    _contains_await(stmt) for stmt in node.body
                ):
                    self.findings.append(
                        RawFinding(
                            "ASYNC003",
                            node.lineno,
                            "await while holding a thread-level lock: the "
                            "coroutine parks with the lock held, "
                            "deadlocking executor threads that need it",
                            fix_hint=(
                                "release the lock before awaiting, or use "
                                "asyncio.Lock with `async with`"
                            ),
                        )
                    )
                    break
        self.generic_visit(node)


def check_async(module: AuditModule) -> List[RawFinding]:
    """Run the ASYNC family over one module (zone-gated by the engine)."""
    visitor = _AsyncVisitor(module)
    visitor.visit(module.tree)
    return visitor.findings
