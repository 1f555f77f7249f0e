"""Lock discipline in the threaded layers (``serve``, ``cluster``).

The serving daemon and the worker run real threads around shared state:
``PricingService`` has an executor thread beside the HTTP handlers, ``JobTable``
records are touched by HTTP handlers, the executor and SSE streamers, and
each worker connection prices jobs on a compute lane next to its receive
loop.  Two mistakes are easy to make and expensive to debug:

* calling something that can block -- a socket read, a queue pop, a
  ``collect`` -- while a lock is held, which turns one slow peer into a
  daemon-wide stall (``lock-blocking-call``), or waiting on a condition
  variable with no timeout, which turns one missed ``notify`` into a hang
  (``lock-wait-no-timeout``);
* guarding an attribute with a lock in one method and writing it bare in
  another, which is a data race the tests only catch probabilistically
  (``lock-unguarded-write``, applied to classes that start threads).

Lock scopes are recognised lexically: any ``with`` statement whose context
expression is a name or attribute containing ``lock``, ``cond`` or
``mutex`` (``with self._state_lock:``, ``with send_lock:``).  Nested
``def``/``lambda`` bodies are not treated as executing under the enclosing
lock -- they usually run later, on another thread.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleInfo,
    Project,
    register_checker,
)

__all__ = ["LockDisciplineChecker"]

_LOCKISH = re.compile(r"(^|_)(lock|cond|mutex)", re.IGNORECASE)

#: attribute calls considered blocking regardless of the receiver
_BLOCKING_ATTRS = frozenset({"recv", "recv_into", "accept", "connect", "sendall"})

#: ``.get(...)`` receivers considered queue-like (``dict.get`` is not blocking)
_QUEUEISH = re.compile(r"queue", re.IGNORECASE)


def _name_of(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_lockish(node: ast.expr) -> bool:
    name = _name_of(node)
    return name is not None and _LOCKISH.search(name) is not None


def _held_locks(node: ast.With) -> list[str]:
    held = []
    for item in node.items:
        if _is_lockish(item.context_expr):
            held.append(_name_of(item.context_expr) or "<lock>")
    return held


def _spawns_threads(class_node: ast.ClassDef) -> bool:
    """Does this class start ``threading.Thread`` (or a Process) anywhere?"""
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("Thread", "Process"):
            return True
        if isinstance(func, ast.Name) and func.id in ("Thread", "Process"):
            return True
    return False


def _wait_has_timeout(call: ast.Call, attr: str) -> bool:
    """Does a ``.wait()`` / ``.wait_for()`` call carry a (non-None) timeout?"""
    for keyword in call.keywords:
        if keyword.arg == "timeout":
            return not (
                isinstance(keyword.value, ast.Constant) and keyword.value.value is None
            )
    # positionally: ``wait(timeout)`` / ``wait_for(predicate, timeout)``
    needed = 1 if attr == "wait" else 2
    return len(call.args) >= needed


def _walk_pruning_lambdas(expr: ast.expr) -> Iterator[ast.AST]:
    """Like :func:`ast.walk` but never descends into a ``lambda`` body.

    A lambda passed around under a lock usually runs later, on another
    thread, without the lock -- its body must not count as lock-held code.
    """
    stack: list[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _classify_blocking(call: ast.Call) -> str | None:
    """A short description when ``call`` can block, else ``None``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        attr = func.attr
        if attr in _BLOCKING_ATTRS:
            return f"socket .{attr}()"
        if attr == "sleep" and _name_of(func.value) == "time":
            return "time.sleep()"
        if attr == "collect":
            return ".collect()"
        if attr == "get":
            receiver = _name_of(func.value)
            if receiver is not None and _QUEUEISH.search(receiver):
                return f"{receiver}.get()"
        if attr == "join" and _name_of(func.value) in ("thread", "process"):
            return f"{_name_of(func.value)}.join()"
        return None
    if isinstance(func, ast.Name) and func.id == "sleep":
        return "sleep()"
    return None


@register_checker("lock-discipline")
class LockDisciplineChecker(Checker):
    """Blocking work under held locks; racy writes in threaded classes."""

    name = "lock-discipline"
    description = (
        "no blocking calls or unbounded condition waits inside lock scopes; "
        "lock-guarded attributes are never written bare in threaded classes"
    )
    rules = {
        "lock-blocking-call": (
            "a call that can block (socket read/send, queue get, sleep, "
            "collect) happens while a lock is held"
        ),
        "lock-wait-no-timeout": (
            "a condition/event wait inside a lock scope has no timeout"
        ),
        "lock-unguarded-write": (
            "an attribute written under a lock elsewhere is written without "
            "it in a class that starts threads"
        ),
    }

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.walk():
            assert module.tree is not None
            yield from self._check_blocking(module, module.tree)
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class_writes(module, node)

    # -- blocking calls under a held lock ---------------------------------------
    def _check_blocking(
        self, module: ModuleInfo, tree: ast.Module
    ) -> Iterator[Finding]:
        yield from self._walk_body(module, tree.body, held=[])

    def _walk_body(
        self, module: ModuleInfo, body: list[ast.stmt], held: list[str]
    ) -> Iterator[Finding]:
        for stmt in body:
            yield from self._walk_stmt(module, stmt, held)

    def _walk_stmt(
        self, module: ModuleInfo, stmt: ast.stmt, held: list[str]
    ) -> Iterator[Finding]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested def does not run under the enclosing lock
            yield from self._walk_body(module, stmt.body, held=[])
            return
        if isinstance(stmt, ast.ClassDef):
            yield from self._walk_body(module, stmt.body, held=[])
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            locks = _held_locks(stmt) if isinstance(stmt, ast.With) else []
            if held:
                # expressions in the with items run under the outer lock
                for item in stmt.items:
                    yield from self._check_expr(module, item.context_expr, held)
            yield from self._walk_body(module, stmt.body, held + locks)
            return
        if held:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    yield from self._check_expr(module, child, held)
        # sub-statements (if/for/try bodies) keep the held set
        for field_body in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, field_body, None)
            if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                yield from self._walk_body(module, sub, held)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from self._walk_body(module, handler.body, held)

    def _check_expr(
        self, module: ModuleInfo, expr: ast.expr, held: list[str]
    ) -> Iterator[Finding]:
        for node in _walk_pruning_lambdas(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in ("wait", "wait_for"):
                if not _wait_has_timeout(node, func.attr):
                    yield self.finding(
                        module,
                        node,
                        "lock-wait-no-timeout",
                        f".{func.attr}() without a timeout while holding "
                        f"{', '.join(held)}: one missed notify hangs this "
                        f"thread forever",
                    )
                continue
            what = _classify_blocking(node)
            if what is not None:
                yield self.finding(
                    module,
                    node,
                    "lock-blocking-call",
                    f"{what} can block while {', '.join(held)} is held; "
                    f"move the blocking work outside the lock scope",
                )

    # -- attributes written both under and outside a lock ------------------------
    def _check_class_writes(
        self, module: ModuleInfo, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        if not _spawns_threads(class_node):
            return
        locked: dict[str, list[ast.AST]] = {}
        bare: dict[str, list[ast.AST]] = {}
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in ("__init__", "__new__", "__post_init__"):
                continue  # construction happens before any thread exists
            args = method.args.posonlyargs + method.args.args
            if not args:
                continue
            self_name = args[0].arg
            for name, node, under_lock in self._self_writes(method, self_name):
                (locked if under_lock else bare).setdefault(name, []).append(node)
        for name in sorted(set(locked) & set(bare)):
            for node in bare[name]:
                yield self.finding(
                    module,
                    node,
                    "lock-unguarded-write",
                    f"self.{name} is written under a lock elsewhere in "
                    f"{class_node.name} (which starts threads) but written "
                    f"bare here",
                )

    def _self_writes(
        self, method: ast.FunctionDef | ast.AsyncFunctionDef, self_name: str
    ) -> Iterator[tuple[str, ast.AST, bool]]:
        """(attribute, node, written-under-lock) for ``self.x = ...`` stores."""

        def walk(
            body: list[ast.stmt], depth: int
        ) -> Iterator[tuple[str, ast.AST, bool]]:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # nested defs: different execution context
                inner = depth
                if isinstance(stmt, ast.With) and _held_locks(stmt):
                    inner = depth + 1
                targets: list[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = list(stmt.targets)
                elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                    targets = [stmt.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        yield target.attr, stmt, inner > 0
                for field_body in ("body", "orelse", "finalbody"):
                    sub = getattr(stmt, field_body, None)
                    if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                        yield from walk(sub, inner)
                for handler in getattr(stmt, "handlers", []) or []:
                    yield from walk(handler.body, inner)

        yield from walk(method.body, 0)
