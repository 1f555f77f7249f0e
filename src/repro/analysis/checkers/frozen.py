"""No mutation of frozen config dataclasses.

``BackendSpec``, ``ServerConfig``, ``PaperTable`` (and every other
``@dataclass(frozen=True)``) are frozen on purpose: sessions hash them,
retries rebuild backends from them, and a mutation anywhere would silently
fork the configuration two subsystems think they share.  Python only
enforces this at runtime -- on the exact line executed -- so this checker
enforces it statically:

* inside a frozen dataclass, any plain ``self.attr = ...`` raises
  ``FrozenInstanceError`` at runtime, even in ``__post_init__`` (the
  sanctioned idiom is ``object.__setattr__(self, "attr", ...)``) --
  ``frozen-self-mutation``;
* outside, a local variable bound to ``FrozenClass(...)`` must never be
  assigned through (``spec.name = ...``) or passed to ``setattr`` --
  ``frozen-mutation``.

Frozen classes are discovered project-wide first (any class decorated with
``dataclass(frozen=True)``), so the checker follows new config types
automatically.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleInfo,
    Project,
    register_checker,
)

__all__ = ["FrozenConfigChecker"]


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def _frozen_class_names(project: Project) -> set[str]:
    names: set[str] = set()
    for module in project.walk():
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node):
                names.add(node.name)
    return names


@register_checker("frozen-config")
class FrozenConfigChecker(Checker):
    """Assignments through instances (or ``self``) of frozen dataclasses."""

    name = "frozen-config"
    description = (
        "frozen dataclasses (BackendSpec, ServerConfig, PaperTable, ...) are "
        "never mutated: no attribute assignment, no setattr"
    )
    rules = {
        "frozen-self-mutation": (
            "plain self.attr assignment inside a frozen dataclass (raises "
            "FrozenInstanceError at runtime; use object.__setattr__)"
        ),
        "frozen-mutation": (
            "attribute assignment or setattr on an instance of a frozen "
            "dataclass"
        ),
    }

    def check(self, project: Project) -> Iterator[Finding]:
        frozen_names = _frozen_class_names(project)
        for module in project.walk():
            assert module.tree is not None
            functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
            nested: set[ast.AST] = set()
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node):
                    yield from self._check_frozen_class(module, node)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.append(node)
                    for child in ast.walk(node):
                        if child is not node and isinstance(
                            child, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            nested.add(child)
            if frozen_names:
                # nested defs are scanned as part of their enclosing scope
                # (closures see the outer bindings), never twice
                for func in functions:
                    if func not in nested:
                        yield from self._check_function(module, func, frozen_names)

    # -- plain self-assignment inside the frozen class itself ---------------------
    def _check_frozen_class(
        self, module: ModuleInfo, class_node: ast.ClassDef
    ) -> Iterator[Finding]:
        for method in class_node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue  # a hand-written __init__ owns its own invariants
            args = method.args.posonlyargs + method.args.args
            if not args:
                continue
            self_name = args[0].arg
            for node in ast.walk(method):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                    ):
                        yield self.finding(
                            module,
                            node,
                            "frozen-self-mutation",
                            f"self.{target.attr} = ... inside frozen dataclass "
                            f"{class_node.name}.{method.name} raises "
                            f"FrozenInstanceError at runtime; use "
                            f'object.__setattr__(self, "{target.attr}", ...)',
                        )

    # -- mutation of locals inferred to hold frozen instances ---------------------
    def _check_function(
        self,
        module: ModuleInfo,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        frozen_names: set[str],
    ) -> Iterator[Finding]:
        bound: dict[str, str] = {}
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    cls = self._constructed_class(stmt.value, frozen_names)
                    if cls is not None:
                        bound[target.id] = cls
                    elif target.id in bound:
                        del bound[target.id]  # rebound to something else
        if not bound:
            return
        for node in ast.walk(func):
            targets = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in bound
                ):
                    cls = bound[target.value.id]
                    yield self.finding(
                        module,
                        node,
                        "frozen-mutation",
                        f"{target.value.id}.{target.attr} = ... mutates frozen "
                        f"dataclass {cls}; build a new instance "
                        f"(dataclasses.replace) instead",
                    )
            if isinstance(node, ast.Call):
                func_name = getattr(node.func, "id", None)
                if (
                    func_name == "setattr"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in bound
                ):
                    cls = bound[node.args[0].id]
                    yield self.finding(
                        module,
                        node,
                        "frozen-mutation",
                        f"setattr on {node.args[0].id} mutates frozen "
                        f"dataclass {cls}; build a new instance "
                        f"(dataclasses.replace) instead",
                    )

    @staticmethod
    def _constructed_class(value: ast.expr, frozen_names: set[str]) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in frozen_names:
            return name
        return None
