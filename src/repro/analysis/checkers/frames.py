"""Frame-protocol gating of the remote worker wire format.

``repro.serial.frames`` defines the ``FRAME_*`` kind constants both ends of
the TCP protocol share.  Three invariants guard every new frame kind; this
checker enforces them mechanically:

* every ``FRAME_*`` kind has a **unique** integer value
  (``frame-duplicate-kind``);
* every kind is a member of ``_KNOWN_KINDS`` so ``decode_header`` accepts
  it (``frame-unregistered-kind``);
* every kind is referenced by **both** consumers: the worker's dispatch
  loop (``cluster/worker.py``) and the master-side backend
  (``cluster/backends/remote.py``), so a new frame cannot ship with a
  handler arm missing on one side (``frame-unhandled-kind``).

The checker is silent when the project under analysis has no
``serial/frames.py`` (fixture projects, partial runs).
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

__all__ = ["FrameProtocolChecker"]

FRAMES_MODULE = "serial/frames.py"
#: (consumer description, path suffix) pairs every kind must be handled in
CONSUMERS = (
    ("the worker dispatch loop", "cluster/worker.py"),
    ("the master-side RemoteBackend", "cluster/backends/remote.py"),
)


def _frame_constants(tree: ast.Module) -> dict[str, tuple[int, ast.Assign]]:
    """``FRAME_*`` names bound to integer literals at module level."""
    constants: dict[str, tuple[int, ast.Assign]] = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name) or not target.id.startswith("FRAME_"):
            continue
        if isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, int):
            constants[target.id] = (stmt.value.value, stmt)
    return constants


def _collected_names(node: ast.AST) -> set[str]:
    return {
        child.id for child in ast.walk(node) if isinstance(child, ast.Name)
    }


def _module_binding(tree: ast.Module, name: str) -> ast.expr | None:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt.value
    return None


@register_checker("frame-protocol")
class FrameProtocolChecker(Checker):
    """Unique, registered and handled-on-both-ends ``FRAME_*`` kinds."""

    name = "frame-protocol"
    description = (
        "every FRAME_* kind is unique, in _KNOWN_KINDS, and handled by both "
        "the worker and the master backend"
    )
    rules = {
        "frame-duplicate-kind": "two FRAME_* constants share a kind value",
        "frame-unregistered-kind": (
            "a FRAME_* constant is missing from _KNOWN_KINDS, so "
            "decode_header rejects it"
        ),
        "frame-unhandled-kind": (
            "a FRAME_* constant is never referenced by a protocol consumer "
            "(worker loop or master backend)"
        ),
    }

    def check(self, project: Project) -> Iterator[Finding]:
        frames = project.module_at(FRAMES_MODULE)
        if frames is None or frames.tree is None:
            return
        tree = frames.tree
        constants = _frame_constants(tree)
        if not constants:
            return

        by_value: dict[int, list[str]] = {}
        for name, (value, _node) in constants.items():
            by_value.setdefault(value, []).append(name)
        for value, names in sorted(by_value.items()):
            if len(names) > 1:
                for name in sorted(names)[1:]:
                    yield self.finding(
                        frames,
                        constants[name][1],
                        "frame-duplicate-kind",
                        f"{name} reuses kind value {value} "
                        f"(already taken by {sorted(names)[0]})",
                    )

        known_value = _module_binding(tree, "_KNOWN_KINDS")
        known = _collected_names(known_value) if known_value is not None else set()

        consumer_names: list[tuple[str, str, set[str] | None]] = []
        for label, suffix in CONSUMERS:
            module = project.module_at(suffix)
            names = (
                _collected_names(module.tree)
                if module is not None and module.tree is not None
                else None
            )
            consumer_names.append((label, suffix, names))

        for name, (value, node) in sorted(constants.items()):
            if name not in known:
                yield self.finding(
                    frames,
                    node,
                    "frame-unregistered-kind",
                    f"{name} (kind {value}) is not in _KNOWN_KINDS; "
                    f"decode_header would reject the frame as unknown",
                )
            for label, suffix, names in consumer_names:
                if names is not None and name not in names:
                    yield self.finding(
                        frames,
                        node,
                        "frame-unhandled-kind",
                        f"{name} (kind {value}) is never referenced in "
                        f"{suffix} -- {label} has no arm for it",
                    )
