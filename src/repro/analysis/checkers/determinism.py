"""No wall clock or entropy in the bit-identical subsystems.

Five subsystems promise determinism by construction:

* ``pricing/cache`` -- SHA-256 problem digests key the result cache; two
  runs of the same problem must digest identically on any machine, or the
  cache silently stops hitting;
* ``pricing/batch`` -- shared-path batch pricing is bit-identical to solo
  pricing *because* every random number comes from the injected, seeded
  rng (:mod:`repro.pricing.rng`);
* ``pricing/kernel`` -- the Monte-Carlo estimator loop promises the same
  bits under both its settings and against the per-group oracle; a
  wall-clock or entropy read would break the differential harness and the
  pinned draw digests;
* ``pricing/scenarios`` -- the scenario-grid engine promises batched CRN
  Greeks bit-identical to the serial bump-and-revalue oracle; scenario
  expansion and Greek assembly must stay pure arithmetic over the seeded
  methods they price;
* ``cluster/simcluster`` -- the discrete-event cluster runs in pure
  virtual time; a single wall-clock read would make the paper-table
  reproductions flaky.

Any call into a wall clock (``time.time``, ``datetime.now``, ...) is
``determinism-wall-clock``; any call into an entropy source
(``os.urandom``, ``uuid.uuid4``, ``secrets.*``, module-level ``random.*``
functions) is ``determinism-entropy``.  ``random.Random(seed)`` -- an
explicitly seeded instance handed in by the caller -- stays allowed; the
global ``random`` functions do not, because their state is shared and
unseeded.  Imports are resolved per module (``from time import time`` is
caught too); modules outside the scoped path fragments are ignored.
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

__all__ = ["DeterminismChecker"]

#: path fragments selecting the modules under the determinism contract
SCOPES = ("pricing/cache", "pricing/batch", "pricing/kernel",
          "pricing/scenarios", "cluster/simcluster")

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
    }
)
_ENTROPY = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid3",
        "uuid.uuid4",
        "uuid.uuid5",
    }
)
#: module prefixes where *every* function call is an entropy source ...
_ENTROPY_PREFIXES = ("secrets.", "random.")
#: ... except these (seedable/injectable constructors)
_ENTROPY_ALLOWED = frozenset({"random.Random"})


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin, from this module's import statements."""
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def _dotted(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Resolve ``a.b.c`` call targets through the module's imports."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = imports.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def _classify(dotted: str) -> tuple[str, str] | None:
    """(rule, what) when ``dotted`` is a banned source, else ``None``."""
    if dotted in _WALL_CLOCK:
        return "determinism-wall-clock", dotted
    if dotted in _ENTROPY:
        return "determinism-entropy", dotted
    if dotted in _ENTROPY_ALLOWED:
        return None
    for prefix in _ENTROPY_PREFIXES:
        if dotted.startswith(prefix):
            return "determinism-entropy", dotted
    return None


@register_checker("determinism")
class DeterminismChecker(Checker):
    """Wall-clock and entropy calls inside the deterministic subsystems."""

    name = "determinism"
    description = (
        "pricing/cache, pricing/batch, pricing/kernel, pricing/scenarios "
        "and cluster/simcluster never read a wall clock or an entropy "
        "source; randomness is injected and seeded"
    )
    rules = {
        "determinism-wall-clock": (
            "a deterministic module reads the wall clock (time.time, "
            "datetime.now, ...)"
        ),
        "determinism-entropy": (
            "a deterministic module draws entropy (os.urandom, uuid, "
            "secrets, unseeded module-level random)"
        ),
    }

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.walk():
            if not any(scope in module.relpath for scope in SCOPES):
                continue
            assert module.tree is not None
            imports = _import_map(module.tree)
            yield from self._check_module(module, imports)

    def _check_module(
        self, module: ModuleInfo, imports: dict[str, str]
    ) -> Iterator[Finding]:
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func, imports)
            if dotted is None:
                continue
            hit = _classify(dotted)
            if hit is None:
                continue
            rule, what = hit
            source = "the wall clock" if rule == "determinism-wall-clock" else "entropy"
            yield self.finding(
                module,
                node,
                rule,
                f"{what}() reads {source} inside a bit-identical subsystem "
                f"({module.relpath}); inject the value (or a seeded rng) "
                f"from the caller instead",
            )
