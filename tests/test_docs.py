"""Documentation checks: links must resolve, python snippets must run.

Docs rot in two ways: relative links break when files move, and code
snippets drift away from the API they illustrate.  Both are cheap to catch
mechanically, so this module

* link-checks ``README.md`` and every page under ``docs/`` (relative
  targets must exist in the repository; external URLs are not fetched);
* executes the fenced ``python`` blocks of ``README.md`` and of every
  ``docs/*.md`` page top-to-bottom in one namespace per file (doctest-style:
  later blocks may use names defined by earlier ones).

Writing a docs page therefore comes with a contract: every ```` ```python ````
fence must actually run (use another info string -- ``text``, ``pycon`` --
for illustrative fragments).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_PAGES = sorted((REPO_ROOT / "docs").glob("*.md"))
LINKED_PAGES = [REPO_ROOT / "README.md", *DOC_PAGES]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^```(\w*)\s*$")


def _iter_links(text: str):
    """Markdown link targets outside fenced code blocks."""
    in_fence = False
    for line in text.splitlines():
        if _FENCE.match(line) or line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield from _LINK.findall(line)


def _fenced_blocks(text: str, language: str) -> list[str]:
    blocks: list[str] = []
    current: list[str] | None = None
    for line in text.splitlines():
        match = _FENCE.match(line)
        if current is None and match and match.group(1) == language:
            current = []
        elif current is not None and line.strip().startswith("```"):
            blocks.append("\n".join(current))
            current = None
        elif current is not None:
            current.append(line)
    return blocks


@pytest.mark.parametrize("page", LINKED_PAGES, ids=lambda p: p.name)
def test_relative_links_resolve(page: Path):
    broken = []
    for target in _iter_links(page.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not (page.parent / path).exists():
            broken.append(target)
    assert not broken, f"broken relative links in {page.name}: {broken}"


def test_docs_directory_is_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/architecture.md" in readme
    assert "docs/backends.md" in readme


@pytest.fixture
def _pristine_registries():
    """Snapshot the scheduler/backend registries around snippet execution.

    The worked examples in the docs end in ``register_scheduler`` /
    ``register_backend`` -- the point of the pages -- which would otherwise
    leak demo entries into the process-global registries and break
    exact-set registry assertions elsewhere in the suite.
    """
    from repro.cluster.backends import _BACKEND_REGISTRY
    from repro.core.scheduler import SCHEDULERS

    schedulers, backends = dict(SCHEDULERS), dict(_BACKEND_REGISTRY)
    try:
        yield
    finally:
        SCHEDULERS.clear()
        SCHEDULERS.update(schedulers)
        _BACKEND_REGISTRY.clear()
        _BACKEND_REGISTRY.update(backends)


@pytest.mark.parametrize("page", DOC_PAGES, ids=lambda p: p.name)
def test_docs_python_snippets_execute(page: Path, _pristine_registries):
    blocks = _fenced_blocks(page.read_text(encoding="utf-8"), "python")
    assert blocks, f"{page.name} has no runnable python snippet"
    namespace: dict = {"__name__": f"docs_snippet_{page.stem}"}
    for index, block in enumerate(blocks):
        # dont_inherit: snippets must behave like standalone modules, not
        # inherit this file's `from __future__ import annotations`
        code = compile(
            block, f"{page.name}[python block {index + 1}]", "exec", dont_inherit=True
        )
        exec(code, namespace)  # noqa: S102 - executing our own documentation


def test_readme_python_blocks_execute(tmp_path, monkeypatch):
    """Every README ``python`` fence, in order, in one namespace (the
    Quickstart defines what the later ones use), run from a temporary
    directory so a relative path in an example lands there."""
    blocks = _fenced_blocks((REPO_ROOT / "README.md").read_text(encoding="utf-8"), "python")
    assert len(blocks) >= 5
    monkeypatch.chdir(tmp_path)
    namespace: dict = {"__name__": "readme_snippets"}
    for index, block in enumerate(blocks):
        code = compile(block, f"README.md[python block {index + 1}]", "exec", dont_inherit=True)
        exec(code, namespace)  # noqa: S102 - executing our own documentation
