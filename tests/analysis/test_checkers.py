"""Every built-in checker against its known-good/known-bad fixtures.

Each ``bad`` fixture was written so that specific rules fire on specific
lines; the assertions pin both, so a checker that drifts (wrong rule id,
off-by-one locations, lost findings) fails loudly.  Each ``good`` fixture
exercises the same shapes done correctly and must stay silent.
"""

from pathlib import Path

from repro.analysis import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name, checkers=None):
    root = FIXTURES / name
    return lint_paths([root], root=root, checkers=checkers)


def rule_lines(result):
    return sorted((f.rule, f.path, f.line) for f in result.findings)


# -- lock-discipline -----------------------------------------------------------------
def test_lock_discipline_bad_fixture():
    result = lint_fixture("locks", checkers=["lock-discipline"])
    assert rule_lines(result) == [
        ("lock-blocking-call", "bad.py", 21),
        ("lock-blocking-call", "bad.py", 22),
        ("lock-unguarded-write", "bad.py", 29),
        ("lock-wait-no-timeout", "bad.py", 26),
    ]


def test_lock_discipline_good_fixture_is_clean():
    result = lint_fixture("locks", checkers=["lock-discipline"])
    assert not [f for f in result.findings if f.path == "good.py"]


# -- frozen-config -------------------------------------------------------------------
def test_frozen_config_bad_fixture():
    result = lint_fixture("frozen", checkers=["frozen-config"])
    assert rule_lines(result) == [
        ("frozen-mutation", "bad.py", 20),
        ("frozen-mutation", "bad.py", 21),
        ("frozen-self-mutation", "bad.py", 12),
        ("frozen-self-mutation", "bad.py", 15),
    ]


def test_frozen_config_good_fixture_is_clean():
    result = lint_fixture("frozen", checkers=["frozen-config"])
    assert not [f for f in result.findings if f.path == "good.py"]


# -- exception-hygiene ---------------------------------------------------------------
def test_exception_hygiene_bad_fixture():
    result = lint_fixture("excepts", checkers=["exception-hygiene"])
    assert rule_lines(result) == [
        ("except-bare", "bad.py", 11),
        ("except-swallow", "bad.py", 18),
        ("except-swallow", "bad.py", 27),
    ]


def test_exception_hygiene_good_fixture_is_clean():
    result = lint_fixture("excepts", checkers=["exception-hygiene"])
    assert not [f for f in result.findings if f.path == "good.py"]


# -- determinism ---------------------------------------------------------------------
def test_determinism_bad_fixture():
    result = lint_fixture("determinism/bad", checkers=["determinism"])
    assert rule_lines(result) == [
        ("determinism-entropy", "pricing/cache/impure.py", 23),
        ("determinism-entropy", "pricing/cache/impure.py", 27),
        ("determinism-wall-clock", "pricing/cache/impure.py", 11),
        ("determinism-wall-clock", "pricing/cache/impure.py", 15),
        ("determinism-wall-clock", "pricing/cache/impure.py", 19),
    ]


def test_determinism_good_fixture_is_clean():
    assert lint_fixture("determinism/good", checkers=["determinism"]).ok


# -- frame-protocol ------------------------------------------------------------------
def test_frame_protocol_bad_fixture():
    result = lint_fixture("frames/bad", checkers=["frame-protocol"])
    assert rule_lines(result) == [
        ("frame-duplicate-kind", "serial/frames.py", 8),
        ("frame-unhandled-kind", "serial/frames.py", 9),
        ("frame-unhandled-kind", "serial/frames.py", 10),
        ("frame-unhandled-kind", "serial/frames.py", 10),
        ("frame-unregistered-kind", "serial/frames.py", 10),
    ]
    # the one-sided miss names the consumer without an arm
    one_sided = [
        f for f in result.findings
        if f.rule == "frame-unhandled-kind" and f.line == 9
    ]
    assert "remote.py" in one_sided[0].message


def test_frame_protocol_good_fixture_is_clean():
    assert lint_fixture("frames/good", checkers=["frame-protocol"]).ok


# -- registry-docs -------------------------------------------------------------------
def test_registry_docs_bad_fixture():
    result = lint_fixture("registry/bad", checkers=["registry-docs"])
    assert rule_lines(result) == [
        ("registry-cli-stale", "repro/cli.py", 1),
        ("registry-cli-stale", "repro/cli.py", 1),
        ("registry-doc-missing", "plugins.py", 13),
        ("registry-doc-missing", "plugins.py", 14),
    ]
    messages = "\n".join(f.message for f in result.findings)
    assert "'mqtt'" in messages
    assert "docs/schedulers.md does not exist" in messages


def test_registry_docs_good_fixture_is_clean():
    assert lint_fixture("registry/good", checkers=["registry-docs"]).ok


# -- engine suppressions over a real checker -----------------------------------------
def test_suppress_fixture_mixes_waivers_and_engine_findings():
    result = lint_fixture("suppress")
    assert rule_lines(result) == [
        ("except-swallow", "mixed.py", 22),
        ("suppression-no-reason", "mixed.py", 15),
        ("suppression-unknown-rule", "mixed.py", 22),
    ]
    # the justified waiver and the reason-less one both still suppress
    assert result.suppressed == 2
