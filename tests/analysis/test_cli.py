"""The repro-lint command line: formats, selection, exit codes."""

import json
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv):
    return main(list(argv))


def test_exit_zero_on_clean_tree(capsys):
    root = str(FIXTURES / "frames" / "good")
    assert run_cli(root, "--root", root) == 0
    out = capsys.readouterr().out
    assert out.startswith("clean:")


def test_exit_one_on_findings_text_format(capsys):
    root = str(FIXTURES / "excepts")
    assert run_cli(root, "--root", root, "--checkers", "exception-hygiene") == 1
    out = capsys.readouterr().out
    assert "bad.py:11:4: except-bare:" in out
    assert "3 finding(s)" in out


def test_exit_two_on_missing_path(capsys):
    assert run_cli(str(FIXTURES / "no-such-dir")) == 2
    err = capsys.readouterr().err
    assert "no such file or directory" in err


def test_exit_two_on_unknown_checker(capsys):
    root = str(FIXTURES / "excepts")
    assert run_cli(root, "--root", root, "--checkers", "bogus") == 2
    assert "unknown checker" in capsys.readouterr().err


def test_json_format_is_machine_readable(capsys):
    root = str(FIXTURES / "suppress")
    assert run_cli(root, "--root", root, "--format", "json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["suppressed"] == 2
    assert payload["modules"] == 1
    rules = sorted(f["rule"] for f in payload["findings"])
    assert rules == [
        "except-swallow",
        "suppression-no-reason",
        "suppression-unknown-rule",
    ]
    first = payload["findings"][0]
    assert set(first) == {"path", "line", "col", "rule", "message", "checker"}


def test_list_rules_covers_every_builtin_rule(capsys):
    assert run_cli("--list-rules") == 0
    out = capsys.readouterr().out
    for rule in (
        "syntax-error",
        "suppression-no-reason",
        "suppression-unknown-rule",
        "lock-blocking-call",
        "lock-wait-no-timeout",
        "lock-unguarded-write",
        "frame-duplicate-kind",
        "frame-unregistered-kind",
        "frame-unhandled-kind",
        "frozen-self-mutation",
        "frozen-mutation",
        "determinism-wall-clock",
        "determinism-entropy",
        "registry-doc-missing",
        "registry-cli-stale",
        "except-bare",
        "except-swallow",
    ):
        assert rule in out, f"--list-rules is missing {rule}"
