"""The checks must survive ``python -O``, which strips every ``assert``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import krcubic

from conftest import SHIPPED_MANIFESTS

PACKAGE = Path(krcubic.__file__).resolve().parent


def _is_postcondition_assertion(node) -> bool:
    """``raise AssertionError("message")``: a postcondition that escapes the
    KrError handlers.  Unreachable-branch guards such as
    ``raise AssertionError(kind)`` pass a value, not a literal, and stay."""
    exc = node.exc if isinstance(node, ast.Raise) else None
    return (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
            and exc.func.id == "AssertionError" and len(exc.args) == 1
            and isinstance(exc.args[0], ast.Constant)
            and isinstance(exc.args[0].value, str))


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert) or _is_postcondition_assertion(node)]
    assert not found, ("assert is stripped under -O and AssertionError escapes "
                       f"the KrError handlers; raise PostconditionError: {found}")


def _check_shipped(flags, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "krcubic.cli", "check", *SHIPPED_MANIFESTS,
         "--format", "json"],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=300)
    # one JSON report per manifest, printed one after another
    rest, statuses = proc.stdout.lstrip(), []
    while rest:
        report, end = json.JSONDecoder().raw_decode(rest)
        statuses.append([(c["label"], c["status"]) for c in report["claims"]])
        rest = rest[end:].lstrip()
    return proc.returncode, statuses


def test_cli_verdicts_unchanged_under_optimize(tmp_path):
    plain = _check_shipped([], tmp_path)
    optimized = _check_shipped(["-O"], tmp_path)
    assert len(plain[1]) == len(SHIPPED_MANIFESTS)
    assert optimized == plain
