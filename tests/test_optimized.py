"""The checks must survive ``python -O``, which strips every ``assert``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import krcubic
from krcubic.claims import SHIPPED_MANIFESTS

PACKAGE = Path(krcubic.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert is stripped under -O; raise instead: {found}"


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
