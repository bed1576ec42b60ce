"""Every import in the package and the tests is used in its module, and
importing the package loads no module that only slows start-up."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import krcubic

PACKAGE = Path(krcubic.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _imported(tree) -> dict[str, int]:
    """Name bound by each import statement -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        yield getattr(node, "annotation", None)  # ast.arg, ast.AnnAssign
        yield getattr(node, "returns", None)     # function definitions


def _referenced(tree) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _referenced(ast.parse(node.value, mode="eval"))
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue  # its imports are the package's re-exports
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _referenced(tree)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported(tree).items() if name not in used]
    assert not unused, unused


# dataclasses pulls in inspect, ast, dis and tokenize; typing and
# importlib.resources are costly too, and the package needs none of them
# to start
SLOW_TO_IMPORT = ("dataclasses", "inspect", "typing", "importlib.resources")

PROBE = """
import json, sys
before = set(sys.modules)
import krcubic
added = set(sys.modules) - before
print(json.dumps({"file": krcubic.__file__,
                  "before": sorted(before.intersection(SLOW)),
                  "added": sorted(added.intersection(SLOW))}))
"""


def test_import_loads_no_slow_modules():
    # -S skips site, whose .pth files may load typing or importlib.resources
    # themselves and so hide them from the comparison
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"SLOW = {SLOW_TO_IMPORT!r}" + PROBE],
        capture_output=True, text=True, env=env, check=True)
    seen = json.loads(proc.stdout)
    assert Path(seen["file"]).resolve().parent == PACKAGE
    assert seen["before"] == []  # else the check below could not see them
    assert seen["added"] == []
