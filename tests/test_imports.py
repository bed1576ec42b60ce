"""Every import in the package and the tests is used in its module."""

import ast
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
