"""Every import in the package and the tests is used in its module, every
export and public top-level name is used inside the package, and importing the
package loads no module that only slows start-up."""

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


def _defined(node) -> set[str]:
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = getattr(node, "targets", [getattr(node, "target", None)])
    return {n.id for t in filter(None, targets) for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def test_every_export_is_used_in_the_package():
    # a public name only the tests reach is dead weight in the kernel: every
    # export, every public top-level name of a module and every public method
    # of a class is used in the package, a method by an attribute read of its name
    used, public, methods, read = set(), set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            read |= {n.attr for n in ast.walk(node)
                     if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
            used |= (_referenced(node) | set(_imported(node)) | attrs) - _defined(node)
            public |= {(path.stem, name) for name in _defined(node) if not name.startswith("_")}
            if isinstance(node, ast.ClassDef):
                methods |= {(path.stem, node.name, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")}
    unused = sorted(set(krcubic.__all__) - used)
    unused += sorted(f"{module}.{name}" for module, name in public if name not in used)
    unused += sorted(f"{module}.{cls}.{name}" for module, cls, name in methods
                     if name not in read)
    assert not unused, unused


# Only the kernel reads a polynomial's denominator, term dict and exponent
# bound, a coefficient's int triple, or a table's name index and monomial-key
# layout; every other module goes through the accessors
KERNEL = {"coeff", "poly"}
REPRESENTATION = {"den", "terms", "_reach", "_a", "_b", "_d", "_index",
                  "_origin", "_units", "_exps"}
# every private name that one package module imports from another; poly
# takes the triple's formulas from coeff, their one home
PRIVATE_IMPORTS = {
    ("poly", "coeff", "_make"), ("poly", "coeff", "_part"), ("poly", "coeff", "_try"),
    ("poly", "coeff", "_triple"), ("poly", "coeff", "_times"), ("poly", "coeff", "_inverse"),
    ("poly", "coeff", "_scaled"),
    ("claims", "coeff", "_make"),  # a p/q literal, built from its ints
    ("groebner", "geometry", "_center"),  # singular_at stays in groebner
}


def test_only_the_kernel_reads_the_representation():
    reads, private = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem not in KERNEL:
            reads += [f"{path.name}:{n.lineno}: .{n.attr}" for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute) and n.attr in REPRESENTATION]
        private |= {(path.stem, node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level
                    for alias in node.names if alias.name.startswith("_")}
    assert not reads, reads
    assert private == PRIVATE_IMPORTS
    # division lives in poly; groebner binds the same function, so the
    # traced groebner.reduce layer counts every division
    assert krcubic.groebner.reduce is krcubic.poly.reduce


def _transport_sites(node, scope=()):
    """The enclosing def/class path of each reference to 'transport' under
    node; the method's own definition is marked as such."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
            if child.name == "transport":
                yield ".".join(inner) + " (definition)"
        elif getattr(child, "attr", getattr(child, "id", None)) == "transport":
            yield ".".join(scope)
        yield from _transport_sites(child, inner)


def test_tables_are_crossed_only_on_purpose():
    # every other kernel entry point raises TableMismatchError on an operand
    # over another table (VarTable.coerce); these cross tables by name
    sites = {f"{path.stem}:{site}" for path in PACKAGE.glob("*.py")
             for site in _transport_sites(ast.parse(path.read_text(encoding="utf-8")))}
    assert sites == {"poly:Polynomial.transport (definition)",
                     "claims:eval_node",  # a let, read into the ring that evaluates it
                     "groebner:member",  # saturation, in a wider table
                     "morphism:extend_to_quotient_automorphism"}  # a base-ring map


def test_the_parser_only_parses():
    # the parser reaches no kernel module: evaluation, literals included,
    # lives in claims.py; geometry gives only CONE_TAGS, a tuple of strings
    imported, names = set(), {}
    for node in ast.walk(ast.parse((PACKAGE / "parser.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + node.module)
            names["." * node.level + node.module] = {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert imported == {"__future__", "re", ".errors", ".geometry"}
    assert names[".geometry"] == {"CONE_TAGS"}


def test_only_the_parser_reads_argument_shapes():
    # claims.py evaluates an argument by its structure, not by the shape the
    # parser read it for
    tree = ast.parse((PACKAGE / "claims.py").read_text(encoding="utf-8"))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert named & {"CLAIMS", "BUILTINS", "CONSTRUCTORS", "INVERSE"} == set()


# dataclasses pulls in inspect, ast, dis and tokenize; typing and
# importlib.resources are costly too, and so is fractions, which pulls in
# decimal, and json, which only Report.to_json needs; the package needs none
# of them to start
SLOW_TO_IMPORT = ("dataclasses", "inspect", "typing", "importlib.resources",
                  "fractions", "decimal", "json")

# json, to print the result, is imported only after the comparison
PROBE = """
import sys
before = set(sys.modules)
import krcubic
added = set(sys.modules) - before
import json
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


# autgroup.krv reaches substitute, reduce and exact_divide, and its extend
# inverts an Eisenstein coefficient; embeddings.krv reaches classify_quadric,
# whose Gram matrix minors multiply and subtract Eisenstein coefficients
# (autgroup.krv adds and multiplies none)
TRACE_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer
from krcubic import claims
spans = tracer.install()
reports = [claims.run_file(name) for name in ("autgroup.krv", "embeddings.krv")]
print(json.dumps({"all_pass": all(r.all_pass for r in reports),
                  "layers": tracer.layer_metrics(spans)}))
"""


def test_bench_tracer_binds_every_traced_function():
    # install() raises if a traced kernel function is bound nowhere, or if an
    # alias of one escapes its wrapper; it rewrites module globals, so it runs
    # in a process of its own
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_PROBE, str(TESTS.parent / "bench")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["all_pass"]
    for layer in ("coeff.mul", "coeff.add", "coeff.inverse", "poly.substitute",
                  "groebner.reduce", "morphism.exact_divide"):
        assert seen["layers"][f"{layer}.calls"] > 0, layer
