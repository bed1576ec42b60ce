"""Evaluate parsed units, in order, into structured pass/fail reports.

elaborate evaluates the declarations, a ring into its one VarTable, then each
claim's kind's entry in VERDICTS decides it; both evaluate syntax, as written,
through eval_node and operands.  The parser makes equal subexpressions of a
unit one node, and eval_node keeps each node's value in the _values of the
table it is evaluated over, next to its Groebner bases (_bases), so each is
computed once per ring; a node whose evaluation fails keeps nothing, and
fails again in each claim that reads it.  Only the parser knows argument shapes:
operands evaluates an argument by its structure, and a built-in or
constructor call is one Call node, whose value its entry in CALLS gives.  A
declaration builds a value and a claim makes a check, with its own status;
inverse(A, B), the one declaration that checks, is kept for generated
manifests that write it.  A failing declaration stops the unit with a
positioned ParseError; a failing claim is recorded as that claim's 'fail' or
'error' and the run goes on.  Narrative entries aggregate the statuses of the
claims they cite: they mark conclusions that follow from the listed
computations plus imported theory.

Reports are deterministic across runs except for the timing fields.
"""

from __future__ import annotations

import time

from .coeff import OMEGA, _make
from .errors import KrError, Record, error_at
from .geometry import classify_quadric, graph_variable_check, tangent_cone
from .groebner import member, singular_at, smooth_everywhere
from .morphism import (QuotientRelation, RingMap, compose, exact_divide,
                       extend_to_quotient_automorphism, jacobian, normal_form, verify_inverse_pair)
from .derivation import (Derivation, conjugate, nilpotency_certificate, substitute_parameter,
                         theta_extract)
from .parser import (Apply, BinOp, Call, ClaimDecl, Decl, InverseDecl, Lit, Negate, Pow, Ref,
                     SourceUnit, parse_unit)
from .poly import Polynomial, VarTable, render

PASS, FAIL, ERROR = "pass", "fail", "error"


class ClaimResult(Record):
    """The outcome of one claim or narrative; anchor may be None, detail ""."""

    __slots__ = ("label", "kind", "status", "anchor", "millis", "detail")


class Report:
    """The results of one unit, claims first and narratives after them."""

    __slots__ = ("source", "results")

    def __init__(self, source: str):
        self.source = source
        self.results: list[ClaimResult] = []

    @property
    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, ERROR: 0}
        for r in self.results:
            out[r.status] += 1
        return out

    @property
    def all_pass(self) -> bool:
        return all(r.status == PASS for r in self.results)

    def to_text(self) -> str:
        lines = [f"# {self.source}"]
        width = max((len(r.label) for r in self.results), default=0)
        kwidth = max((len(r.kind) for r in self.results), default=0)
        for r in self.results:
            line = (f"{r.status.upper():5} [{r.kind.ljust(kwidth)}] "
                    f"{r.label.ljust(width)} ({r.millis} ms)")
            if r.anchor:
                line += f"  -- {r.anchor}"
            lines.append(line)
            if r.detail and r.status != PASS:
                for chunk in r.detail.splitlines():
                    lines.append(f"      {chunk}")
        c = self.counts
        lines.append(f"{c[PASS]} passed, {c[FAIL]} failed, {c[ERROR]} errors")
        return "\n".join(lines)

    def to_json(self) -> str:
        import json  # only here: it costs start-up time
        payload = {
            "source": self.source,
            "claims": [
                {"label": r.label, "kind": r.kind, "status": r.status,
                 "anchor": r.anchor, "millis": r.millis, "detail": r.detail}
                for r in self.results
            ],
            "summary": self.counts | {"all_pass": self.all_pass},
        }
        return json.dumps(payload, indent=2, sort_keys=False)


def eval_node(node, env: dict, table: VarTable):
    """Evaluate an expression node over table, the ring it was read in; env maps
    each name to its value.  A name or constructor call may give a map or
    derivation.  Each node's value is computed once per table and kept in its
    _values; a node whose evaluation raises keeps nothing, so each claim that
    reads it raises again."""
    if isinstance(node, Ref):  # a variable, a let (transported into table), a map or derivation
        if node.name in table.names:
            return table.var(node.name)
        value = env[node.name]
        return value.transport(table) if isinstance(value, Polynomial) else value
    values = table._values
    value = values.get(node)
    if value is not None:
        return value
    if isinstance(node, Lit):  # a number or w
        num, _, den = node.text.partition("/")
        value = table.constant(OMEGA if num == "w" else _make(int(num), 0, int(den or 1)))
    elif isinstance(node, Negate):
        value = -eval_node(node.arg, env, table)
    elif isinstance(node, BinOp):  # a long sum or product: fold its left spine in a loop,
        # up from the first node down it that has a value, keeping each partial value
        spine = []
        while isinstance(node, BinOp) and node not in values:
            spine.append(node)
            node = node.left
        value = eval_node(node, env, table)
        for node in reversed(spine):
            b = eval_node(node.right, env, table)
            value = values[node] = (value + b if node.op == "+" else value - b
                                    if node.op == "-" else value * b)
    elif isinstance(node, Pow):
        value = eval_node(node.base, env, table) ** node.k
    elif isinstance(node, Apply):
        value = env[node.name].apply(eval_node(node.arg, env, table))
    elif isinstance(node, Call):
        value = CALLS[node.fn](*operands(node.args, env, table))
    else:
        raise KrError(f"cannot evaluate node {node!r}")
    values[node] = value
    return value


def operands(args, env: dict, table: VarTable) -> list:
    """The value of each argument, by its structure: a node is evaluated over
    table (a polynomial over another ring raises TableMismatchError), a list,
    tuple or dict gives its items' values, and the rest is its own value."""
    values = []
    for arg in args:
        if isinstance(arg, (list, tuple)):
            arg = operands(arg, env, table)
        elif isinstance(arg, dict):
            arg = dict(zip(arg, operands(arg.values(), env, table)))
        elif arg is not None and not isinstance(arg, (str, int)):
            arg = eval_node(arg, env, table)
            if isinstance(arg, Polynomial):
                arg = table.coerce(arg)
        values.append(arg)
    return values


def _at(text: str, pos: int, fn, *args):
    """fn(*args), whose kernel error becomes a ParseError at offset pos of text."""
    try:
        return fn(*args)
    except (KrError, ZeroDivisionError) as exc:
        raise error_at(text, pos, str(exc)) from exc


def _declared(decl: Decl, env: dict, table: VarTable, text: str):
    """The value of a let, map or derivation over table, its errors positioned in text."""
    if not isinstance(decl.body, tuple):  # a let's node or a constructor's Call
        return _at(text, decl.pos, eval_node, decl.body, env, table)
    images = {v: _at(text, pos, eval_node, node, env, table) for v, pos, node in decl.body}
    return _at(text, decl.pos, RingMap if decl.kind == "map" else Derivation, table, images)


def _check_inverse(inv: InverseDecl, env: dict, table: VarTable):
    if not verify_inverse_pair(*operands((inv.first, inv.second), env, table)):
        raise KrError(f"{inv.first.name!r} and {inv.second.name!r} are not inverse")


def elaborate(unit: SourceUnit) -> dict:
    """Evaluate the declarations in order, each over the ring current at it:
    the value of each declared name, a ring's being its one VarTable.  A kernel
    error, or an inverse(...) pair that is not inverse, raises a ParseError at
    the declaration."""
    env = {}
    for item in unit.items:
        if isinstance(item, InverseDecl):
            _at(unit.text, item.pos, _check_inverse, item, env, env[item.ring])
        elif isinstance(item, Decl) and item.kind == "ring":
            env[item.name] = VarTable(item.body.names, item.body.laurent, item.body.params)
        elif isinstance(item, Decl):
            env[item.name] = _declared(item, env, env[item.ring], unit.text)
    return env


def _eq(lhs, rhs) -> tuple[bool, str]:
    ok = lhs == rhs
    return ok, "" if ok else f"lhs = {render(lhs)}\nrhs = {render(rhs)}"


def _divides(f, g) -> tuple[bool, str]:
    q = exact_divide(f, g)
    return q is not None, ("" if q is not None else
                           f"dividend = {render(f)}\ndivisor = {render(g)}")


def _member(f, gens) -> tuple[bool, str]:
    ok = member(f, gens)
    return ok, "" if ok else f"f = {render(f)}"


def _nilpotent(d, bound, relation) -> tuple[bool, str]:
    if relation is not None:
        d = d.modulo(QuotientRelation(relation))
    cert = nilpotency_certificate(d, bound)
    if not cert.complete:
        return False, f"bound exceeded at generator {cert.failed_generator!r}"
    return True, "orders " + ", ".join(f"{v}:{k}" for v, k in cert.orders.items())


def _cone_class(f, point, tag, spec) -> tuple[bool, str]:
    cone = tangent_cone(f, point)
    got = classify_quadric(cone, spec)
    return got.tag == tag, f"cone = {render(cone)}; classified {got.tag}, expected {tag}"


def _laurent_free(value, var) -> tuple[bool, str]:
    images = value.images
    bad = [v for v in sorted(images) if images[v].min_exponent(var) < 0]
    return not bad, ("" if not bad else
                     f"negative {var}-exponents in images of {', '.join(bad)}")


def _quot(f, g):
    q = exact_divide(f, g)
    if q is None:
        raise KrError("quot(): not exactly divisible")
    return q


# Each built-in's and constructor's value (CALLS), and each claim kind's verdict
# (VERDICTS): a function of the call's or claim's operand values, a verdict
# returning (holds, detail).  Every entry calls the kernel through this
# module's globals instead of holding a kernel function, so that a wrapper
# installed on those globals (bench/tracer.py) sees the call.
CALLS = {
    "quot": _quot,
    "nf": lambda f, relation: normal_form(f, QuotientRelation(relation)),
    "theta": lambda m, r: theta_extract(m, r),
    "jacdet": lambda m, names: jacobian(m, names)[1],
    "extend": lambda m, rel, unit: extend_to_quotient_automorphism(m, QuotientRelation(rel),
                                                                   unit).map,
    "compose": lambda outer, inner: compose(outer, inner),
    "subst_param": lambda m, param, value: substitute_parameter(m, param, value),
    "conjugate": lambda d, fwd, bwd, first, second: conjugate(d, fwd, bwd, first, second),
}

VERDICTS = {
    "eq": _eq,
    "divides": _divides,
    "member": _member,
    "nilpotent": _nilpotent,
    "cone_class": _cone_class,
    "smooth_at_all": lambda f: (smooth_everywhere(f), ""),
    "singular_at": lambda f, point: (singular_at(f, point), ""),
    "inverse_pair": lambda m1, m2, ideals: (verify_inverse_pair(m1, m2, *(ideals or ())), ""),
    "quasi_homogeneous": lambda f, weights, k: (f.is_weighted_homogeneous(weights, k), ""),
    "graph_variable": lambda f, var: (graph_variable_check(f, var), ""),
    "laurent_free": _laurent_free,
}


def _run_one(claim: ClaimDecl, env: dict, table: VarTable) -> ClaimResult:
    """The kind's verdict on the claim's operands, evaluated once each."""
    started = time.perf_counter()
    try:
        holds, detail = VERDICTS[claim.kind](*operands(claim.args, env, table))
        status = PASS if holds == claim.expect else FAIL
        if status == FAIL and not detail:
            detail = f"evaluated {str(holds).lower()}, expected {str(claim.expect).lower()}"
    except (KrError, ZeroDivisionError) as exc:
        status, detail = ERROR, f"{type(exc).__name__}: {exc}"
    millis = int((time.perf_counter() - started) * 1000)
    return ClaimResult(claim.label, claim.kind, status, claim.anchor, millis, detail)


def run_unit(unit: SourceUnit, source: str = "<unit>") -> Report:
    """Evaluate the declarations in order, then every claim, then the narratives."""
    env = elaborate(unit)
    report = Report(source)
    results = [_run_one(c, env, env[c.ring]) for c in unit.claims]
    report.results.extend(results)
    by_label = {r.label: r for r in results}
    for narr in unit.narratives:
        ok = all(by_label[req].status == PASS for req in narr.requires)
        detail = "aggregate of: " + ", ".join(narr.requires)
        result = ClaimResult(narr.label, "narrative", PASS if ok else FAIL,
                             None, 0, detail)
        by_label[narr.label] = result
        report.results.append(result)
    return report


def run_text(text: str, source: str = "<input>") -> Report:
    return run_unit(parse_unit(text), source)


def read_manifest(name: str) -> str:
    """The text of the file at name, else of the manifest shipped under name."""
    try:
        with open(name, "r", encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        return manifest_path(name).read_text(encoding="utf-8")


def run_file(name: str) -> Report:
    return run_text(read_manifest(name), str(name))


def manifest_path(name: str):
    """Filesystem path of a manifest shipped inside the package."""
    from importlib import resources  # only here: it costs start-up time
    path = resources.files("krcubic").joinpath("manifests", name)
    if not path.is_file():
        raise KrError(f"no such file or shipped manifest: {name!r}")
    return path
