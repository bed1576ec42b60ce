"""Execute claim manifests into structured pass/fail reports.

Every claim is evaluated through the corresponding library operation; an
evaluation error is recorded per-claim (status 'error') and never aborts the
run.  Narrative entries aggregate the statuses of the claims they cite: they
mark conclusions that follow from the listed computations plus imported
theory, and carry no computation of their own.

Reports are deterministic across runs except for the timing fields.
"""

from __future__ import annotations

import json
import time

from .errors import KrError
from .geometry import classify_quadric, graph_variable_check, tangent_cone
from .groebner import member, singular_at, smooth_everywhere
from .morphism import exact_divide, verify_inverse_pair
from .derivation import nilpotency_certificate
from .parser import ClaimDecl, SourceUnit, eval_node, parse_unit
from .poly import render

PASS, FAIL, ERROR = "pass", "fail", "error"


class ClaimResult:
    """The outcome of one claim or narrative."""

    __slots__ = ("label", "kind", "status", "anchor", "millis", "detail")

    def __init__(self, label: str, kind: str, status: str, anchor: str | None,
                 millis: int, detail: str = ""):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "millis", millis)
        object.__setattr__(self, "detail", detail)

    def __setattr__(self, name, value):
        raise AttributeError("ClaimResult is immutable")


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


def _eval_claim(unit: SourceUnit, claim: ClaimDecl) -> tuple[bool, str]:
    """Return (holds, detail); detail shows both sides for failed equalities.

    claim.args holds one value per shape in parser.CLAIMS[claim.kind].
    """
    table = unit.rings[claim.ring]
    env = unit.env
    args = claim.args

    def ev(node):
        return eval_node(node, env, table)

    if claim.kind == "eq":
        lhs, rhs = map(ev, args)
        ok = lhs == rhs
        detail = "" if ok else f"lhs = {render(lhs)}\nrhs = {render(rhs)}"
        return ok, detail
    if claim.kind == "divides":
        f, g = map(ev, args)
        q = exact_divide(f, g)
        return q is not None, ("" if q is not None else
                               f"dividend = {render(f)}\ndivisor = {render(g)}")
    if claim.kind == "member":
        f, gens = args
        f = ev(f)
        return member(f, list(gens)), f"f = {render(f)}"
    if claim.kind == "nilpotent":
        name, bound, relation = args
        d = env[name].value
        if relation is not None:
            d = d.modulo(relation)
        cert = nilpotency_certificate(d, bound)
        orders = ", ".join(f"{v}:{k}" for v, k in cert.orders.items())
        if cert.complete:
            return True, f"orders {orders}"
        return False, f"bound exceeded at generator {cert.failed_generator!r}"
    if claim.kind == "cone_class":
        f, point, tag, spec = args
        cone = tangent_cone(ev(f), point)
        got = classify_quadric(cone, spec)
        return got.tag == tag, f"cone = {render(cone)}; classified {got.tag}, expected {tag}"
    if claim.kind == "smooth_at_all":
        return smooth_everywhere(ev(args[0])), ""
    if claim.kind == "singular_at":
        f, point = args
        return singular_at(ev(f), point), ""
    if claim.kind == "inverse_pair":
        m1, m2, ideals = args
        return verify_inverse_pair(env[m1].value, env[m2].value, *(ideals or ([], []))), ""
    if claim.kind == "quasi_homogeneous":
        f, weights, degree = args
        return ev(f).is_weighted_homogeneous(weights, degree), ""
    if claim.kind == "graph_variable":
        f, var = args
        return graph_variable_check(ev(f), var), ""
    if claim.kind == "laurent_free":
        name, var = args
        images = env[name].value.images
        bad = [v for v in sorted(images) if images[v].min_exponent(var) < 0]
        return not bad, ("" if not bad else
                         f"negative {var}-exponents in images of {', '.join(bad)}")
    raise KrError(f"unknown claim kind {claim.kind!r}")


def _run_one(unit: SourceUnit, claim: ClaimDecl) -> ClaimResult:
    started = time.perf_counter()
    try:
        holds, detail = _eval_claim(unit, claim)
        status = PASS if holds == claim.expect else FAIL
        if status == FAIL and not detail:
            detail = f"evaluated {str(holds).lower()}, expected {str(claim.expect).lower()}"
    except (KrError, ZeroDivisionError, AssertionError) as exc:
        status, detail = ERROR, f"{type(exc).__name__}: {exc}"
    millis = int((time.perf_counter() - started) * 1000)
    return ClaimResult(claim.label, claim.kind, status, claim.anchor, millis, detail)


def run_unit(unit: SourceUnit, source: str = "<unit>") -> Report:
    """Evaluate every claim, then the narratives."""
    report = Report(source)
    results = [_run_one(unit, c) for c in unit.claims]
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


def run_file(path) -> Report:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return run_text(text, str(path))


SHIPPED_MANIFESTS = (
    "embeddings.krv",
    "autgroup.krv",
    "fibers.krv",
    "stable.krv",
    "cylinder.krv",
)


def manifest_path(name: str):
    """Filesystem path of a manifest shipped inside the package."""
    from importlib import resources  # only here: it costs start-up time
    root = resources.files("krcubic").joinpath("manifests")
    path = root.joinpath(name)
    if not path.is_file():
        raise KrError(f"no shipped manifest named {name!r}")
    return path


def run_shipped(name: str) -> Report:
    path = manifest_path(name)
    return run_text(path.read_text(encoding="utf-8"), name)
