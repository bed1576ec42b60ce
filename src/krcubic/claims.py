"""Execute claim manifests into structured pass/fail reports.

parser.operands evaluates a claim's arguments, kept as syntax, by their shapes
in parser.CLAIMS; its kind's entry in VERDICTS decides it from those values
through the library.  An evaluation error is recorded per-claim (status
'error') and never aborts the run.  Narrative entries aggregate the statuses
of the claims they cite: they mark conclusions that follow from the listed
computations plus imported theory, and carry no computation of their own.

Reports are deterministic across runs except for the timing fields.
"""

from __future__ import annotations

import json
import time

from .errors import KrError, Record
from .geometry import classify_quadric, graph_variable_check, tangent_cone
from .groebner import member, singular_at, smooth_everywhere
from .morphism import QuotientRelation, exact_divide, verify_inverse_pair
from .derivation import nilpotency_certificate
from .parser import CLAIMS, ClaimDecl, SourceUnit, operands, parse_unit
from .poly import render

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


def _eq(lhs, rhs) -> tuple[bool, str]:
    ok = lhs == rhs
    return ok, "" if ok else f"lhs = {render(lhs)}\nrhs = {render(rhs)}"


def _divides(f, g) -> tuple[bool, str]:
    q = exact_divide(f, g)
    return q is not None, ("" if q is not None else
                           f"dividend = {render(f)}\ndivisor = {render(g)}")


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


# Each kind's verdict: a function of its operand values, one per shape in
# parser.CLAIMS[kind], returning (holds, detail).  Every entry calls the
# kernel through this module's globals instead of holding a kernel function,
# so that a wrapper installed on those globals (bench/tracer.py) sees the call.
VERDICTS = {
    "eq": _eq,
    "divides": _divides,
    "member": lambda f, gens: (member(f, gens), f"f = {render(f)}"),
    "nilpotent": _nilpotent,
    "cone_class": _cone_class,
    "smooth_at_all": lambda f: (smooth_everywhere(f), ""),
    "singular_at": lambda f, point: (singular_at(f, point), ""),
    "inverse_pair": lambda m1, m2, ideals: (verify_inverse_pair(m1, m2, *(ideals or ())), ""),
    "quasi_homogeneous": lambda f, weights, k: (f.is_weighted_homogeneous(weights, k), ""),
    "graph_variable": lambda f, var: (graph_variable_check(f, var), ""),
    "laurent_free": _laurent_free,
}


def _eval_claim(unit: SourceUnit, claim: ClaimDecl) -> tuple[bool, str]:
    """The kind's verdict on the claim's operands, evaluated once each."""
    values = operands(CLAIMS[claim.kind], claim.args, unit.env, unit.rings[claim.ring])
    return VERDICTS[claim.kind](*values)


def _run_one(unit: SourceUnit, claim: ClaimDecl) -> ClaimResult:
    started = time.perf_counter()
    try:
        holds, detail = _eval_claim(unit, claim)
        status = PASS if holds == claim.expect else FAIL
        if status == FAIL and not detail:
            detail = f"evaluated {str(holds).lower()}, expected {str(claim.expect).lower()}"
    except (KrError, ZeroDivisionError) as exc:
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


def manifest_path(name: str):
    """Filesystem path of a manifest shipped inside the package."""
    from importlib import resources  # only here: it costs start-up time
    root = resources.files("krcubic").joinpath("manifests")
    path = root.joinpath(name)
    if not path.is_file():
        raise KrError(f"no such file or shipped manifest: {name!r}")
    return path


def run_shipped(name: str) -> Report:
    path = manifest_path(name)
    return run_text(path.read_text(encoding="utf-8"), name)
