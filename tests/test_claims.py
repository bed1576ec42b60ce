"""Manifest execution: shipped suites, negative controls, report contracts."""

import importlib.util
import json
import pkgutil
import time
from pathlib import Path

import pytest

import krcubic
from krcubic import groebner, poly
from krcubic.claims import ERROR, FAIL, PASS, manifest_path, run_file, run_text
from krcubic.coeff import Eisenstein
from krcubic.derivation import Derivation, nilpotency_certificate
from krcubic.errors import KrError, Record
from krcubic.geometry import classify_quadric
from krcubic.groebner import buchberger
from krcubic.morphism import QuotientRelation, RingMap, extend_to_quotient_automorphism
from krcubic.cli import main
from krcubic.parser import Apply, BinOp, Builtin, Lit, Negate, Pow, Ref, parse_unit
from krcubic.poly import Polynomial, VarTable

from conftest import SHIPPED_MANIFESTS


def test_every_shipped_manifest_passes():
    for name in SHIPPED_MANIFESTS:
        report = run_file(name)
        bad = [r for r in report.results if r.status != PASS]
        assert report.all_pass, (name, bad)


def test_every_negative_control_fails_exactly_once():
    for name in SHIPPED_MANIFESTS:
        negative = name.replace(".krv", "_negative.krv")
        report = run_file(negative)
        claim_fails = [r for r in report.results
                       if r.status == FAIL and r.kind != "narrative"]
        errors = [r for r in report.results if r.status == ERROR]
        assert len(claim_fails) == 1, negative
        assert not errors, negative
        assert not report.all_pass


def test_value_records_are_read_only():
    table = VarTable(["x", "z"])
    x, z = table.var("x"), table.var("z")
    records = [
        run_file("stable.krv").results[0],
        nilpotency_certificate(Derivation(table, {"x": z, "z": table.zero()})),
        classify_quadric(x ** 2),
        buchberger([x, z]),
        Lit("1"),
        Eisenstein(1, 2),  # its first slot is the private _a
    ]
    # items: Decl (ring, with its Ring), Decl (map), InverseDecl, ClaimDecl, NarrativeDecl
    unit = parse_unit("ring R = vars(x);\nmap m : R { x -> x; }\ninverse(m, m);\n"
                      'claim "c" eq(-m(x) + quot(x^2, x), m(x)^2) expect true;\n'
                      'narrative "n" requires("c");')
    sum_node, power = unit.claims[0].args  # BinOp(Negate(Apply), Builtin), Pow(Apply)
    records += [sum_node, sum_node.left, sum_node.left.arg, sum_node.right, power,
                *unit.items, unit.rings["R"]]
    T4 = VarTable(["x", "y", "z", "t"])
    cubic = T4.var("x") ** 2 * T4.var("y") + T4.var("z") ** 2 + T4.var("x") + T4.var("t") ** 3
    records.append(extend_to_quotient_automorphism(
        RingMap(T4, {}), QuotientRelation(cubic), T4.one()))
    assert {type(r).__name__ for r in records} == {
        "ClaimResult", "NilpotencyCertificate", "ConeClass",
        "GroebnerBasis", "Lit", "BinOp", "Negate", "Apply", "Builtin", "Pow", "Ring", "Decl",
        "InverseDecl", "ClaimDecl", "NarrativeDecl", "Extension", "Eisenstein"}
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        name = type(record).__slots__[0]
        with pytest.raises(AttributeError, match=f"{type(record).__name__} is immutable"):
            setattr(record, name, None)


# Classes with __slots__ that assign their own slots instead of being a Record.
NOT_RECORDS = {
    "Report": "run_unit fills its results list after construction",
    "SourceUnit": "the parser fills its lists and dicts while it reads",
}


def test_every_slotted_class_is_a_record():
    slotted = {}
    for info in pkgutil.iter_modules(krcubic.__path__):
        module = importlib.import_module(f"krcubic.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and "__slots__" in vars(cls) and cls is not Record):
                slotted[cls.__name__] = cls
    assert set(NOT_RECORDS) <= set(slotted)
    for name, cls in slotted.items():
        assert issubclass(cls, Record) == (name not in NOT_RECORDS), name
    plain = [cls for cls in slotted.values()
             if issubclass(cls, Record) and cls.__init__ is Record.__init__]
    assert len(plain) == 17
    for cls in plain:
        width = len(cls.__slots__)
        for count in (width - 1, width + 1):
            with pytest.raises(TypeError, match=f"{cls.__name__} takes {width} values"):
                cls(*range(count))


def test_failing_equality_renders_both_sides():
    report = run_text("""
ring R = vars(x, y, z, t);
let cubic = x^2*y + z^2 + x + t^3;
map fwd : R { y -> (1 + x)*y; }
claim "corrupted" eq(fwd(x^2*y + (1 + x)*(z^2 + x + t^3)), (1 - x)*cubic) expect true;
""")
    (result,) = report.results
    assert result.status == FAIL
    assert "lhs =" in result.detail and "rhs =" in result.detail


def test_expect_false_claims_pass_when_false():
    report = run_text("""
ring R = vars(x);
claim "x is not in the square ideal" member(x, {x^2}) expect false;
claim "but x^3 is" member(x^3, {x^2}) expect true;
""")
    assert report.all_pass


def test_evaluation_errors_are_recorded_not_raised():
    report = run_text("""
ring R = vars(x, z);
claim "bad quotient" eq(quot(x + 1, x), 1) expect true;
claim "still runs" eq(x, x) expect true;
""")
    statuses = [r.status for r in report.results]
    assert statuses == [ERROR, PASS]


BAD_ARGUMENT_HEAD = """ring S = vars(x, u);
let b = x + u;
ring R = vars(x, y, z, t, a ; param a);
derivation D : R { z -> 1; }
map A : R { y -> y + x; }
map B : R { y -> y - x; }
claim "before" eq((x + 1)^2, x^2 + 2*x + 1) expect true;
"""

# One failing expression in each polynomial-valued claim position -> the
# claim's detail, the kernel's own exception and message.
BAD_CLAIM_ARGUMENTS = {
    "member generator": ("member(x, {quot(x, x + 1)})",
                         "KrError: quot(): not exactly divisible"),
    "nilpotent relation": ("nilpotent(D, 4, z)",
                           "KrError: relation must have x^2*y with coefficient 1"),
    "point coordinate": ("cone_class(z^2 + t^3, point(quot(1, 0), 0, 0, 0), double_hyperplane)",
                         "ZeroDivisionError: division by the zero polynomial"),
    "cone_class specialization": (
        "cone_class(a*x^2 + z^2, point(0, 0, 0, 0), two_distinct_hyperplanes, a -> x)",
        "KrError: specialization values must be constants"),
    "inverse_pair ideals": ("inverse_pair(A, B, {x}, {quot(x, x + 1)})",
                            "KrError: quot(): not exactly divisible"),
    "nf relation": ("eq(nf(x, z), x)", "KrError: relation must have x^2*y with coefficient 1"),
    "relation expression": ("nilpotent(D, 1, quot(x, 0))",
                            "ZeroDivisionError: division by the zero polynomial"),
    "divides dividend": ("divides(quot(x, x + 1), x)", "KrError: quot(): not exactly divisible"),
    "smooth_at_all polynomial": ("smooth_at_all(quot(x, x + 1))",
                                 "KrError: quot(): not exactly divisible"),
    "singular_at polynomial": ("singular_at(quot(x, x + 1), point(0, 0, 0, 0))",
                               "KrError: quot(): not exactly divisible"),
    "cone_class polynomial": ("cone_class(quot(x, x + 1), point(0, 0, 0, 0), double_hyperplane)",
                              "KrError: quot(): not exactly divisible"),
    "quasi_homogeneous polynomial": ("quasi_homogeneous(quot(x, x + 1), weights(x -> 1), 1)",
                                     "KrError: quot(): not exactly divisible"),
    "graph_variable polynomial": ("graph_variable(quot(x, x + 1), x)",
                                  "KrError: quot(): not exactly divisible"),
    "power of a variable": ("eq(t^-1, t)",
                            "NegativeExponentError: negative exponent on non-Laurent variable 't'"),
    "power of a sum": ("eq((x + t)^-1, t)", "NonUnitError: not a unit monomial: x + t"),
    "power of an image": ("eq(A(y)^-1, y)", "NonUnitError: not a unit monomial: x + y"),
    "let from another ring": ("eq(b, x)", "KrError: variable 'u' does not exist in target table"),
}


@pytest.mark.parametrize("position", sorted(BAD_CLAIM_ARGUMENTS))
def test_a_failing_claim_argument_is_that_claims_error(position, tmp_path, capsys):
    claim, detail = BAD_CLAIM_ARGUMENTS[position]
    text = (BAD_ARGUMENT_HEAD + f'claim "bad" {claim} expect true;\n'
            'claim "after" member(x^2*y, {x^2}) expect true;\n')
    report = run_text(text)
    assert [(r.label, r.status) for r in report.results] == [
        ("before", PASS), ("bad", ERROR), ("after", PASS)]
    assert report.results[1].detail == detail
    path = tmp_path / "unit.krv"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == ""


SWAP = "ring R = vars(x, y);\nderivation D : R { x -> y; y -> x; }\n"


def test_a_nilpotent_bound_runs_up_to_the_exponent_limit():
    # the swap is not nilpotent: its iterates cycle through x and y, so their
    # exponent bounds stay 1 however long the iteration runs
    (result,) = run_text(SWAP + f'claim "s" nilpotent(D, {poly.EXPONENT_LIMIT}) '
                                'expect false;\n').results
    assert (result.status, result.detail) == (PASS, "bound exceeded at generator 'x'")


@pytest.mark.parametrize("bound", [poly.EXPONENT_LIMIT + 1, 10 ** 12])
def test_a_nilpotent_bound_past_the_exponent_limit_is_that_claims_error(bound):
    start = time.perf_counter()
    report = run_text(SWAP + f'claim "s" nilpotent(D, {bound}) expect false;\n'
                             'claim "after" nilpotent(D, 2) expect false;\n')
    assert time.perf_counter() - start < 1
    assert [(r.status, r.detail) for r in report.results] == [
        (ERROR, f"DerivationError: bound must be between 1 and {poly.EXPONENT_LIMIT}"),
        (PASS, "bound exceeded at generator 'x'")]


SYNTAX = (str, int, type(None), Lit, Ref, Apply, Builtin, BinOp, Negate, Pow)


def _held(arg):
    """The leaves of a claim argument: containers are walked, syntax nodes not."""
    if isinstance(arg, (list, tuple)):
        for item in arg:
            yield from _held(item)
    elif isinstance(arg, dict):
        for item in arg.values():
            yield from _held(item)
    else:
        yield arg


def test_shipped_claims_hold_only_syntax():
    # eager evaluation would put a Polynomial or QuotientRelation here
    kinds = set()
    for name in SHIPPED_MANIFESTS:
        for manifest in (name, name.replace(".krv", "_negative.krv")):
            unit = parse_unit(manifest_path(manifest).read_text(encoding="utf-8"))
            for claim in unit.claims:
                for leaf in _held(claim.args):
                    assert isinstance(leaf, SYNTAX), (manifest, claim.label, leaf)
                    assert not isinstance(leaf, (Polynomial, QuotientRelation))
                    kinds.add(type(leaf))
    assert {Lit, Apply, Builtin, BinOp} <= kinds


def test_singular_at_rejects_an_image_from_another_ring():
    # the point is read over R and the image of m is over S; a let reads the
    # image into R by variable name
    report = run_text("""
ring S = vars(x, y, z, t);
map m : S { z -> z + x; }
let line = m(z^2 + t^3 - 2*x*z - x^2);
let cusp = m(z^2 + t^3);
ring R = vars(x, y, z, t, c ; param c);
claim "image" singular_at(m(z^2 + t^3), point(0, 0, 0, 0)) expect true;
claim "along a line" singular_at(line, point(0, c, 0, 0)) expect true;
claim "at the origin" singular_at(cusp, point(0, 0, 0, 0)) expect true;
claim "not at a smooth point" singular_at(cusp, point(0, 0, 1, 0)) expect false;
""")
    assert [r.status for r in report.results] == [ERROR, PASS, PASS, PASS]
    assert report.results[0].detail.startswith("TableMismatchError: tables differ")


CROSS_RING = """
ring R = vars(x, y);
map M : R { y -> y + x; }
derivation D : R { y -> x; }
ring S = vars(x, y, c ; param c);
"""


@pytest.mark.parametrize("expect", ["true", "false"])
@pytest.mark.parametrize("claim", ["eq(M(y), y + x)", "eq(jacdet(M, x, y), 1)"])
def test_a_value_over_another_ring_is_an_error_either_way(claim, expect):
    # M(y) and jacdet(M, x, y) are over R, the claim over S: the verdict must
    # not depend on which ring the equal-looking sides were read in
    (result,) = run_text(CROSS_RING + f'claim "c" {claim} expect {expect};').results
    assert result.status == ERROR
    assert result.detail.startswith("TableMismatchError: tables differ")


def test_claims_about_a_named_object_read_it_over_its_own_ring():
    report = run_text(CROSS_RING + """
claim "nilpotent" nilpotent(D, 3) expect true;
claim "not an involution" inverse_pair(M, M) expect false;
claim "polynomial images" laurent_free(M, x) expect true;
""")
    assert [r.status for r in report.results] == [PASS, PASS, PASS]


def test_inverse_pair_ideals_over_another_ring_are_an_error_either_way():
    # A, B are exact inverses over S and C needs the ideal (x); an ideal read
    # over R is an error whether or not the pair needs it
    report = run_text("""
ring S = vars(x, y, z, t, u);
map A : S { z -> z + x; }
map B : S { z -> z - x; }
map C : S { z -> z + x; }
ring R = vars(x, y, z, t);
claim "exact" inverse_pair(A, B, {x}, {x}) expect true;
claim "needs the ideal" inverse_pair(C, A, {x}, {x}) expect true;
""")
    for r in report.results:
        assert r.status == ERROR
        assert r.detail.startswith("TableMismatchError: tables differ")


def test_singular_at_checks_the_point_as_cone_class_does():
    # a live variable is not a coordinate: neither claim may hold at point(x, y, 0, 0)
    report = run_text("""
ring R = vars(x, y, z, t);
claim "singular" singular_at(z^2 + t^3, point(x, y, 0, 0)) expect true;
claim "cone" cone_class(z^2 + t^3, point(x, y, 0, 0), double_hyperplane) expect true;
""")
    for r in report.results:
        assert (r.status, r.detail) == (
            ERROR, "KrError: point coordinate for 'x' must be constant or parametric")


def test_narrative_aggregates_its_claims():
    text = """
ring R = vars(x);
claim "good" eq(x, x) expect true;
claim "bad" eq(x, x + 1) expect true;
narrative "all good" requires("good");
narrative "sees the failure" requires("good", "bad");
"""
    report = run_text(text)
    by_label = {r.label: r for r in report.results}
    assert by_label["all good"].status == PASS
    assert by_label["sees the failure"].status == FAIL


def test_reports_are_deterministic():
    for name in ("embeddings.krv", "stable.krv"):
        a = run_file(name)
        b = run_file(name)
        strip = lambda rep: [(r.label, r.kind, r.status, r.anchor, r.detail)
                             for r in rep.results]
        assert strip(a) == strip(b)


def test_json_report_shape():
    report = run_file("stable.krv")
    payload = json.loads(report.to_json())
    assert payload["summary"]["all_pass"] is True
    assert {c["kind"] for c in payload["claims"]} >= {"eq", "divides"}
    for c in payload["claims"]:
        assert set(c) == {"label", "kind", "status", "anchor", "millis", "detail"}


def test_text_report_has_summary_line():
    report = run_file("stable.krv")
    text = report.to_text()
    assert text.splitlines()[-1].endswith("0 failed, 0 errors")


def test_manifest_path_rejects_unknown():
    with pytest.raises(KrError):
        manifest_path("does_not_exist.krv")


def test_unit_with_duplicate_claim_labels_rejected():
    with pytest.raises(KrError):
        parse_unit("""
ring R = vars(x);
claim "same" eq(x, x) expect true;
claim "same" eq(x, x) expect true;
""")


def test_every_shipped_claim_carries_explicit_expectation():
    for name in SHIPPED_MANIFESTS:
        text = manifest_path(name).read_text(encoding="utf-8")
        unit = parse_unit(text)
        for claim in unit.claims:
            assert claim.expect in (True, False)


# -- a map applies itself to each argument once -----------------------------------

def _tame_qw_text(seed):
    """The seeded tame-qw manifest of the benchmark's workload generator."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tame_qw(seed)[0]


@pytest.fixture
def substitutions(monkeypatch):
    """Record every Polynomial.substitute call: its argument, and the map
    whose RingMap.apply made it (None for any other caller)."""
    calls, applying = [], [None]
    substitute, apply = Polynomial.substitute, RingMap.apply

    def counted_substitute(self, images):
        m = applying[-1]
        calls.append((m if m is not None and images is m.images else None, self))
        return substitute(self, images)

    def counted_apply(m, f):
        applying.append(m)
        try:
            return apply(m, f)
        finally:
            applying.pop()

    monkeypatch.setattr(Polynomial, "substitute", counted_substitute)
    monkeypatch.setattr(RingMap, "apply", counted_apply)
    monkeypatch.setattr(RingMap, "__call__", counted_apply)
    return calls


def test_no_map_substitutes_an_argument_twice(substitutions):
    texts = [manifest_path(name).read_text(encoding="utf-8") for name in SHIPPED_MANIFESTS]
    for text in texts + [_tame_qw_text(7)]:
        substitutions.clear()
        run_text(text)
        # the calls list holds every map, so no id is reused while it is read
        pairs = [(id(m), f) for m, f in substitutions if m is not None]
        assert pairs and len(pairs) == len(set(pairs))


def test_autgroup_substitutes_thirty_times(substitutions):
    # 35 before maps remembered their images: glued(cubic_c) was computed by
    # subst_param's preserving check (since retired) and by two claims,
    # twist_lift(cubic) and family_lift(cubic_c + c) by extend's postcondition
    # and by a claim, and twist_c(z^2 + t^3 + c) by theta and by a claim.
    # Now the member claim computes glued(cubic_c) first, and the eq claim
    # after it reads the remembered image
    assert run_file("autgroup.krv").all_pass
    assert len(substitutions) == 30


BREADTH = ("embeddings.krv", "fibers.krv", "stable.krv", "cylinder.krv")


def test_breadth_manifests_take_at_most_444_products(monkeypatch):
    # A noise-free guard on the kernel's compound operations: substitute, the
    # Leibniz sum, S-polynomials and reduce's identity check sum their parts
    # over one denominator, and one pass over these four manifests (the
    # benchmark's breadth workload) takes 444 term-dict products; a change
    # that brings back a product per step fails here
    calls = []
    product = poly._product

    def counted_product(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(poly, "_product", counted_product)
    assert all(run_file(name).all_pass for name in BREADTH)
    assert len(calls) <= 444


@pytest.mark.parametrize("before, after, flipped", [
    ("eq(glued(cubic_c), cubic_c)", "eq(glued(cubic_c), cubic_c + 1)",
     {"gluing fixes the cubic exactly"}),
    ("member(glued(cubic_c), {cubic_c})", "member(glued(cubic_c), {cubic_c + 1})",
     {"gluing at c = -cubic preserves the cubic ideal",
      "every fiberwise automorphism of the cubic extends to ambient space"}),
], ids=["eq-rhs", "member-ideal"])
def test_claims_on_a_remembered_image_still_fail_alone(before, after, flipped):
    text = manifest_path("autgroup.krv").read_text(encoding="utf-8")
    assert text.count(before) == 1
    good = {r.label: r.status for r in run_text(text).results}
    bad = {r.label: r.status for r in run_text(text.replace(before, after)).results}
    assert good.keys() == bad.keys() and set(good.values()) == {PASS}
    assert {label for label in good if bad[label] != PASS} == flipped
    assert {bad[label] for label in flipped} == {FAIL}


# -- one Groebner basis per ideal within a unit -------------------------------

MEMO_UNIT = """
ring R = vars(x, y, z, t);
let A = z + x*t;
let B = t + x*z^2;
claim "member" member(A*z + B*t, {A, B}) expect true;
claim "not member" member(A*B + 1, {A, B}) expect false;
claim "other ideal" member(x, {A}) expect false;
claim "smooth" smooth_at_all(x^2*y + z^2 + x + t^3) expect true;
claim "smooth again" smooth_at_all(x^2*y + z^2 + x + t^3) expect true;
"""


def _count_buchberger(monkeypatch):
    calls = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger",
                        lambda gens, *order: calls.append(gens) or real(gens, *order))
    return calls


def test_a_unit_takes_each_basis_once(monkeypatch):
    # member saturates {t + x, x} over a wider ring, afresh on each call
    text = MEMO_UNIT + """
ring L = vars(x, t ; laurent t);
claim "unit" member(1, {t + x, x}) expect true;
claim "unit again" member(t^-1, {t + x, x}) expect true;
"""
    calls = _count_buchberger(monkeypatch)
    assert run_text(text).all_pass
    assert len(calls) == 4  # {A, B}, {A}, the Jacobian ideal and {t + x, x}
    # nothing carries from one unit to the next
    assert run_text(text).all_pass
    assert len(calls) == 8


def test_a_failed_basis_is_not_remembered(monkeypatch):
    # each claim on an ideal with a pair runs out of budget on its own
    calls = _count_buchberger(monkeypatch)
    monkeypatch.setattr(groebner, "MAX_PAIRS", 0)
    report = run_text(MEMO_UNIT)
    assert [r.status for r in report.results] == [ERROR, ERROR, PASS, ERROR, ERROR]
    assert {r.detail for r in report.results if r.status == ERROR} == {
        "GroebnerBudgetError: pair budget 0 exhausted"}
    assert len(calls) == 5
