"""Manifest execution: shipped suites, negative controls, report contracts."""

import importlib.util
import json
from pathlib import Path

import pytest

from krcubic.claims import (ERROR, FAIL, PASS, SHIPPED_MANIFESTS, manifest_path,
                            run_shipped, run_text)
from krcubic.derivation import Derivation, nilpotency_certificate
from krcubic.errors import KrError
from krcubic.geometry import classify_quadric
from krcubic.groebner import LEX, buchberger
from krcubic.morphism import RingMap
from krcubic.parser import Lit, parse_unit
from krcubic.poly import Polynomial, VarTable


def test_every_shipped_manifest_passes():
    for name in SHIPPED_MANIFESTS:
        report = run_shipped(name)
        bad = [r for r in report.results if r.status != PASS]
        assert report.all_pass, (name, bad)


def test_every_negative_control_fails_exactly_once():
    for name in SHIPPED_MANIFESTS:
        negative = name.replace(".krv", "_negative.krv")
        report = run_shipped(negative)
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
        run_shipped("stable.krv").results[0],
        nilpotency_certificate(Derivation(table, {"x": z, "z": table.zero()})),
        classify_quadric(x ** 2),
        LEX,
        buchberger([x, z], LEX),
        Lit(x),
    ]
    # BinOp(Negate(Apply), Builtin)
    sum_node = parse_unit("ring R = vars(x);\nmap m : R { x -> x; }\n"
                          'claim "c" eq(-m(x) + quot(x^2, x), 0) expect true;').claims[0].args[0]
    records += [sum_node, sum_node.left, sum_node.left.arg, sum_node.right]
    assert {type(r).__name__ for r in records} == {
        "ClaimResult", "NilpotencyCertificate", "ConeClass", "MonomialOrder",
        "GroebnerBasis", "Lit", "BinOp", "Negate", "Apply", "Builtin"}
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        name = type(record).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)


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
        a = run_shipped(name)
        b = run_shipped(name)
        strip = lambda rep: [(r.label, r.kind, r.status, r.anchor, r.detail)
                             for r in rep.results]
        assert strip(a) == strip(b)


def test_json_report_shape():
    report = run_shipped("stable.krv")
    payload = json.loads(report.to_json())
    assert payload["summary"]["all_pass"] is True
    assert {c["kind"] for c in payload["claims"]} >= {"eq", "divides"}
    for c in payload["claims"]:
        assert set(c) == {"label", "kind", "status", "anchor", "millis", "detail"}


def test_text_report_has_summary_line():
    report = run_shipped("stable.krv")
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
    # the preserving check and by two claims, twist_lift(cubic) and
    # family_lift(cubic_c + c) by extend's postcondition and by a claim, and
    # twist_c(z^2 + t^3 + c) by theta and by a claim
    assert run_shipped("autgroup.krv").all_pass
    assert len(substitutions) == 30


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
