"""Acceptance gate: one test per criterion, one printed line per criterion.

Every tolerance is exact (zero): the library computes over Q(w) with no
floating point anywhere.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

from krcubic.claims import FAIL, PASS, run_file
from krcubic.cli import main
from krcubic.coeff import ONE
from krcubic.derivation import (Derivation, conjugate, nilpotency_certificate,
                                theta_extract)
from krcubic.geometry import (DOUBLE_HYPERPLANE, TWO_DISTINCT_HYPERPLANES,
                              classify_quadric, tangent_cone)
from krcubic.groebner import buchberger, member, singular_at, smooth_everywhere
from krcubic.morphism import (QuotientRelation, RingMap, exact_divide,
                              normal_form)
from krcubic.poly import VarTable, render

from conftest import (SHIPPED_MANIFESTS, companion_poly, cubic_poly, member_oracle,
                      nonzero_coeff, parse_value, random_coeff, random_nonzero_poly,
                      random_poly, random_table)


def _report(number: int, description: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"acceptance criterion {number} [{description}]: {status}")
    assert not failures, failures


def _check(failures: list, ok: bool, what: str):
    if not ok:
        failures.append(what)


# -- criterion 1: the identity suite ------------------------------------------------

def test_criterion_1_identity_suite():
    failures = []
    started = time.perf_counter()
    for name in SHIPPED_MANIFESTS:
        report = run_file(name)
        bad = [r.label for r in report.results if r.status != PASS]
        _check(failures, report.all_pass, f"{name}: {bad}")
    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 30.0, f"identity suite took {elapsed:.1f}s (budget 30s)")
    _report(1, f"identity suite, {elapsed:.1f}s", failures)


# -- criterion 2: tangent-cone dichotomy --------------------------------------------

def test_criterion_2_tangent_cone_dichotomy():
    failures = []
    T = VarTable(["x", "y", "z", "t", "y0"], params=["y0"])
    x, z, y0 = T.var("x"), T.var("z"), T.var("y0")
    line = {"x": 0, "y": y0, "z": 0, "t": 0}
    cone_p = tangent_cone(cubic_poly(T) - x, line)
    cone_q = tangent_cone(companion_poly(T) - x, line)
    _check(failures, cone_p == z ** 2 + y0 * x ** 2,
           f"cone of the cubic fiber is {render(cone_p)}")
    _check(failures, cone_q == z ** 2 + (y0 + 1) * x ** 2,
           f"cone of the companion fiber is {render(cone_q)}")
    sample = (-2, -1, 0, 1, 5)
    for value in sample:
        tag_p = classify_quadric(cone_p, {"y0": value}).tag
        tag_q = classify_quadric(cone_q, {"y0": value}).tag
        want_p = DOUBLE_HYPERPLANE if value == 0 else TWO_DISTINCT_HYPERPLANES
        want_q = DOUBLE_HYPERPLANE if value == -1 else TWO_DISTINCT_HYPERPLANES
        _check(failures, tag_p == want_p, f"cubic cone at y0={value}: {tag_p}")
        _check(failures, tag_q == want_q, f"companion cone at y0={value}: {tag_q}")
    _report(2, "tangent-cone dichotomy on {-2,-1,0,1,5}", failures)


# -- criterion 3: smoothness and singularity -----------------------------------------

def test_criterion_3_smoothness_and_singularity():
    failures = []
    T = VarTable(["x", "y", "z", "t", "y0"], params=["y0"])
    P, Q, x = cubic_poly(T), companion_poly(T), T.var("x")
    basis = buchberger([P] + [P.diff(v) for v in "xyzt"])
    _check(failures, basis.is_unit_ideal(), "1 not found in (P, grad P)")
    line = {"x": T.zero(), "y": T.var("y0"), "z": T.zero(), "t": T.zero()}
    _check(failures, singular_at(P - x, line), "P - x not singular along the line")
    _check(failures, singular_at(Q - x, line), "Q - x not singular along the line")
    for lam, mu in ((1, 2), (2, 1), (1, -1), (3, 5), (2, -3)):
        _check(failures, smooth_everywhere(lam * P - mu * x),
               f"V({lam}P - {mu}x) not certified smooth")
    origin = {v: T.zero() for v in "xyzt"}
    _check(failures, singular_at(P - x, origin),
           "equal scales: V(P - x) not singular at the origin")
    _report(3, "smoothness certificates and the scale dichotomy", failures)


# -- criterion 4: the generator invariant ---------------------------------------------

def test_criterion_4_theta_extraction():
    failures = []
    T = VarTable(["x", "z", "t"])
    x, z, t = (T.var(n) for n in ["x", "z", "t"])
    phi_z = z + 3 * x * t ** 5
    phi = RingMap(T, {"z": phi_z, "t": t + 2 * x * phi_z ** 3})
    r = z ** 2 + t ** 3
    alpha = theta_extract(phi, r)
    _check(failures, alpha == (t ** 3 - z ** 2) * Fraction(1, 2),
           f"alpha = {render(alpha)}")
    h = r * alpha
    ok_z = exact_divide(phi.image_of("z") - (z + x * h.diff("t")), x ** 2) is not None
    ok_t = exact_divide(phi.image_of("t") - (t - x * h.diff("z")), x ** 2) is not None
    _check(failures, ok_z, "congruence for z fails mod x^2")
    _check(failures, ok_t, "congruence for t fails mod x^2")
    _report(4, "generator invariant alpha = (t^3 - z^2)/2", failures)


# -- criterion 5: locally nilpotent derivations ---------------------------------------

def test_criterion_5_lnd_certification():
    failures = []
    L = VarTable(["x", "y", "z", "t", "v"], laurent=["t"])
    x, y, z, t, v = (L.var(n) for n in ["x", "y", "z", "t", "v"])
    P = cubic_poly(L)
    S = x * y + z ** 2 + x + t ** 3
    flow = Derivation(L, {"x": -2 * t ** 6 * z, "z": t ** 6 * (y + 1)})
    cert = nilpotency_certificate(flow, 8)
    _check(failures, cert.complete and max(cert.orders.values()) == 3,
           f"flow orders {cert.orders}")
    d1 = Derivation(L, {"y": 2 * z, "z": -x ** 2})
    d2 = Derivation(L, {"y": 3 * t ** 2, "t": -x ** 2})
    c1 = nilpotency_certificate(d1, 8)
    c2 = nilpotency_certificate(d2, 8)
    _check(failures, c1.complete and max(c1.orders.values()) == 3, f"slide1 orders {c1.orders}")
    # measured order of y under slide2 is 4 (t^2 needs three Leibniz steps)
    _check(failures, c2.complete and max(c2.orders.values()) == 4, f"slide2 orders {c2.orders}")
    fwd = RingMap(L, {"y": x * y - x * v ** 2 - 2 * z * v, "z": z + x * v,
                      "v": 2 * v + y * z + 3 * x * y * v - 3 * z * v ** 2 - x * v ** 3})
    bwd = RingMap(L, {
        "y": -t ** -3 * (y + y ** 2 + v * z) - Fraction(1, 4) * t ** -6 * (y * z - x * v) ** 2,
        "z": z - Fraction(1, 2) * t ** -3 * x * (y * z - x * v),
        "v": Fraction(1, 2) * t ** -3 * (y * z - x * v)})
    pulled = conjugate(flow, fwd, bwd, [P], [S])
    modp = nilpotency_certificate(pulled.modulo(QuotientRelation(P)), 64)
    _check(failures, modp.complete, f"pulled mod P exceeded the bound: {modp.orders}")
    cof = exact_divide(pulled(P), P)
    _check(failures, cof is not None, "pulled(P) is not a multiple of P")
    if cof is not None:
        _check(failures, pulled(P) == cof * P, "recorded cofactor inconsistent")
    for name in L.names:
        _check(failures, pulled(L.var(name)).min_exponent("t") >= 0,
               f"image of {name} has negative t-exponents")
    _report(5, "locally nilpotent derivation certificates", failures)


# -- criterion 6: property suites ------------------------------------------------------

def _field_axiom_cases(count: int) -> int:
    rng = random.Random(6001)
    done = 0
    for _ in range(count):
        a, b, c = (random_coeff(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
        nz = nonzero_coeff(rng)
        assert nz * nz.inverse() == ONE
        done += 1
    return done


def _leibniz_and_homomorphism_cases(count: int) -> int:
    rng = random.Random(6002)
    T = VarTable(["x", "z", "t"])
    done = 0
    for _ in range(count):
        f = random_poly(rng, T, max_terms=3, max_deg=2)
        g = random_poly(rng, T, max_terms=3, max_deg=2)
        v = rng.choice(T.names)
        assert (f * g).diff(v) == f * g.diff(v) + g * f.diff(v)
        sigma = {"z": random_poly(rng, T, max_terms=2, max_deg=2),
                 "t": random_poly(rng, T, max_terms=2, max_deg=2)}
        assert ((f * g + g).substitute(sigma)
                == f.substitute(sigma) * g.substitute(sigma) + g.substitute(sigma))
        done += 1
    return done


def _parser_round_trip_cases(count: int) -> int:
    rng = random.Random(6003)
    done = 0
    for _ in range(count):
        T = random_table(rng)
        p = random_poly(rng, T, max_terms=5, max_deg=4)
        assert parse_value(render(p), T) == p
        done += 1
    return done


def _groebner_oracle_cases(count: int) -> int:
    rng = random.Random(6004)
    T2 = VarTable(["x", "z"])
    T3 = VarTable(["x", "z", "t"])
    done = 0
    for i in range(count):
        table = T3 if i % 10 == 0 else T2
        gens = [random_nonzero_poly(rng, table, max_terms=3, max_deg=2)
                for _ in range(rng.randint(1, 3))]
        if i % 2 == 0:
            f = table.zero()
            for g in gens:
                f = f + random_poly(rng, table, max_terms=2, max_deg=1) * g
            if f.is_zero():
                f = gens[0]
        else:
            f = random_nonzero_poly(rng, table, max_terms=3, max_deg=3)
        assert member(f, gens) == member_oracle(f, gens), (render(f), list(map(render, gens)))
        done += 1
    return done


def _normal_form_cases(count: int) -> int:
    rng = random.Random(6005)
    T = VarTable(["x", "y", "z", "t"])
    x, y = T.var("x"), T.var("y")
    P = cubic_poly(T)
    rel = QuotientRelation(P)
    plane = VarTable(["z", "t"])
    structure = [T.var("x") ** 2, T.var("z") ** 2 + T.var("t") ** 3 + T.var("x")]
    done = 0
    for _ in range(count):
        f0 = random_poly(rng, plane, max_terms=2, max_deg=2).transport(T)
        f1 = random_poly(rng, plane, max_terms=2, max_deg=2).transport(T)
        g = random_poly(rng, T, max_terms=3, max_deg=3)
        nf = normal_form(g, rel)
        assert normal_form(nf, rel) == nf
        assert normal_form(g + P * f1, rel) == nf
        probe = normal_form(x ** 2 * y * (f0 + x * f1), rel)
        assert probe == -(structure[1]) * (f0 + x * f1)
        if not probe.is_zero():
            assert member(probe, structure)
        done += 1
    return done


def test_criterion_6_property_suites():
    failures = []
    counts = {
        "field axioms": (_field_axiom_cases(1000), 1000),
        "Leibniz + homomorphism": (_leibniz_and_homomorphism_cases(500), 500),
        "parser round-trip": (_parser_round_trip_cases(1000), 1000),
        "membership vs oracle": (_groebner_oracle_cases(100), 100),
        "normal-form laws": (_normal_form_cases(200), 200),
    }
    for suite, (done, wanted) in counts.items():
        _check(failures, done >= wanted, f"{suite}: only {done} of {wanted} cases")
    summary = ", ".join(f"{suite} x{done}" for suite, (done, _) in counts.items())
    _report(6, summary, failures)


# -- criterion 7: negative controls ----------------------------------------------------

def test_criterion_7_negative_controls(capsys):
    failures = []
    for name in SHIPPED_MANIFESTS:
        negative = name.replace(".krv", "_negative.krv")
        code = main(["check", negative])
        capsys.readouterr()  # swallow the report text
        _check(failures, code == 1, f"{negative}: exit code {code}")
        report = run_file(negative)
        claim_fails = [r for r in report.results
                       if r.status == FAIL and r.kind != "narrative"]
        _check(failures, len(claim_fails) == 1,
               f"{negative}: {len(claim_fails)} failing claims")
    with capsys.disabled():
        _report(7, "negative controls fail exactly once with exit 1", failures)
