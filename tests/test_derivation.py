"""Derivations: Leibniz, nilpotency, conjugation, quotient descent and the
generator invariant."""

import random
from fractions import Fraction

import pytest

from krcubic.errors import DerivationError, UnverifiedPairError
from krcubic.groebner import member
from krcubic.morphism import (QuotientRelation, RingMap, compose, exact_divide)
from krcubic.derivation import (Derivation, conjugate, nilpotency_certificate,
                                substitute_parameter, theta_extract)
from krcubic.poly import VarTable, render

from conftest import cubic_poly, random_poly

# Exact cofactor of pulled(P)/P, frozen from the toolkit.  The transported
# derivation agrees with the naive push-forward only modulo (P), so this is
# not the product formula one would guess from the images; divisibility is
# the meaningful invariant and the cofactor is a regression value.
PULLED_COFACTOR = (
    "-x^4*v^5 + 4*x^4*y*v^3 - 4*x^3*z*v^4 + x^4*y^2*v - 4*x^2*y*t^3*v"
    " + 4*x^3*y*z*v^2 - 2*x*z*t^3*v^2 - 2*x^2*z^2*v^3 - 2*x*y*z*t^3"
    " + 2*x^2*y*z^2*v - 4*z^2*t^3*v + 3*x^3*v^3 + x^3*y*v - 2*x*t^3*v"
    " + 2*x^2*z*v^2"
)

PULLED_MODP_ORDERS = {"x": 3, "y": 5, "z": 5, "t": 1, "v": 3}


def cylinder_setup(table):
    x, y, z, t, v = (table.var(n) for n in ["x", "y", "z", "t", "v"])
    P = cubic_poly(table)
    S = x * y + z ** 2 + x + t ** 3
    flow = Derivation(table, {"x": -2 * t ** 6 * z, "z": t ** 6 * (y + 1)})
    fwd = RingMap(table, {"y": x * y - x * v ** 2 - 2 * z * v,
                          "z": z + x * v,
                          "v": 2 * v + y * z + 3 * x * y * v - 3 * z * v ** 2 - x * v ** 3})
    bwd = RingMap(table, {
        "y": -t ** -3 * (y + y ** 2 + v * z) - Fraction(1, 4) * t ** -6 * (y * z - x * v) ** 2,
        "z": z - Fraction(1, 2) * t ** -3 * x * (y * z - x * v),
        "v": Fraction(1, 2) * t ** -3 * (y * z - x * v)})
    return P, S, flow, fwd, bwd


def test_flow_kills_the_cousin(cylinder_ring):
    _, S, flow, _, _ = cylinder_setup(cylinder_ring)
    assert flow(S).is_zero()


def test_derivation_annihilates_constants(cylinder_ring):
    _, _, flow, _, _ = cylinder_setup(cylinder_ring)
    assert flow(cylinder_ring.constant(Fraction(5, 3))).is_zero()


def test_witness_derivations_kill_cubic_and_x(cylinder_ring):
    P = cubic_poly(cylinder_ring)
    x = cylinder_ring.var("x")
    d1 = Derivation(cylinder_ring, {"y": 2 * cylinder_ring.var("z"),
                                    "z": -x ** 2})
    d2 = Derivation(cylinder_ring, {"y": 3 * cylinder_ring.var("t") ** 2,
                                    "t": -x ** 2})
    for d in (d1, d2):
        assert d(P).is_zero()
        assert d(x).is_zero()
    # each remaining variable moves under at least one of them
    for v in ("y", "z", "t"):
        assert not (d1(cylinder_ring.var(v)).is_zero()
                    and d2(cylinder_ring.var(v)).is_zero())


def test_nilpotency_orders_of_the_flow(cylinder_ring):
    _, _, flow, _, _ = cylinder_setup(cylinder_ring)
    cert = nilpotency_certificate(flow, 8)
    assert cert.complete
    assert cert.orders == {"x": 3, "z": 2, "y": 1, "t": 1, "v": 1}


def test_nilpotency_orders_of_the_witnesses(cylinder_ring):
    x = cylinder_ring.var("x")
    d1 = Derivation(cylinder_ring, {"y": 2 * cylinder_ring.var("z"), "z": -x ** 2})
    d2 = Derivation(cylinder_ring, {"y": 3 * cylinder_ring.var("t") ** 2, "t": -x ** 2})
    c1 = nilpotency_certificate(d1, 8)
    c2 = nilpotency_certificate(d2, 8)
    assert c1.complete and max(c1.orders.values()) == 3
    assert c2.complete and max(c2.orders.values()) == 4  # y -> 3t^2 -> -6x^2 t -> 6x^4 -> 0


def test_zero_derivation_has_all_orders_one(cylinder_ring):
    cert = nilpotency_certificate(Derivation(cylinder_ring, {}), 8)
    assert cert.complete
    assert set(cert.orders.values()) == {1}


def test_bound_exceeded_is_an_outcome_not_an_exception():
    T = VarTable(["x"])
    grow = Derivation(T, {"x": T.var("x")})
    cert = nilpotency_certificate(grow, 5)
    assert not cert.complete
    assert cert.failed_generator == "x"
    with pytest.raises(DerivationError):
        nilpotency_certificate(grow, 0)


def test_a_parameter_has_order_one():
    # a derivation kills parameters, so a parameter's first iterate is zero,
    # with or without a quotient relation
    T = VarTable(["x", "y", "z", "t", "c"], params=["c"])
    x, z = T.var("x"), T.var("z")
    d = Derivation(T, {"y": 2 * z, "z": -x ** 2})
    for cert in (nilpotency_certificate(d, 8),
                 nilpotency_certificate(d.modulo(QuotientRelation(cubic_poly(T))), 8)):
        assert cert.complete and cert.orders["c"] == 1


# -- conjugation along the cylinder isomorphism -------------------------------------

def test_conjugated_derivation_moves_x(cylinder_ring):
    P, S, flow, fwd, bwd = cylinder_setup(cylinder_ring)
    pulled = conjugate(flow, fwd, bwd, [P], [S])
    x, z, t, v = (cylinder_ring.var(n) for n in ["x", "z", "t", "v"])
    assert pulled(x) == -2 * t ** 6 * (z + x * v)
    assert not pulled(x).is_zero()


def test_conjugated_images_are_polynomial_in_t(cylinder_ring):
    P, S, flow, fwd, bwd = cylinder_setup(cylinder_ring)
    pulled = conjugate(flow, fwd, bwd, [P], [S])
    for name in cylinder_ring.names:
        assert pulled(cylinder_ring.var(name)).min_exponent("t") >= 0


def test_conjugation_requires_verified_pair(cylinder_ring):
    P, S, flow, fwd, bwd = cylinder_setup(cylinder_ring)
    with pytest.raises(UnverifiedPairError):
        conjugate(flow, fwd, bwd, [], [])  # pair only inverts modulo the ideals


def test_conjugation_by_identity(cylinder_ring):
    _, _, flow, _, _ = cylinder_setup(cylinder_ring)
    ident = RingMap(cylinder_ring, {})
    conjugated = conjugate(flow, ident, ident)
    assert conjugated.images == flow.images and conjugated.relation is flow.relation is None


def test_pulled_preserves_cubic_with_frozen_cofactor(cylinder_ring):
    P, S, flow, fwd, bwd = cylinder_setup(cylinder_ring)
    pulled = conjugate(flow, fwd, bwd, [P], [S])
    cof = exact_divide(pulled(P), P)
    assert cof is not None
    assert render(cof) == PULLED_COFACTOR


def test_pulled_is_nilpotent_modulo_the_cubic(cylinder_ring):
    P, S, flow, fwd, bwd = cylinder_setup(cylinder_ring)
    pulled = conjugate(flow, fwd, bwd, [P], [S])
    cert = nilpotency_certificate(pulled.modulo(QuotientRelation(P)), 64)
    assert cert.complete
    assert cert.orders == PULLED_MODP_ORDERS


def test_descent_condition_enforced(cylinder_ring):
    P = cubic_poly(cylinder_ring)
    z = cylinder_ring.var("z")
    with pytest.raises(DerivationError):
        # z -> 1 does not preserve (P): d(P) = 2z is no multiple of P
        Derivation(cylinder_ring, {"z": cylinder_ring.one()},
                   QuotientRelation(P))


# -- generator invariant --------------------------------------------------------------

def base_ring():
    return VarTable(["x", "z", "t"])


def twist(table):
    x, z, t = (table.var(n) for n in ["x", "z", "t"])
    phi_z = z + 3 * x * t ** 5
    return RingMap(table, {"z": phi_z, "t": t + 2 * x * phi_z ** 3})


def test_invariant_of_the_twist():
    T = base_ring()
    z, t = T.var("z"), T.var("t")
    alpha = theta_extract(twist(T), z ** 2 + t ** 3)
    assert alpha == (t ** 3 - z ** 2) * Fraction(1, 2)


def test_invariant_of_identity_is_zero():
    T = base_ring()
    r = T.var("z") ** 2 + T.var("t") ** 3
    assert theta_extract(RingMap(T, {}), r).is_zero()


def test_invariant_postcondition_congruences():
    T = base_ring()
    x, z, t = (T.var(n) for n in ["x", "z", "t"])
    r = z ** 2 + t ** 3
    phi = twist(T)
    alpha = theta_extract(phi, r)
    h = r * alpha
    assert exact_divide(phi.image_of("z") - (z + x * h.diff("t")), x ** 2) is not None
    assert exact_divide(phi.image_of("t") - (t - x * h.diff("z")), x ** 2) is not None


def test_invariant_is_additive():
    # theta only sees maps modulo x^2, so composing the truncations of the
    # twist gives the doubled invariant cheaply
    T = base_ring()
    x, z, t = (T.var(n) for n in ["x", "z", "t"])
    r = z ** 2 + t ** 3
    trunc = RingMap(T, {"z": z + 3 * x * t ** 5, "t": t + 2 * x * z ** 3})
    assert theta_extract(trunc, r) == (t ** 3 - z ** 2) * Fraction(1, 2)
    doubled = theta_extract(compose(trunc, trunc), r)
    assert doubled == t ** 3 - z ** 2


def test_invariant_of_the_parametric_family():
    T = VarTable(["x", "z", "t", "c"], params=["c"])
    x, z, t, c = (T.var(n) for n in ["x", "z", "t", "c"])
    zim = z + 3 * x * t ** 2 * (t ** 3 + Fraction(1, 2) * c)
    phi = RingMap(T, {"z": zim, "t": t + 2 * x * zim * (zim ** 2 + Fraction(1, 2) * c)})
    r = z ** 2 + t ** 3 + c
    assert member(phi(r), [x ** 2, r])
    assert theta_extract(phi, r) == (t ** 3 - z ** 2) * Fraction(1, 2)


def test_invariant_rejects_maps_moving_x():
    T = base_ring()
    x, z, t = (T.var(n) for n in ["x", "z", "t"])
    bad = RingMap(T, {"x": 2 * x})
    with pytest.raises(DerivationError):
        theta_extract(bad, z ** 2 + t ** 3)


def test_invariant_rejects_non_area_preserving_maps():
    T = base_ring()
    x, z, t = (T.var(n) for n in ["x", "z", "t"])
    bad = RingMap(T, {"z": z + x * z})  # f = z, f_z + g_t = 1 != 0
    with pytest.raises(DerivationError):
        theta_extract(bad, z ** 2 + t ** 3)


# -- formal parameter substitution ----------------------------------------------------

def test_parameter_substitution_recovers_plain_maps():
    T = VarTable(["x", "y", "z", "t", "c"], params=["c"])
    x, y, c = T.var("x"), T.var("y"), T.var("c")
    bwd_c = RingMap(T, {"y": (1 + x) * y + c})
    at_zero = substitute_parameter(bwd_c, "c", T.zero())
    assert at_zero.images["y"] == (1 + x) * y


def test_parameter_substitution_renames():
    T = VarTable(["x", "y", "c", "d"], params=["c", "d"])
    m = RingMap(T, {"y": T.var("y") + T.var("c")})
    renamed = substitute_parameter(m, "c", T.var("d"))
    assert renamed.images["y"] == T.var("y") + T.var("d")


def test_parameter_substitution_glues_the_family(ring4):
    T = VarTable(["x", "y", "z", "t", "c"], params=["c"])
    x, y, z, t, c = (T.var(n) for n in ["x", "y", "z", "t", "c"])
    from krcubic.morphism import extend_to_quotient_automorphism
    P = cubic_poly(T)
    zim = z + 3 * x * t ** 2 * (t ** 3 + Fraction(1, 2) * c)
    phi = RingMap(T, {"z": zim, "t": t + 2 * x * zim * (zim ** 2 + Fraction(1, 2) * c)})
    ext = extend_to_quotient_automorphism(phi, QuotientRelation(P + c), T.one())
    assert ext.factor == 1 + 6 * x * z * t ** 2
    glued = substitute_parameter(ext.map, "c", -P)
    assert glued(P) == P


def test_parameter_substitution_guards():
    T = VarTable(["x", "c"], params=["c"])
    m = RingMap(T, {"x": T.var("x") + T.var("c")})
    from krcubic.errors import KrError
    with pytest.raises(KrError):
        substitute_parameter(m, "x", T.zero())  # not a parameter
    with pytest.raises(KrError):
        substitute_parameter(m, "c", T.var("c") + 1)  # value involves c


# -- Leibniz property ------------------------------------------------------------------

def test_leibniz_for_random_derivations():
    T = VarTable(["x", "z", "t"])
    rng = random.Random(80)
    for _ in range(25):
        d = Derivation(T, {"z": random_poly(rng, T, max_terms=2, max_deg=2),
                           "t": random_poly(rng, T, max_terms=2, max_deg=2)})
        f = random_poly(rng, T, max_terms=3, max_deg=2)
        g = random_poly(rng, T, max_terms=3, max_deg=2)
        assert d(f * g) == f * d(g) + g * d(f)
