"""Polynomial engine: arithmetic, substitution, calculus, grading."""

import random
from fractions import Fraction

import pytest

from krcubic.coeff import OMEGA, Eisenstein
from krcubic.errors import (EmptyConeError, KrError, NegativeExponentError,
                            NonUnitError, TableMismatchError)
from krcubic.parser import parse_polynomial
from krcubic.poly import Polynomial, VarTable

from conftest import (cubic_poly, companion_poly, random_nonzero_poly,
                      random_poly, random_table)


def vars_of(table, *names):
    return tuple(table.var(n) for n in names)


def test_product_expansion_matches_hand_computation(ring4):
    x, y, z, t = vars_of(ring4, "x", "y", "z", "t")
    P = cubic_poly(ring4)
    got = (1 + x) * P
    expected = (x ** 2 * y + x ** 3 * y + z ** 2 + x * z ** 2 + x + x ** 2
                + t ** 3 + x * t ** 3)
    assert got == expected
    assert len(got.terms) == 8


def test_additive_identity(ring4):
    P = cubic_poly(ring4)
    assert P + ring4.zero() == P
    assert P - P == ring4.zero()


def test_binomial_square(cylinder_ring):
    x, z, v = vars_of(cylinder_ring, "x", "z", "v")
    assert (z + x * v) ** 2 == z ** 2 + 2 * x * z * v + x ** 2 * v ** 2


def test_table_mismatch_rejected(ring4, ring3):
    with pytest.raises(TableMismatchError):
        cubic_poly(ring4) + ring3.var("x")


def test_negative_power_of_non_unit_rejected(ring4):
    with pytest.raises((NonUnitError, NegativeExponentError)):
        (ring4.var("x") + 1) ** -1
    with pytest.raises(NegativeExponentError):
        ring4.var("t") ** -1


def test_substitution_reproduces_pullback_identities(ring4):
    x, y, z, t = vars_of(ring4, "x", "y", "z", "t")
    P, Q = cubic_poly(ring4), companion_poly(ring4)
    assert Q.substitute({"y": (1 + x) * y}) == (1 + x) * P
    assert P.substitute({"y": (1 - x) * y - x - z ** 2 - t ** 3}) == (1 - x) * Q


def test_substitution_on_cylinder_pair(cylinder_ring):
    x, y, z, t, v = vars_of(cylinder_ring, "x", "y", "z", "t", "v")
    cousin = x * y + z ** 2 + x + t ** 3
    images = {"y": x * y - x * v ** 2 - 2 * z * v, "z": z + x * v}
    assert cousin.substitute(images) == cubic_poly(cylinder_ring)


def test_substitution_needs_unit_image_for_negative_exponent(cylinder_ring):
    t, z = vars_of(cylinder_ring, "t", "z")
    f = t ** -3
    assert f.substitute({"t": 2 * t}) == Fraction(1, 8) * t ** -3
    with pytest.raises(NonUnitError):
        f.substitute({"t": t + z})


@pytest.mark.parametrize("k", [1, 2])
def test_substitution_mutates_neither_images_nor_powers(ring3, k):
    # x^k*(1 + z + t) + 1 with x -> p: the first term is p^k itself (a
    # coefficient of one is not multiplied in), the next two reuse the cached
    # power after it was added into the result.
    x, z, t = vars_of(ring3, "x", "z", "t")
    p = z + 2 * t + 1
    before = dict(p.terms)
    got = (x ** k + x ** k * z + x ** k * t + 1).substitute({"x": p})
    assert p.terms == before and p == z + 2 * t + 1
    power = p if k == 1 else (z + 2 * t + 1) * (z + 2 * t + 1)
    assert got == power + power * z + power * t + 1
    assert ring3.constant(3).substitute({"x": p}) == ring3.constant(3)


def test_partial_derivatives(ring4):
    x, y, z, t = vars_of(ring4, "x", "y", "z", "t")
    P = cubic_poly(ring4)
    assert P.diff("y") == x ** 2
    assert P.diff("x") == 2 * x * y + 1
    assert P.diff("z") == 2 * z
    assert P.diff("t") == 3 * t ** 2


def test_laurent_derivative(cylinder_ring):
    t = cylinder_ring.var("t")
    assert (t ** -3).diff("t") == -3 * t ** -4


def test_unknown_variable_rejected(ring4):
    with pytest.raises(KrError):
        cubic_poly(ring4).diff("nope")


def param_ring():
    return VarTable(["x", "y", "z", "t", "y0"], params=["y0"])


def test_lowest_part_of_cubic_fiber():
    T = param_ring()
    x, y, z, t, y0 = (T.var(n) for n in ["x", "y", "z", "t", "y0"])
    W = x ** 2 * y + z ** 2 + t ** 3  # cubic minus x
    cone = W.lowest_homogeneous_part({"x": 0, "y": y0, "z": 0, "t": 0})
    assert cone == z ** 2 + y0 * x ** 2


def test_lowest_part_of_companion_fiber():
    T = param_ring()
    x, y, z, t, y0 = (T.var(n) for n in ["x", "y", "z", "t", "y0"])
    W = companion_poly(T) - x
    cone = W.lowest_homogeneous_part({"x": 0, "y": y0, "z": 0, "t": 0})
    assert cone == z ** 2 + (y0 + 1) * x ** 2


def test_lowest_part_of_homogeneous_input(ring4):
    f = ring4.var("x") ** 2 * ring4.var("y")
    assert f.lowest_homogeneous_part() == f


def test_empty_cone_reported(ring4):
    with pytest.raises(EmptyConeError):
        ring4.zero().lowest_homogeneous_part({"x": 1})


def test_weighted_homogeneity(ring4):
    x, y, z, t = vars_of(ring4, "x", "y", "z", "t")
    P = cubic_poly(ring4)
    assert (z ** 2 + t ** 3 + x).is_weighted_homogeneous({"x": 6, "z": 3, "t": 2}, 6)
    assert P.is_weighted_homogeneous({"x": 6, "y": -6, "z": 3, "t": 2}, 6)
    assert not P.is_weighted_homogeneous({"x": 1, "y": 1, "z": 1, "t": 1}, 3)


def test_transport_by_name(ring3, ring4):
    f = ring3.var("z") ** 2 + ring3.var("t") ** 3 + ring3.var("x")
    g = f.transport(ring4)
    assert g.table == ring4
    assert g == ring4.var("z") ** 2 + ring4.var("t") ** 3 + ring4.var("x")
    with pytest.raises(KrError):
        cubic_poly(ring4).transport(ring3)  # y does not exist downstairs


# -- hashing --------------------------------------------------------------------

def test_equal_polynomials_hash_equal(ring3, ring4):
    x, z, t = vars_of(ring3, "x", "z", "t")
    built = [
        ((x + OMEGA * z) ** 2,
         x ** 2 + 2 * OMEGA * x * z + OMEGA ** 2 * z ** 2,
         parse_polynomial("x^2 + 2*w*x*z + w^2*z^2", ring3),
         Polynomial(ring3, {(2, 0, 0): Eisenstein(1), (1, 1, 0): 2 * OMEGA,
                            (0, 2, 0): OMEGA ** 2, (0, 0, 5): Eisenstein(0)})),
        ((t + 1) * (t - 1) + 1, t ** 2, (t ** 2).transport(ring4).transport(ring3)),
        (ring3.zero(), x - x, ring3.constant(0)),
    ]
    for group in built:
        assert all(p == group[0] for p in group)
        assert len({hash(p) for p in group}) == 1


def test_hash_builds_no_coefficient_hash(ring3, monkeypatch):
    def refuse(self):
        raise AssertionError("a coefficient was hashed")

    monkeypatch.setattr(Eisenstein, "__hash__", refuse)
    x, z, t = vars_of(ring3, "x", "z", "t")
    p = OMEGA * x ** 2 * z + Fraction(2, 3) * t - OMEGA ** 2
    q = parse_polynomial("w*x^2*z + 2/3*t - w^2", ring3)
    assert hash(p) == hash(q)
    assert {p: 1}[q] == 1


def test_polynomials_sharing_a_support_stay_apart(ring3):
    x, z = vars_of(ring3, "x", "z")
    same_support = [x + 1, x + 2, x - 1, OMEGA * x + 1, x + OMEGA, 2 * x + 1]
    assert len(set(same_support)) == len(same_support)
    table = {p: i for i, p in enumerate(same_support)}
    for i, p in enumerate(same_support):
        assert table[p * 1] == i
    assert x + 3 not in table and z + 1 not in table
    assert (x + 1) * 2 not in set(same_support) and x * 2 + 1 in set(same_support)


def test_constants_hash_like_the_numbers_they_equal(ring3, ring4):
    x = ring3.var("x")
    numbers = [0, 3, -1, Fraction(-2, 3), Eisenstein(5), OMEGA, 1 + 2 * OMEGA]
    for n in numbers:
        for const in (ring3.constant(n), (x + n) - x, ring4.constant(n)):
            assert const == n and n == const
            assert hash(const) == hash(n)
            assert n in {const} and const in {n}
    # equal values collapse to one set member, whatever their type
    mixed = {3, Fraction(3), Eisenstein(3), ring3.constant(3), ring3.zero(), 0,
             OMEGA, ring3.constant(OMEGA), x, x + 3, Fraction(1, 2),
             ring3.constant(Fraction(1, 2)), Eisenstein(Fraction(1, 2))}
    assert len(mixed) == 6
    by_number = {3: "three", Fraction(1, 2): "half", OMEGA: "w", 0: "zero", x: "x"}
    assert by_number[ring3.constant(3)] == "three"
    assert by_number[(x + Fraction(1, 2)) - x] == "half"
    assert by_number[ring3.constant(OMEGA)] == "w"
    assert by_number[x - x] == "zero"
    assert by_number[x * 1] == "x"
    by_constant = {ring3.constant(3): "three", ring3.constant(OMEGA): "w", ring3.zero(): "zero"}
    assert by_constant[3] == by_constant[Eisenstein(3)] == by_constant[Fraction(3)] == "three"
    assert by_constant[OMEGA] == "w" and by_constant[0] == "zero"
    assert Fraction(1, 2) not in by_constant and x + 3 not in by_constant


# -- structural properties on random data -------------------------------------

def test_substitution_is_a_ring_homomorphism():
    rng = random.Random(101)
    T = VarTable(["x", "z", "t"])
    for _ in range(60):
        f = random_poly(rng, T, max_terms=3, max_deg=2)
        g = random_poly(rng, T, max_terms=3, max_deg=2)
        sigma = {"x": random_poly(rng, T, max_terms=2, max_deg=2),
                 "z": random_poly(rng, T, max_terms=2, max_deg=2)}
        lhs = (f * g + g).substitute(sigma)
        rhs = f.substitute(sigma) * g.substitute(sigma) + g.substitute(sigma)
        assert lhs == rhs


def test_leibniz_rule_on_random_inputs():
    rng = random.Random(102)
    T = VarTable(["x", "z", "t"], laurent=["t"])
    for _ in range(60):
        f = random_poly(rng, T)
        g = random_poly(rng, T)
        for v in T.names:
            assert (f * g).diff(v) == f * g.diff(v) + g * f.diff(v)


def test_mixed_partials_commute():
    rng = random.Random(103)
    T = VarTable(["x", "z", "t"])
    for _ in range(60):
        f = random_poly(rng, T, max_deg=4)
        assert f.diff("x").diff("z") == f.diff("z").diff("x")
        assert f.diff("z").diff("t") == f.diff("t").diff("z")


def test_translation_round_trip():
    rng = random.Random(104)
    T = VarTable(["x", "z", "t"])
    for _ in range(40):
        f = random_poly(rng, T)
        center = {"x": T.constant(rng.randint(-3, 3)),
                  "z": T.constant(rng.randint(-3, 3))}
        back = {v: -c for v, c in center.items()}
        assert f.translate(center).translate(back) == f


def test_homogeneous_components_reassemble():
    rng = random.Random(105)
    T = VarTable(["x", "z", "t", "c0"], params=["c0"])
    for _ in range(40):
        f = random_nonzero_poly(rng, T)
        comps = f.homogeneous_components()
        total = T.zero()
        for d, part in comps.items():
            for exps in part.terms:
                assert part.weighted_degree_of_term(exps) == d
            total = total + part
        assert total == f


def test_random_tables_stay_consistent():
    rng = random.Random(106)
    for _ in range(30):
        T = random_table(rng)
        f = random_poly(rng, T)
        g = random_poly(rng, T)
        assert f + g == g + f
        assert (f - g) + g == f
