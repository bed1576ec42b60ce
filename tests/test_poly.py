"""Polynomial engine: arithmetic, substitution, calculus, grading."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from krcubic import poly
from krcubic.coeff import OMEGA, Eisenstein
from krcubic.derivation import Derivation, substitute_parameter, theta_extract
from krcubic.errors import (ExponentOverflowError, KrError, NegativeExponentError,
                            NonUnitError, PostconditionError, TableMismatchError)
from krcubic.geometry import tangent_cone
from krcubic.groebner import _spoly, buchberger, member, reduce, singular_at
from krcubic.morphism import (QuotientRelation, RingMap, compose, exact_divide,
                              normal_form)
from krcubic.poly import (EXPONENT_LIMIT, Polynomial, VarTable, clear_laurent,
                          linear_combination, render)

from conftest import (assert_lowest_terms, cubic_poly, companion_poly, grevlex_key,
                      parse_value, random_poly, random_table)


def vars_of(table, *names):
    return tuple(table.var(n) for n in names)


def test_product_expansion_matches_hand_computation(ring4):
    x, y, z, t = vars_of(ring4, "x", "y", "z", "t")
    P = cubic_poly(ring4)
    got = (1 + x) * P
    expected = (x ** 2 * y + x ** 3 * y + z ** 2 + x * z ** 2 + x + x ** 2
                + t ** 3 + x * t ** 3)
    assert got == expected
    assert len(got) == 8


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


# Each kernel entry point, given one operand over another table.  FOREIGN has
# OWN's names, so a transport by name would succeed, but c is no parameter
# there.  Some cases need more than the check the operation reaches anyway: a
# zero derivative, a generator that minimalization drops, a table without c,
# and one without the x that the relation's normal form reads.
OWN = VarTable(["x", "y", "z", "t", "c"], params=["c"])
FOREIGN = VarTable(["x", "y", "z", "t", "c"])
LAURENT = VarTable(["x", "t"], laurent=["t"])
LINE = VarTable(["y"])


FOREIGN_OPERAND = {
    "compose": lambda: compose(RingMap(OWN, {}), RingMap(FOREIGN, {})),
    "exact_divide": lambda: exact_divide(OWN.var("x") * OWN.var("z"), FOREIGN.var("x")),
    "reduce": lambda: reduce(OWN.var("x"), [FOREIGN.var("x")]),
    "buchberger": lambda: buchberger([OWN.one(), FOREIGN.var("x")]),
    "member": lambda: member(OWN.var("x"), [FOREIGN.var("x")]),
    "member saturated": lambda: member(LAURENT.one(), [LAURENT.var("t") + LAURENT.var("x"),
                                                       OWN.var("x")]),
    "RingMap": lambda: RingMap(OWN, {"z": FOREIGN.var("z")}),
    "RingMap.apply": lambda: RingMap(OWN, {})(FOREIGN.var("x")),
    "Derivation": lambda: Derivation(OWN, {"z": FOREIGN.var("x")}),
    "Derivation relation": lambda: Derivation(OWN, {}, QuotientRelation(cubic_poly(FOREIGN))),
    "Derivation.apply": lambda: Derivation(OWN, {"z": OWN.var("x")})(FOREIGN.var("x")),
    "normal_form": lambda: normal_form(LINE.var("y"), QuotientRelation(cubic_poly(OWN))),
    "theta_extract": lambda: theta_extract(RingMap(OWN, {}),
                                           FOREIGN.var("z") ** 2 + FOREIGN.var("t") ** 3),
    "substitute_parameter": lambda: substitute_parameter(RingMap(OWN, {}), "c",
                                                         LINE.var("y")),
    "tangent_cone": lambda: tangent_cone(OWN.var("z") ** 2,
                                         {"x": 0, "y": 0, "z": 0, "t": FOREIGN.zero()}),
    "singular_at": lambda: singular_at(OWN.var("z") ** 2,
                                       {"x": 0, "y": 0, "z": 0, "t": FOREIGN.zero()}),
}


@pytest.mark.parametrize("entry", sorted(FOREIGN_OPERAND))
def test_every_kernel_entry_point_rejects_a_foreign_table(entry):
    with pytest.raises(TableMismatchError):
        FOREIGN_OPERAND[entry]()


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


def test_substitution_images_are_over_the_own_table(ring3, ring4):
    x, z, t = vars_of(ring3, "x", "z", "t")
    f = x ** 2 * z + t
    with pytest.raises(TableMismatchError):
        f.substitute({"x": ring4.var("x")})
    with pytest.raises(TableMismatchError):
        f.substitute({"z": 2, "x": ring4.var("y")})
    # a scalar image is a constant over the polynomial's own table
    for value in (3, Fraction(-1, 2), OMEGA):
        got = f.substitute({"x": value, "t": 0})
        assert got.table == ring3 and got == value * value * z
    assert f.substitute({"x": ring3.var("z")}).table == ring3


@pytest.mark.parametrize("k", [1, 2])
def test_substitution_mutates_neither_images_nor_powers(ring3, k):
    # x^k*(1 + z + t) + 1 with x -> p: the first term is p^k itself (a
    # coefficient of one is not multiplied in), the next two reuse the cached
    # power after it was added into the result.
    x, z, t = vars_of(ring3, "x", "z", "t")
    p = z + 2 * t + 1
    before = p.items()
    got = (x ** k + x ** k * z + x ** k * t + 1).substitute({"x": p})
    assert p.items() == before and p == z + 2 * t + 1
    power = p if k == 1 else (z + 2 * t + 1) * (z + 2 * t + 1)
    assert got == power + power * z + power * t + 1
    assert ring3.constant(3).substitute({"x": p}) == ring3.constant(3)


@pytest.mark.parametrize("laurent", [(), ("y",)], ids=["polynomial", "laurent"])
def test_exponent_bounds_do_not_drift_under_iteration(laurent):
    # x times the constant d(x)/dx, 20,000 times over: every product is x, so
    # the bound stays small (a bound that summed its operands' would pass
    # EXPONENT_LIMIT at the 16,383rd product), over a Laurent ring too
    T = VarTable(["x", "y"], laurent=laurent)
    x = T.var("x")
    one = x.diff("x")
    p = x
    for _ in range(20000):
        p = p * one
    assert p == x


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
    # the name is looked up before the zero polynomial's answer is given
    for p in (cubic_poly(ring4), ring4.zero()):
        for query in (p.degree_in, p.min_exponent, p.diff):
            with pytest.raises(KrError, match="unknown variable 'nope'"):
                query("nope")
    assert (ring4.zero().degree_in("x"), ring4.zero().min_exponent("x")) == (-1, 0)


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


# -- accessors ------------------------------------------------------------------

LAURENT_PARAM = VarTable(["x", "t", "c"], laurent=["t"], params=["c"])
fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
laurent_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(-2, 2), st.integers(0, 2)),
    st.builds(Eisenstein, fracs, fracs), max_size=6,
).map(lambda terms: Polynomial(LAURENT_PARAM, terms))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(laurent_polys)
def test_coefficients_in_a_variable_sum_back_to_the_polynomial(p):
    for v in LAURENT_PARAM.names:
        total = LAURENT_PARAM.zero()
        for k in range(p.min_exponent(v), p.degree_in(v) + 1):
            part = p.coefficient_in(v, k)
            assert v not in part.variables_used()
            total = total + part * LAURENT_PARAM.var(v) ** k
        assert total == p
    assert len(p) == len(list(p.items()))
    assert all(p.coeff(exps) == c for exps, c in p.items())


def test_monomial_coeff_and_len(cylinder_ring):
    x, t = vars_of(cylinder_ring, "x", "t")
    assert cylinder_ring.monomial((1, 0, 0, -2, 0)) == x * t ** -2
    assert cylinder_ring.monomial([0] * 5) == cylinder_ring.one()
    with pytest.raises(KrError, match="arity"):
        cylinder_ring.monomial((1, 0))
    with pytest.raises(NegativeExponentError, match="'x'"):
        cylinder_ring.monomial((-1, 0, 0, 0, 0))
    f = 3 * x * t ** -2 + OMEGA
    assert f.coeff((1, 0, 0, -2, 0)) == 3 and f.coeff([0] * 5) == OMEGA
    assert f.coeff((1, 0, 0, 0, 0)) == 0  # absent
    assert len(f) == 2 and len(cylinder_ring.zero()) == 0
    assert f.coefficient_in("t", -2) == 3 * x and f.coefficient_in("t", 1).is_zero()


# -- the stored form --------------------------------------------------------------

CANON = VarTable(["x", "y", "t"], laurent=["t"])
WIDER = VarTable(["s", "t", "y", "x"], laurent=["t"])
canon_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
canon_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 2)),
    st.one_of(st.builds(Eisenstein, canon_fracs), st.builds(Eisenstein, canon_fracs, canon_fracs)),
    max_size=4,
).map(lambda terms: Polynomial(CANON, terms))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(canon_polys, canon_polys, canon_polys)
def test_every_result_is_in_lowest_terms(p, q, r):
    x, t = CANON.var("x"), CANON.var("t")
    got = [p + q, p - q, p - p, (p + q) - q, p * q, p * Fraction(3, 2), p * OMEGA,
           -p, p ** 2, q ** 3, p.monic(), q.monic(), p.transport(WIDER),
           p.substitute({"x": q, "y": r}), p.substitute({"x": 2 * x, "t": Fraction(1, 2) * t ** -1}),
           clear_laurent(p)[0]]
    got += [p.diff(v) for v in CANON.names]
    got += [p.coefficient_in(v, k) for v in CANON.names for k in (-1, 0, 1, 2)]
    divisors = [g for g in (clear_laurent(q)[0], clear_laurent(r)[0]) if g]
    if divisors:
        rem, cofactors = reduce(clear_laurent(p)[0], divisors)
        got += [rem, *cofactors]
    for value in got:
        assert_lowest_terms(value)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(canon_polys)
def test_antiderivative_is_undone_by_diff(p):
    for v in CANON.names:
        if p.coefficient_in(v, -1):
            with pytest.raises(KrError, match="exponent -1"):
                p.antiderivative(v)
            continue
        f = p.antiderivative(v)
        assert_lowest_terms(f)
        assert f.diff(v) == p
        assert f.coefficient_in(v, 0).is_zero()


def test_antiderivative_of_negative_powers():
    x, t = CANON.var("x"), CANON.var("t")
    assert (t ** -2).antiderivative("t") == -t ** -1
    f = x * t ** -3 + Fraction(1, 2) * t ** -2 + OMEGA * t
    assert f.antiderivative("t") == (-Fraction(1, 2) * x * t ** -2 - Fraction(1, 2) * t ** -1
                                     + OMEGA / 2 * t ** 2)


# -- hashing --------------------------------------------------------------------

def test_equal_polynomials_hash_equal(ring3, ring4):
    x, z, t = vars_of(ring3, "x", "z", "t")
    built = [
        ((x + OMEGA * z) ** 2,
         x ** 2 + 2 * OMEGA * x * z + OMEGA * OMEGA * z ** 2,
         parse_value("x^2 + 2*w*x*z + w^2*z^2", ring3),
         Polynomial(ring3, {(2, 0, 0): Eisenstein(1), (1, 1, 0): 2 * OMEGA,
                            (0, 2, 0): OMEGA * OMEGA, (0, 0, 5): Eisenstein(0)})),
        ((t + 1) * (t - 1) + 1, t ** 2, (t ** 2).transport(ring4).transport(ring3)),
        (ring3.zero(), x - x, ring3.constant(0)),
    ]
    for group in built:
        assert all(p == group[0] for p in group)
        assert len({hash(p) for p in group}) == 1


def _stored(p):
    assert_lowest_terms(p)
    return p.den, p.terms


def test_cheap_constructors_build_the_validated_values(ring3):
    # var and constant wrap their term dict without a second validation
    for i, name in enumerate(ring3.names):
        exps = tuple(int(j == i) for j in range(ring3.arity))
        cheap, full = ring3.var(name), Polynomial(ring3, {exps: Eisenstein(1)})
        assert cheap == full and hash(cheap) == hash(full)
        assert _stored(cheap) == _stored(full)
    for n in (0, 1, -7, True, Fraction(3, -6), OMEGA, 1 - OMEGA):
        value = n if isinstance(n, Eisenstein) else Eisenstein(Fraction(n))
        cheap, full = ring3.constant(n), Polynomial(ring3, {(0, 0, 0): value})
        assert cheap == full and hash(cheap) == hash(full)
        assert _stored(cheap) == _stored(full)
    assert str(ring3.constant(True)) == "1" and ring3.one() == 1


def test_hash_builds_no_coefficient_hash(ring3, monkeypatch):
    def refuse(self):
        raise AssertionError("a coefficient was hashed")

    monkeypatch.setattr(Eisenstein, "__hash__", refuse)
    x, z, t = vars_of(ring3, "x", "z", "t")
    p = OMEGA * x ** 2 * z + Fraction(2, 3) * t - OMEGA * OMEGA
    q = parse_value("w*x^2*z + 2/3*t - w^2", ring3)
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


# -- results already in hand -------------------------------------------------------

def test_a_bare_variable_substitutes_to_its_image(cylinder_ring):
    x, y, z, t, v = vars_of(cylinder_ring, "x", "y", "z", "t", "v")
    images = {"x": y * t ** -1 + 3, "t": OMEGA * t ** -1, "z": z, "v": 2}
    for name, bare in zip(cylinder_ring.names, (x, y, z, t, v)):
        got = bare.substitute(images)
        # the general path, through a term that is not bare, gives the same value
        assert got == (2 * bare).substitute(images) * Fraction(1, 2)
        assert got == cylinder_ring.coerce(images.get(name, bare))
        if name in ("x", "t"):  # moved: the image itself
            assert got is images[name]
        elif name != "v":  # unassigned, or written z -> z: the variable itself
            assert got is bare
    # t^-1 and t^2 are not bare: t^-1 takes the inverse of t's image
    assert (t ** -1).substitute(images) == OMEGA * OMEGA * t
    assert (t ** 2).substitute(images) == OMEGA * OMEGA * t ** -2
    assert (x * 1).substitute({}) == x and (-x).substitute(images) == -images["x"]


def test_a_bare_variable_still_checks_every_image(ring4, ring3):
    x = ring4.var("x")
    with pytest.raises(TableMismatchError):
        x.substitute({"x": ring4.var("y"), "z": ring3.var("z")})
    with pytest.raises(KrError, match="unknown variable 'w'"):
        x.substitute({"w": 1})
    with pytest.raises(TypeError):
        x.substitute({"y": "not a polynomial"})


def test_reduce_with_nothing_to_divide_returns_the_dividend(ring4, monkeypatch):
    x, y, z, t = vars_of(ring4, "x", "y", "z", "t")
    f = x ** 2 + 3 * z * t - y
    gens = [x * y * z, t ** 2, z ** 2 - x]
    rem, cofactors = reduce(f, gens)
    assert rem is f and cofactors == [ring4.zero()] * 3
    zero, cofactors = reduce(ring4.zero(), gens)
    assert zero.is_zero() and cofactors == [ring4.zero()] * 3
    # a divisible term anywhere, by any generator, is divided
    for f, gens, want in [(x ** 2 + y, [y], x ** 2),
                          (x ** 3 + z * t + y, [t ** 2, y * z, y], x ** 3 + z * t),
                          (x ** 2 + z, [y, z - t], x ** 2 + t)]:
        rem, cofactors = reduce(f, gens)
        assert rem == want and any(cofactors)
    # that call still checks the division identity
    real = poly._sum
    monkeypatch.setattr(poly, "_sum", lambda parts: real(parts + parts))
    with pytest.raises(PostconditionError, match="^division identity violated$"):
        reduce(x ** 2 + 3 * z * t - y, [x * y * z])


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


def test_random_tables_stay_consistent():
    rng = random.Random(106)
    for _ in range(30):
        T = random_table(rng)
        f = random_poly(rng, T)
        g = random_poly(rng, T)
        assert f + g == g + f
        assert (f - g) + g == f


# -- packed monomial keys against the tuple order -----------------------------------

# four variables, two of them Laurent, so that total degrees can be negative
TK = VarTable(["x", "y", "z", "t"], laurent=["y", "t"])
_near_edges = st.one_of(st.integers(0, 3), st.integers(EXPONENT_LIMIT - 3, EXPONENT_LIMIT),
                        st.integers(0, EXPONENT_LIMIT))
_laurent_near_edges = st.one_of(_near_edges, _near_edges.map(lambda e: -e))
key_exps = st.tuples(_near_edges, _laurent_near_edges, _near_edges, _laurent_near_edges)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(key_exps, key_exps)
def test_packed_keys_order_monomials_as_grevlex_tuples(e1, e2):
    k1, k2 = TK.grevlex(e1), TK.grevlex(e2)
    assert TK._exps(k1) == e1 and TK._exps(k2) == e2
    assert (k1 < k2) == (grevlex_key(e1) < grevlex_key(e2))
    assert (k1 == k2) == (e1 == e2)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.dictionaries(key_exps, st.integers(1, 5).map(Eisenstein), min_size=1, max_size=6))
def test_leading_monomials_and_rendering_follow_grevlex_tuples(terms):
    p = Polynomial(TK, terms)
    descending = sorted(terms, key=grevlex_key, reverse=True)
    assert p.leading_monomial() == descending[0]
    assert render(p) == " + ".join(render(TK.monomial(e) * terms[e]) for e in descending)


# -- splitting off the multiples of a monomial ---------------------------------

divisors = st.tuples(*[st.one_of(st.just(0), _near_edges)] * 4)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.dictionaries(key_exps, st.builds(Eisenstein, fracs, fracs), max_size=5), divisors,
       st.lists(st.tuples(*[st.integers(-3, 3)] * 4), max_size=3))
def test_monomial_divmod_splits_off_the_multiples_of_a_monomial(terms, m, shifts):
    # the shifted terms are multiples of m by construction, up to the limit;
    # a Laurent variable (y, t) that m leaves out may carry a negative exponent
    multiples = [tuple(min(a + abs(s), EXPONENT_LIMIT) if a or not lau else s
                       for a, s, lau in zip(m, shift, TK.laurent)) for shift in shifts]
    p = Polynomial(TK, {**terms, **{e: Eisenstein(2, 1) for e in multiples}})
    q, r = p.monomial_divmod(m)
    assert_lowest_terms(q)
    assert_lowest_terms(r)

    def divides(exps):  # only the variables of m are tested
        return all(e >= a for e, a in zip(exps, m) if a)

    shifted = {tuple(e + a for e, a in zip(exps, m)): c for exps, c in q.items()}
    rest = dict(r.items())
    assert not shifted.keys() & rest.keys()
    assert {**shifted, **rest} == dict(p.items())  # p == m*q + r, term by term
    assert all(map(divides, shifted)) and not any(map(divides, rest))
    assert set(multiples) <= shifted.keys()
    if max(m) + max((abs(e) for exps, _ in p.items() for e in exps), default=0) <= EXPONENT_LIMIT:
        assert TK.monomial(m) * q + r == p


def test_monomial_divmod_rejects_bad_exponents(cylinder_ring):
    p = cylinder_ring.var("x") * cylinder_ring.var("t") ** -1
    for exps in [(0, 0, 0, -1, 0), (-1, 0, 0, 0, 0), (EXPONENT_LIMIT + 1, 0, 0, 0, 0), (1, 0)]:
        with pytest.raises(KrError, match=f"takes 5 exponents in 0..{EXPONENT_LIMIT}"):
            p.monomial_divmod(exps)


# -- substitution against a dict-of-exponent-tuples reference ------------------

SUB = VarTable(["x", "y", "s", "t"], laurent=["s", "t"])
_SUB_UNITS = [tuple(int(i == j) for j in range(SUB.arity)) for i in range(SUB.arity)]
_sub_coeffs = st.builds(Eisenstein, canon_fracs, canon_fracs)
# small exponents, and one in ten of them one whose small multiples straddle the limit
_big = [EXPONENT_LIMIT // k + d for k in (2, 3) for d in (-1, 0, 1)] + [EXPONENT_LIMIT]
_image_exps = st.sampled_from([0, 1, 2] * 21 + _big)
_signed_exps = st.one_of(_image_exps, _image_exps.map(lambda e: -e))
_moved_images = st.one_of(
    _sub_coeffs.map(lambda c: {(0, 0, 0, 0): c}),  # a constant, zero included
    st.dictionaries(st.tuples(_image_exps, _image_exps, _signed_exps, _signed_exps),
                    _sub_coeffs, min_size=2, max_size=3),  # multi-term (or fewer, after zeros)
    st.builds(lambda a, b, c: {(0, 0, a, b): c},
              _signed_exps, _signed_exps, _sub_coeffs.filter(bool)),  # a unit monomial
)
# half of the variables are unassigned or written out as v -> v
_sub_images = st.booleans().flatmap(
    lambda fixed: st.sampled_from([None, "self"]) if fixed else _moved_images)
# half of them carry no negative exponent, so that s and t can stay fixed, and
# one in eight is a bare variable, whose image substitute gives as it is
_sub_polys = st.sampled_from([0, -2] * 4 + [None]).flatmap(lambda low: st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(low, 2), st.integers(low, 2)),
    _sub_coeffs.filter(bool), min_size=1, max_size=8) if low is not None else
    st.sampled_from(_SUB_UNITS).map(lambda unit: {unit: Eisenstein(1)}))


def _ref_product(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Eisenstein(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_substitute(f: dict, images: list[dict]) -> dict:
    """f with variable i replaced by images[i], term by term: each term's image
    is the product of the images' powers, and the images are summed.  Raises
    as the kernel does: ExponentOverflowError when some term's sum of |e_i|
    times image i's largest absolute exponent passes the limit, else
    NonUnitError when a negative power falls on an image that is not one
    term of Laurent variables."""
    reach = [max((abs(e) for exps in im for e in exps), default=0) for im in images]
    if max((sum(abs(e) * r for e, r in zip(exps, reach)) for exps in f), default=0) \
            > EXPONENT_LIMIT:
        raise ExponentOverflowError
    out = {}
    for exps, c in f.items():
        term = {(0,) * SUB.arity: c}
        for e, im in zip(exps, images):
            if e < 0:
                if len(im) != 1 or any(k and not lau for m in im for k, lau in zip(m, SUB.laurent)):
                    raise NonUnitError
                (m, a), = im.items()
                im = {tuple(-k for k in m): a.inverse()}
            for _ in range(abs(e)):
                term = _ref_product(term, im)
        for m, a in term.items():
            out[m] = out.get(m, Eisenstein(0)) + a
    return {e: c for e, c in out.items() if c}


def test_substitute_matches_a_reference_on_exponent_tuples():
    shared = []  # per example: some moved-exponent vector is shared by two terms
    bare = []  # per example: f is a bare variable

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(_sub_polys, st.tuples(*[_sub_images] * SUB.arity))
    def check(f, drawn):
        images = [{u: Eisenstein(1)} if im in (None, "self") else {e: c for e, c in im.items() if c}
                  for im, u in zip(drawn, _SUB_UNITS)]
        given_images = {v: SUB.var(v) if im == "self" else Polynomial(SUB, im)
                        for v, im in zip(SUB.names, drawn) if im is not None}
        # a variable moves unless it maps to itself and carries no negative exponent
        moved = [i for i, im in enumerate(drawn) if im not in (None, "self")
                 or any(exps[i] < 0 for exps in f)]
        vectors = [tuple(exps[i] for i in moved) for exps in f]
        shared.append(any(vectors.count(v) > 1 for v in vectors if any(v)))
        bare.append(list(f.items()) in [[(unit, 1)] for unit in _SUB_UNITS])
        try:
            want = Polynomial(SUB, _ref_substitute(f, images))
        except (ExponentOverflowError, NonUnitError) as exc:
            with pytest.raises(type(exc)):
                Polynomial(SUB, f).substitute(given_images)
            return
        got = Polynomial(SUB, f).substitute(given_images)
        assert_lowest_terms(got)
        assert got == want

    check()
    assert sum(shared) >= len(shared) // 10, (sum(shared), len(shared))
    assert sum(bare) >= len(bare) // 20, (sum(bare), len(bare))


# -- each fused operation against its chained formula --------------------------

FUSED = VarTable(["x", "y", "z", "t"], laurent=["t"])
_fused_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)),
    st.builds(Eisenstein, canon_fracs, canon_fracs), max_size=4,
).map(lambda terms: Polynomial(FUSED, terms))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_fused_polys, _fused_polys)
def test_spoly_is_the_difference_of_the_shifted_polynomials(f, g):
    if not (f and g):
        return
    f, g = f.monic(), g.monic()
    fm, gm = f.leading_monomial(), g.leading_monomial()
    lcm = tuple(map(max, fm, gm))
    want = (FUSED.monomial([a - b for a, b in zip(lcm, fm)]) * f
            - FUSED.monomial([a - b for a, b in zip(lcm, gm)]) * g)
    got = _spoly(f, g)
    assert (got.den, got.terms, got._reach) == (want.den, want.terms, want._reach)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_fused_polys, st.lists(st.tuples(_fused_polys, _fused_polys, st.sampled_from([1, -1])),
                              max_size=4))
def test_linear_combination_is_the_chained_sum_of_products(start, triples):
    want = start
    for p, q, sign in triples:
        want = want + p * q if sign == 1 else want - p * q
    got = linear_combination(start, triples)
    assert_lowest_terms(got)
    assert (got.den, got.terms, got._reach) == (want.den, want.terms, want._reach)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_fused_polys, _fused_polys, _fused_polys, _fused_polys)
def test_derivation_apply_is_the_chained_leibniz_sum(f, a, b, c):
    x, z = vars_of(FUSED, "x", "z")

    def leibniz(d):
        acc = FUSED.zero()
        for v, im in d.images.items():
            acc = acc + im * f.diff(v)
        return acc

    free = Derivation(FUSED, {"x": a, "z": b, "t": c})
    assert free.apply(f) == leibniz(free)
    # a times y -> 2z, z -> -x^2 kills the cubic, so it descends to the quotient
    rel = QuotientRelation(cubic_poly(FUSED))
    descends = Derivation(FUSED, {"y": 2 * a * z, "z": -a * x ** 2}, rel)
    assert descends.apply(f) == normal_form(leibniz(descends), rel)
