"""Field arithmetic in Q(w)."""

import operator
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from krcubic.coeff import Eisenstein, OMEGA, ONE, _inverse, _make, _times, render_coeff
from krcubic.poly import Polynomial, VarTable, render

from conftest import random_coeff


def test_omega_squares_to_defining_relation():
    assert OMEGA * OMEGA == Eisenstein(-1, -1)


def test_square_of_one_plus_omega():
    # (1 + w)^2 = 1 + 2w + w^2 = 1 + 2w - 1 - w = w
    assert (ONE + OMEGA) * (ONE + OMEGA) == OMEGA


def test_multiplication_by_one_is_identity():
    rng = random.Random(7)
    for _ in range(50):
        a = random_coeff(rng)
        assert a * ONE == a


def test_inverse_of_two():
    assert Eisenstein(2).inverse() == Eisenstein(Fraction(1, 2))


def test_inverse_of_omega_is_its_square():
    assert OMEGA.inverse() == Eisenstein(-1, -1)
    assert OMEGA * OMEGA.inverse() == ONE


def test_inverse_of_one_plus_omega():
    # (1 + w)(-w) = -w - w^2 = -w + 1 + w = 1
    assert (ONE + OMEGA).inverse() == -OMEGA


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Eisenstein(0).inverse()


def test_sixth_root_by_repeated_multiplication():
    zeta6 = Eisenstein(1, 1)  # 1 + w = -w^2, a primitive sixth root of unity
    acc = ONE
    seen = []
    for _ in range(6):
        acc = acc * zeta6
        seen.append(acc)
    assert seen[2] == Eisenstein(-1)   # zeta6^3 = -1
    assert seen[1] == OMEGA            # zeta6^2 = w
    assert seen[5] == ONE              # zeta6^6 = 1
    assert len(set(seen)) == 6         # full period
    assert zeta6.inverse() == seen[4]  # zeta6^-1 = zeta6^5


small_fracs = st.fractions(min_value=-10, max_value=10, max_denominator=12)
coeffs = st.builds(Eisenstein, small_fracs, small_fracs)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(coeffs, coeffs, coeffs)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, derandomize=True, deadline=None)
@given(coeffs, coeffs)
def test_addition_is_exactly_invertible(a, b):
    assert (a + b) - b == a


@settings(max_examples=200, derandomize=True, deadline=None)
@given(coeffs)
def test_nonzero_elements_invert(a):
    if a:
        assert a * a.inverse() == ONE


# nonzero triples in lowest terms, the canonical form, drawn without _triple
canonical = st.tuples(st.integers(-60, 60), st.integers(-60, 60), st.integers(1, 60)).filter(
    lambda t: (t[0] or t[1]) and gcd(*t) == 1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(canonical)
def test_triple_times_its_inverse_is_one(t):
    inv = _inverse(*t)
    assert inv[2] > 0 and gcd(*inv) == 1
    assert _times(t, inv) == (1, 0, 1)


def test_a_non_number_is_no_operand():
    # _try alone decides what is a number
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(Eisenstein(1), "x")
    assert (Eisenstein(1) == "x") is False


def test_division():
    a = Eisenstein(Fraction(3, 2), Fraction(-1, 3))
    assert a / a == ONE
    assert (a * a) / a == a
    assert 1 / a == a.inverse()
    assert a / 2 == a * Eisenstein(Fraction(1, 2))


def test_rendering_styles():
    assert str(Eisenstein(5)) == "5"
    assert str(Eisenstein(Fraction(-1, 2))) == "-1/2"
    assert str(OMEGA) == "w"
    assert str(-OMEGA) == "-w"
    assert str(Eisenstein(0, Fraction(3, 2))) == "3/2*w"
    assert str(ONE + OMEGA) == "1 + w"
    assert str(Eisenstein(1, -2)) == "1 - 2*w"


def test_hash_matches_rational_embedding():
    assert hash(Eisenstein(Fraction(2, 3))) == hash(Fraction(2, 3))
    assert Eisenstein(3) == 3
    assert Eisenstein(3) != OMEGA


# the hash modulus is prime: a denominator that it divides has no inverse
MODULUS = sys.hash_info.modulus


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.fractions(), st.fractions())
@example(Fraction(1, MODULUS), Fraction(-3, 2 * MODULUS))
@example(Fraction(-1), Fraction(MODULUS + 1, MODULUS))
@example(Fraction(-2 * MODULUS, 3), Fraction(1, MODULUS ** 2))
def test_hash_is_the_fraction_hash(r, s):
    # computed without Fraction, by its rule, so dict and set order is kept
    assert hash(Eisenstein.of(r)) == hash(r)
    if s:
        assert hash(Eisenstein(r, s)) == hash((r, s))


# -- the integer form against the Fraction-pair formulas it replaced ----------------

def _ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _ref_mul(x, y):
    (a, b), (c, d) = x, y
    bd = b * d
    return (a * c - bd, a * d + b * c - bd)


def _ref_inverse(x):
    a, b = x
    norm = a * a - a * b + b * b
    return ((a - b) / norm, -b / norm)


def _ref_hash(x):
    return hash(x[0]) if x[1] == 0 else hash(x)


def _parts(e):
    assert type(e.re) is Fraction and type(e.om) is Fraction
    assert e._d > 0 and gcd(e._a, e._b, e._d) == 1
    return (e.re, e.om)


# a small value set, so that equal pairs are drawn often
tiny_fracs = st.fractions(min_value=-2, max_value=2, max_denominator=3)
pairs = st.tuples(st.one_of(small_fracs, tiny_fracs), st.one_of(small_fracs, tiny_fracs))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(pairs, pairs)
def test_matches_fraction_pair_reference(x, y):
    ex, ey = Eisenstein(*x), Eisenstein(*y)
    assert _parts(ex) == x
    assert _parts(ex + ey) == _ref_add(x, y)
    assert _parts(ex - ey) == _ref_sub(x, y)
    assert _parts(ex * ey) == _ref_mul(x, y)
    if any(x):
        assert _parts(ex.inverse()) == _ref_inverse(x)
    assert (ex == ey) == (x == y)
    assert hash(ex) == _ref_hash(x)
    # the same value reached by another route has the same triple
    back = (ex + ey) - ey
    assert (back._a, back._b, back._d) == (ex._a, ex._b, ex._d)


def test_of_builds_what_the_fraction_constructor_builds():
    for n in (0, 1, -1, 7, -12, 10**30, True, False, Fraction(-4, 6), Fraction(5)):
        cheap, full = Eisenstein.of(n), Eisenstein(Fraction(n))
        assert cheap == full and hash(cheap) == hash(full)
        assert (cheap._a, cheap._b, cheap._d) == (full._a, full._b, full._d)
        assert all(type(part) is int for part in (cheap._a, cheap._b, cheap._d))
    assert str(Eisenstein.of(True)) == "1"  # never "True"
    assert Eisenstein.of(OMEGA) is OMEGA
    with pytest.raises(TypeError, match="not a rational value"):
        Eisenstein.of(0.5)


# -- rendering from the triple against the Fraction formatter it replaced ---------

def _ref_render_coeff(c):
    a, b = c.re, c.om
    if b == 0:
        return str(a)
    if a == 0:
        if b == 1:
            return "w"
        if b == -1:
            return "-w"
        return f"{b}*w"
    sign = " - " if b < 0 else " + "
    mag = -b if b < 0 else b
    wpart = "w" if mag == 1 else f"{mag}*w"
    return f"{a}{sign}{wpart}"


def _ref_render(p):
    if p.is_zero():
        return "0"
    pieces = []
    for exps, c in sorted(p.items(), key=lambda t: (sum(t[0]), *[-e for e in t[0][::-1]]),
                          reverse=True):
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(p.table.names, exps) if e)
        if not mono:
            if c.re:
                pieces.append((c.re < 0, str(abs(c.re))))
            if c.om:
                mag = abs(c.om)
                pieces.append((c.om < 0, "w" if mag == 1 else f"{mag}*w"))
            continue
        if c.om == 0:
            neg, mag = c.re < 0, abs(c.re)
            text = mono if mag == 1 else f"{mag}*{mono}"
        elif c.re == 0:
            neg, mag = c.om < 0, abs(c.om)
            text = f"w*{mono}" if mag == 1 else f"{mag}*w*{mono}"
        else:
            neg = c.re < 0
            text = f"({_ref_render_coeff(-c if neg else c)})*{mono}"
        pieces.append((neg, text))
    return "".join(("-" if neg else "") + text if i == 0 else (" - " if neg else " + ") + text
                   for i, (neg, text) in enumerate(pieces))


@st.composite
def triples(draw):
    """(a, b, d) with either part zero, a unit (+-d) or any numerator, which
    need not be coprime to d; _make divides out the common factor."""
    d = draw(st.integers(1, 12))
    part = st.one_of(st.sampled_from([0, d, -d]), st.integers(-40, 40))
    return draw(part), draw(part), d


@settings(max_examples=500, derandomize=True, deadline=None)
@given(triples())
def test_render_coeff_matches_fraction_reference(t):
    # render_coeff takes the triple as it comes, not in lowest terms
    c = _make(*t)
    assert render_coeff(*t) == str(c) == _ref_render_coeff(c)


RENDER_TABLE = VarTable(["x", "y"])
monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.dictionaries(monomials, triples(), max_size=5))
def test_render_matches_fraction_reference(terms):
    p = Polynomial(RENDER_TABLE, {e: _make(*t) for e, t in terms.items()})
    assert render(p) == _ref_render(p)
