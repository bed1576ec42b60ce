"""The polynomial product kernel: pinned to the term-by-term double loop, and
multiply and substitute cross-checked against sympy over Q(sqrt(-3)) = Q(w)."""

import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from krcubic import coeff, poly
from krcubic.coeff import OMEGA, ONE, Eisenstein
from krcubic.errors import ExponentOverflowError
from krcubic.poly import EXPONENT_LIMIT, Polynomial, VarTable

from conftest import assert_lowest_terms
from test_groebner import _sympy_converter


def _double_loop(t1, t2):
    """The product as Polynomial.__mul__ computed it term by term before
    _product: one Eisenstein product and one sum per pair of terms, from the
    coefficients as the public constructor takes them."""
    acc = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(map(add, e1, e2))
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
    return acc


# Few monomials and small values, so that sums often cancel; the second
# exponent may be negative, as on a Laurent variable.
exps = st.tuples(st.integers(0, 2), st.integers(-2, 2))
fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
rational = st.builds(Eisenstein, fracs).filter(bool)
eisenstein = st.builds(Eisenstein, fracs, fracs).filter(bool)
term_dicts = st.one_of(st.dictionaries(exps, rational, max_size=6),
                       st.dictionaries(exps, eisenstein, max_size=6),
                       st.dictionaries(exps, st.one_of(rational, eisenstein), max_size=6))


# the second variable is Laurent, so that its exponent may be negative
TL = VarTable(["x", "y"], laurent=["y"])


def _times(t1, t2):
    """The coefficients of the product of the polynomials of two term dicts."""
    got = Polynomial(TL, t1) * Polynomial(TL, t2)
    assert_lowest_terms(got)
    return dict(got.items())


@settings(max_examples=500, derandomize=True, deadline=None)
@given(term_dicts, term_dicts)
def test_product_matches_the_double_loop(t1, t2):
    # Eisenstein equality compares the stored triples, so this is term for term
    assert _times(t1, t2) == _double_loop(t1, t2)


# Small operands of up to 12 terms and large ones of at least 24, over a
# table with a Laurent y and a parameter c, with rational, Q(w) and mixed
# coefficients: products from a few pairs of terms to about a thousand, all
# summed on packed int keys.
TLC = VarTable(["x", "y", "c"], laurent=["y"], params=["c"])
wide_exps = st.tuples(st.integers(0, 3), st.integers(-3, 3), st.integers(0, 2))


def _wide(coefficients, min_size, max_size):
    return st.dictionaries(wide_exps, coefficients, min_size=min_size, max_size=max_size)


mixed = st.one_of(rational, eisenstein)
small_dicts = st.one_of(*[_wide(c, 2, 12) for c in (rational, eisenstein, mixed)])
large_dicts = st.one_of(*[_wide(c, 24, 32) for c in (rational, eisenstein, mixed)])


@st.composite
def _cancelling(draw):
    # (a + b)(a - b): every cross term a*b cancels; a has at least 24 terms
    a = Polynomial(TLC, draw(_wide(draw(st.sampled_from([rational, eisenstein])), 24, 28)))
    b = Polynomial(TLC, draw(_wide(rational, 12, 20)))
    return dict((a + b).items()), dict((a - b).items())


def _fixed_operands():
    """Rational and Q(w) operands with Laurent exponents and a parameter, of
    3 to 35 terms: products of 57 to 665 pairs of terms."""
    x, y, c = TLC.var("x"), TLC.var("y"), TLC.var("c")
    f = ((1 + x + y ** -1) * (Fraction(2, 3) + c)) ** 2 + x * y ** 3  # 19 terms
    f_w = ((1 + x + y ** -1) * (OMEGA + c)) ** 2 + x * y ** 3  # 19 terms, with w parts
    g = (x + y ** -2 + c + 1) ** 4  # 35 terms
    small = x + y ** -1 + Fraction(1, 2)
    return [(dict(p.items()), dict(q.items())) for p, q in ((f, small), (f_w, g), (f, g))]


FIXED = _fixed_operands()


# No shrinking: shrinking operands of 24-32 terms through _double_loop takes
# minutes before a failure is reported.  The other phases, and so the 60
# examples drawn, are the defaults.
@settings(max_examples=60, derandomize=True, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(st.one_of(st.tuples(small_dicts, small_dicts), st.tuples(small_dicts, large_dicts),
                 st.tuples(large_dicts, large_dicts),
                 st.tuples(_wide(rational, 24, 32), _wide(rational, 24, 32)), _cancelling()))
@example(FIXED[0])
@example(FIXED[1])
@example(FIXED[2])
def test_small_and_large_products_match_the_double_loop(operands):
    t1, t2 = operands
    got = Polynomial(TLC, t1) * Polynomial(TLC, t2)
    assert_lowest_terms(got)
    assert dict(got.items()) == _double_loop(t1, t2)


def test_product_edge_operands():
    x = {(1, 0): Eisenstein(1)}
    f = {(1, 0): Eisenstein(Fraction(1, 2)), (0, -1): OMEGA}
    assert _times({}, f) == _times(f, {}) == {}
    assert _times(x, f) == _times(f, x) == _double_loop(x, f)
    # a one-term factor that is not one scales, by a rational and by w
    half, w = {(0, 0): Eisenstein(Fraction(1, 2))}, {(0, 1): OMEGA}
    assert _times(half, f) == _double_loop(half, f)
    assert _times(f, w) == _double_loop(f, w)
    # the conjugate pair (x - w)(x - w^2) = x^2 + x + 1 cancels its w terms
    g = {(1, 0): Eisenstein(1), (0, 0): -OMEGA}
    h = {(1, 0): Eisenstein(1), (0, 0): OMEGA + 1}
    assert _times(g, h) == {(2, 0): Eisenstein(1), (1, 0): Eisenstein(1),
                            (0, 0): Eisenstein(1)}
    # (2x + 2)/3 * (3/2)x: the parts share the factor 3 with the denominator
    assert _times({(1, 0): Eisenstein(Fraction(2, 3)), (0, 0): Eisenstein(Fraction(2, 3))},
                  {(1, 0): Eisenstein(Fraction(3, 2))}) == {(2, 0): Eisenstein(1),
                                                            (1, 0): Eisenstein(1)}


def test_product_builds_no_coefficient(monkeypatch):
    # multiplying two multi-term polynomials over Q(w) works on the int
    # pairs: at most one coefficient is built, here by the final equality
    built = []

    def counting(a, b, d):
        built.append((a, b, d))
        return real(a, b, d)

    real = coeff._make
    f = Polynomial(TL, {(1, 0): Eisenstein(Fraction(1, 2), 3), (0, -1): OMEGA,
                        (0, 0): Eisenstein(Fraction(-2, 3))})
    g = Polynomial(TL, {(2, 0): Eisenstein(5, Fraction(1, 4)), (1, 1): Eisenstein(Fraction(3, 7)),
                        (0, 0): OMEGA + 1})
    expected = Polynomial(TL, _double_loop(dict(f.items()), dict(g.items())))
    monkeypatch.setattr(coeff, "_make", counting)
    monkeypatch.setattr(poly, "_make", counting)
    got = f * g
    assert len(built) <= 1
    assert got == expected


# -- exponents at the edges of a key field ---------------------------------------

# x is plain and y Laurent; exponents sit near 0 and near both limits
TE = VarTable(["x", "y"], laurent=["y"])
_low = st.integers(0, 2)
_high = st.integers(EXPONENT_LIMIT - 2, EXPONENT_LIMIT)
edge_exps = st.tuples(st.one_of(_low, _high),
                      st.one_of(_low, _high, _low.map(lambda e: -e), _high.map(lambda e: -e)))
edge_terms = st.dictionaries(edge_exps, st.one_of(rational, eisenstein), min_size=1, max_size=3)
# images of x and y for substitute: monomials with coefficient +-1, y's a unit
image_x = st.tuples(st.integers(0, 1), st.integers(-1, 1), st.sampled_from([1, -1]))
image_y = st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1]))


def _reach(terms):
    return max((abs(e) for exps in terms for e in exps), default=0)


def _reference(op, t1, t2, k, ix, iy):
    """The result of op as a dict of exponent tuples, and the bound on its
    exponents that the kernel checks: each operand's largest |exponent|,
    added as the operation adds exponents."""
    if op == "product":
        return _double_loop(t1, t2), _reach(t1) + _reach(t2)
    if op == "shift":
        m = {max(t2): ONE}
        return _double_loop(t1, m), _reach(t1) + _reach(m)
    if op == "power":
        want = t1
        for _ in range(k - 1):
            want = _double_loop(want, t1)
        return want, k * _reach(t1)
    if op == "antiderivative":
        return {(a, b + 1): c * Eisenstein(Fraction(1, b + 1)) for (a, b), c in t1.items()}, \
            max(_reach(t1), max(b for _, b in t1) + 1)
    # substitute x -> sx * x^a * y^b, y -> sy * y^j
    (a, b, sx), (j, sy) = ix, iy
    want = {}
    for (ex, ey), c in t1.items():
        e = (a * ex, b * ex + j * ey)
        s = want.get(e, 0) + c * sx ** ex * sy ** (ey % 2)
        if s:
            want[e] = s
        else:
            want.pop(e, None)
    return want, max(ex * max(a, abs(b)) + abs(ey) for ex, ey in t1)


def _run(op, p, q, k, ix, iy):
    x, y = TE.var("x"), TE.var("y")
    if op == "product":
        return p * q
    if op == "shift":
        return p * TE.monomial(max(dict(q.items())))
    if op == "power":
        return p ** k
    if op == "antiderivative":
        return p.antiderivative("y")
    (a, b, sx), (j, sy) = ix, iy
    return p.substitute({"x": sx * x ** a * y ** b, "y": sy * y ** j})


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(["product", "shift", "power", "antiderivative", "substitute"]),
       edge_terms, edge_terms, st.integers(2, 3), image_x, image_y)
def test_exponents_at_the_limit_give_the_exact_result_or_the_overflow_error(
        op, t1, t2, k, ix, iy):
    # never a carry: a result past the limit raises, and one the kernel
    # returns is exact; the error comes only when the bound passes the limit
    assume(op != "antiderivative" or all(b != -1 for _, b in t1))
    want, bound = _reference(op, t1, t2, k, ix, iy)
    p, q = Polynomial(TE, t1), Polynomial(TE, t2)
    try:
        got = _run(op, p, q, k, ix, iy)
    except ExponentOverflowError:
        assert bound > EXPONENT_LIMIT
        return
    assert _reach(want) <= bound <= EXPONENT_LIMIT
    assert_lowest_terms(got)
    assert dict(got.items()) == want


def test_each_operation_reaches_both_edges_of_a_field():
    x, y = TE.var("x"), TE.var("y")
    top, bottom = x ** EXPONENT_LIMIT, y ** -EXPONENT_LIMIT
    assert (x ** (EXPONENT_LIMIT - 1) * x).items() == [((EXPONENT_LIMIT, 0), ONE)]
    assert (y ** (1 - EXPONENT_LIMIT) * y ** -1).items() == [((0, -EXPONENT_LIMIT), ONE)]
    assert top.substitute({"x": y ** -1}) == bottom
    assert bottom.antiderivative("y") == y ** (1 - EXPONENT_LIMIT) * Fraction(1, 1 - EXPONENT_LIMIT)
    for past in (lambda: top * x, lambda: bottom * y ** -1, lambda: x ** (EXPONENT_LIMIT + 1),
                 lambda: (x * y) ** (EXPONENT_LIMIT // 2 + 1), lambda: top.antiderivative("x"),
                 lambda: bottom.diff("y"), lambda: top.substitute({"x": x * y ** -1 * y ** 2}),
                 lambda: TE.monomial((EXPONENT_LIMIT + 1, 0)),
                 lambda: Polynomial(TE, {(0, -EXPONENT_LIMIT - 1): ONE})):
        with pytest.raises(ExponentOverflowError, match=f"exceeds the limit {EXPONENT_LIMIT}"):
            past()
    # no key holds an exponent past the limit, so no coefficient is read there
    assert top.coeff((EXPONENT_LIMIT + 1, 0)) == 0 and top.coeff((EXPONENT_LIMIT, 0)) == 1


# -- differential check against sympy ------------------------------------------------

T = VarTable(["x", "z", "t"])
# a target ring with a parameter c0 (weight 0), as after subst_param
TP = VarTable(["x", "z", "t", "c0"], params=["c0"])


def _coeff(rng, omega: bool, dens: tuple[int, ...]) -> Eisenstein:
    while True:
        re = Fraction(rng.randint(-5, 5), rng.choice(dens))
        om = Fraction(rng.randint(-5, 5), rng.choice(dens)) if omega else 0
        if re or om:
            return Eisenstein(re, om)


def _poly(rng, table, terms: int, omega: bool = True,
          dens: tuple[int, ...] = (1, 2, 3), deg: int = 2) -> Polynomial:
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in table.names)
        out[e] = _coeff(rng, omega, dens)
    return Polynomial(table, out)


def _factors(case, rng):
    if case == "rational":
        return _poly(rng, T, 5, omega=False), _poly(rng, T, 4, omega=False)
    if case == "eisenstein":
        return _poly(rng, T, 5), _poly(rng, T, 4)
    if case == "mixed_denominators":
        return (_poly(rng, T, 5, dens=(4, 6, 9, 35)),
                _poly(rng, T, 4, omega=False, dens=(5, 7, 8)))
    if case == "one_term":
        return _poly(rng, T, 1), _poly(rng, T, 5)
    if case == "cancelling":
        # (a + b)(a - b): the cross terms cancel
        a, b = _poly(rng, T, 3), _poly(rng, T, 3)
        return a + b, a - b
    raise AssertionError(case)


@pytest.mark.parametrize("case", ["rational", "eisenstein", "mixed_denominators",
                                  "one_term", "cancelling"])
def test_products_agree_with_sympy(case):
    sympy = pytest.importorskip("sympy")
    _, _, conv = _sympy_converter(sympy, T.names)
    rng = random.Random(f"product-{case}")
    for _ in range(20):
        f, g = _factors(case, rng)
        assert conv(f * g) == conv(f) * conv(g)
        assert conv(g * f) == conv(f) * conv(g)


def _sympy_substitute(conv, f: Polynomial, images: dict, target: VarTable):
    """The substitution computed with sympy's products and powers."""
    total = conv(target.zero())
    for exps, c in f.items():
        term = conv(target.constant(c))
        for name, e in zip(f.table.names, exps):
            image = images[name] if name in images else target.var(name)
            term = term * conv(image) ** e
        total = total + term
    return total


@pytest.mark.parametrize("target", [T, TP], ids=["same_ring", "with_parameter"])
def test_substitutions_agree_with_sympy(target):
    sympy = pytest.importorskip("sympy")
    _, _, conv = _sympy_converter(sympy, target.names)
    rng = random.Random(510 + len(target.names))
    for i in range(15):
        # substitute takes images over f's own table, so f moves to it first
        f = _poly(rng, T, 4, omega=i % 2 == 0, deg=3).transport(target)
        images = {"x": _poly(rng, target, 3, omega=i % 3 == 0),
                  "z": _poly(rng, target, 1, dens=(2, 5)) + target.var("z")}
        if i % 4 == 0:
            images["t"] = _poly(rng, target, 2, omega=False)
        assert conv(f.substitute(images)) == _sympy_substitute(conv, f, images, target)


def test_substitutions_that_cancel_to_zero_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    _, _, conv = _sympy_converter(sympy, TP.names)
    rng = random.Random(520)
    x = TP.var("x")
    for _ in range(10):
        # (x - g) * h vanishes under x -> g, for g free of x
        g = _poly(rng, TP, 3, deg=1).substitute({"x": 0})
        f = (x - g) * _poly(rng, TP, 3)
        assert f.substitute({"x": g}).is_zero()
        assert _sympy_substitute(conv, f, {"x": g}, TP).is_zero
