"""Exact arithmetic in the Eisenstein rationals Q(w), w a primitive cube root of unity.

The one scalar form of the package is the triple of Python ints (a, b, d),
meaning (a + b*w)/d, with gcd(a, b, d) = 1 and d > 0; products use the
defining relation w^2 = -1 - w.  That form is unique, so structural equality
is mathematical equality.  This module is the one home of the triple's
formulas: _triple (the canonical form), _times (the product), _inverse (the
conjugate over the norm) and _scaled (the text of a multiple of a unit).
Every other site calls them.  Only the hot loops of poly.py, _add_into,
_product and the division step in reduce, write the product formula (and
reduce's step the canonical form) inline, because there a function call per
pair of terms would cost more than the arithmetic.

An Eisenstein is an immutable Record over one triple, built by one private
constructor, _make, which takes any triple to its canonical form.  It is the
scalar at the kernel's edges: a polynomial (poly.py) keeps its coefficients
as int pairs over one denominator and builds an Eisenstein only when one is
read out.  Fraction appears only at the outer edge, and this
module never imports it at start-up: Eisenstein(re, om) takes ints and
Fractions, the parts read back as the Fractions re and om (imported when
first read), and a value hashes as its Fraction or Fraction pair would.
"""

from __future__ import annotations

import sys
from math import gcd

from .errors import Record

_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _ratio(x) -> tuple[int, int] | None:
    """The numerator and denominator of an int or a Fraction, else None."""
    if isinstance(x, int):
        return int(x), 1
    # a Fraction exists only once its caller has imported fractions
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(x, fractions.Fraction):
        return x.numerator, x.denominator
    return None


def _fraction_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for d > 0, by Fraction.__hash__'s rule: |n| times
    the inverse of d modulo the hash modulus, or the hash of infinity when d
    has no inverse, signed as n."""
    if d == 1:
        return hash(n)
    g = gcd(n, d)
    n, d = n // g, d // g
    try:
        h = hash(hash(abs(n)) * pow(d, -1, _MODULUS))
    except ValueError:
        h = _HASH_INF
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def _triple(a: int, b: int, d: int) -> tuple[int, int, int]:
    """(a + b*w)/d, d > 0, as the triple in lowest terms."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return a // g, b // g, d // g
    return a, b, d


def _times(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    """The product of two triples (a, b, d), in lowest terms:
    (a + b*w)(c + e*w) = ac - be + (ae + bc - be)*w, since w^2 = -1 - w."""
    a, b, d = x
    c, e, f = y
    be = b * e
    return _triple(a * c - be, a * e + b * c - be, d * f)


def _inverse(a: int, b: int, d: int) -> tuple[int, int, int]:
    """The inverse of (a + b*w)/d in lowest terms: the conjugate
    d*(a - b - b*w) over the norm a^2 - ab + b^2."""
    norm = a * a - a * b + b * b  # positive definite, so 0 only at a = b = 0
    if norm == 0:
        raise ZeroDivisionError("inverse of zero in Q(w)")
    return _triple(d * (a - b), -d * b, norm)


class Eisenstein(Record):
    """An element (a + b*w)/d of Q(w), exact and immutable.

    The value lives in the private slots; re and om are read-only.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, om=0):
        r, o = _ratio(re), _ratio(om)
        if r is None or o is None:
            raise TypeError(f"not a rational value: {(re if r is None else om)!r}")
        (ra, rd), (oa, od) = r, o
        super().__init__(*_triple(ra * od, oa * rd, rd * od))

    @property
    def re(self) -> "Fraction":
        from fractions import Fraction
        return Fraction(self._a, self._d)

    @property
    def om(self) -> "Fraction":
        from fractions import Fraction
        return Fraction(self._b, self._d)

    @staticmethod
    def of(value) -> "Eisenstein":
        """Coerce an int, Fraction or Eisenstein into the field."""
        c = _try(value)
        if c is None:
            raise TypeError(f"not a rational value: {value!r}")
        return c

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _try(other)
        if other is None:
            return NotImplemented
        d1, d2 = self._d, other._d
        return _make(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _try(other)
        if other is None:
            return NotImplemented
        d1, d2 = self._d, other._d
        return _make(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        other = _try(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        other = _try(other)
        if other is None:
            return NotImplemented
        return _make(*_times((self._a, self._b, self._d), (other._a, other._b, other._d)))

    __rmul__ = __mul__

    def inverse(self) -> "Eisenstein":
        """Multiplicative inverse via the conjugate a - b - b*w and norm a^2 - ab + b^2."""
        return _make(*_inverse(self._a, self._b, self._d))

    def __truediv__(self, other):
        return self * Eisenstein.of(other).inverse()

    def __rtruediv__(self, other):
        return Eisenstein.of(other) * self.inverse()

    # -- equality and display -----------------------------------------------

    def __eq__(self, other):
        other = _try(other)
        if other is None:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # The hash of the Fraction pair: a rational hashes like its Fraction,
        # and sets and dicts of coefficients keep their iteration order.
        re = _fraction_hash(self._a, self._d)
        if self._b == 0:
            return re
        return hash((re, _fraction_hash(self._b, self._d)))

    def __repr__(self):
        return f"Eisenstein({self.re!r}, {self.om!r})"

    def __str__(self):
        return render_coeff(self._a, self._b, self._d)


_new = object.__new__
_set_a, _set_b, _set_d = Eisenstein._setters


def _make(a: int, b: int, d: int) -> Eisenstein:
    """The element (a + b*w)/d for ints with d > 0, in canonical form."""
    a, b, d = _triple(a, b, d)
    e = _new(Eisenstein)
    _set_a(e, a)
    _set_b(e, b)
    _set_d(e, d)
    return e


def _try(value) -> Eisenstein | None:
    if isinstance(value, Eisenstein):
        return value
    q = _ratio(value)
    return None if q is None else _make(q[0], 0, q[1])


ZERO = Eisenstein(0)
ONE = Eisenstein(1)
OMEGA = Eisenstein(0, 1)


def _int(n: int) -> str:
    """str(n), or '<k-digit integer>' for an n of more digits than the int/str
    limit (sys.get_int_max_str_digits) lets str() print."""
    limit, m = sys.get_int_max_str_digits(), abs(n)
    if not limit or m.bit_length() <= 3 * limit:  # at most 0.91 * limit digits
        return str(n)
    k = int(m.bit_length() * 0.30103) + 1  # m's digit count, or one more
    k -= 10 ** (k - 1) > m
    return str(n) if k <= limit else f"{'-' * (n < 0)}<{k}-digit integer>"


def _part(n: int, d: int) -> str:
    """n/d in lowest terms, printed as its Fraction prints: p, or p/q with q > 0."""
    g = gcd(n, d)
    return _int(n // g) if g == d else f"{_int(n // g)}/{_int(d // g)}"


def _scaled(k: int, d: int, unit: str) -> str:
    """k/d times the text unit, for k > 0: the unit alone when k/d is one,
    else 'p/q*unit'."""
    return unit if k == d else f"{_part(k, d)}*{unit}"


def render_coeff(a: int, b: int, d: int) -> str:
    """(a + b*w)/d for d > 0, in lowest terms or not, as '5', '-1/2', 'w', '2*w', '1 + w'."""
    if b == 0:
        return _part(a, d)
    mag = -b if b < 0 else b
    wpart = _scaled(mag, d, "w")
    if a == 0:
        return "-" + wpart if b < 0 else wpart
    return f"{_part(a, d)}{' - ' if b < 0 else ' + '}{wpart}"
