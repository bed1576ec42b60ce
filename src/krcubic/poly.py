"""Sparse multivariate Laurent polynomials over Q(w).

A VarTable fixes an ordered set of variable names together with per-variable
Laurent flags (negative exponents allowed) and weights.  Weight 0 marks a
parameter: a symbolic constant that counts for degree 0 in the weighted
degree, by which geometry.tangent_cone takes the lowest homogeneous part.
A polynomial is immutable.  It stores one positive denominator `den` and a
dictionary `terms` from exponent tuples to nonzero int pairs (a, b), the
coefficient of that monomial being (a + b*w)/den.  It is kept in lowest
terms: gcd(den, every a, every b) = 1, and zero has den 1.  That form is
unique, so equality of (den, terms) is equality of polynomials.  Arithmetic
works on the ints, with at most one gcd per result; an Eisenstein (coeff.py)
is built only at the edges: items(), coeff(), the public constructor
Polynomial(table, {exps: coefficient}), a constant's hash and rendering.
`den` and `terms` belong to the kernel (this module and coeff.py): every
other module reads a polynomial only through len(p), p.items(), p.coeff(exps),
p.coefficient_in(name, k) and the other queries, and builds a monomial with
VarTable.monomial.

A product of two multi-term polynomials sums its term products on their
monomials.  It builds the exponent tuple of every pair, except for a product
of rational polynomials with at least _KRONECKER_PAIRS (512) pairs of terms,
which it sums on Kronecker keys: the int sum of e_i*m_i, with m_i the
product of the spans of the variables before i over the box of exponents the
product can reach.  That map is linear and one-to-one on the box, Laurent
exponents included, so a pair costs an int addition and a tuple is built
once per result monomial (see _product and _kronecker_product for the proof
and the measured crossover).

Multivariate division with remainder (reduce) and the Laurent-content split
(clear_laurent) live here too, the one division loop of the package; reduce
keeps a lowest-terms triple (a, b, d) per term while it runs.

The triple is the one scalar form, and its formulas live in coeff.py:
_triple, _times, _inverse and _scaled are imported from there, and
_from_triples, shared by Polynomial() and reduce, puts triples over their
common denominator.  Three hot loops write _times's formula inline on
purpose: _add_into, _product and the division step in reduce (which also
inlines the canonical form), since they run it once per pair of terms, where
a call would cost more than the arithmetic.

A monomial order is a key function: it maps an exponent tuple to a flat
tuple of ints, and a larger key is a larger monomial.  The canonical order,
used for printing and as the default for leading terms and division, is
graded reverse lexicographic over the table order (grevlex_key).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping
from math import gcd, lcm
from operator import add, le, mul, sub

from .coeff import (ONE, ZERO, Eisenstein, _inverse, _make, _part, _scaled, _times, _triple,
                    _try, render_coeff)
from .errors import (
    KrError,
    LaurentInputError,
    NegativeExponentError,
    NonUnitError,
    PostconditionError,
    Record,
    TableMismatchError,
)


def grevlex_key(exps: tuple[int, ...]):
    """Sort key, a flat tuple of ints: max() under it is the grevlex-largest monomial."""
    return (sum(exps), *[-e for e in exps[::-1]])


class VarTable(Record):
    """Ordered variable universe for one polynomial ring.

    _bases memoises Groebner bases of ideals over this table (see
    groebner._basis); like RingMap's image memo it is not part of the value.
    """

    __slots__ = ("names", "laurent", "weights", "_index", "_bases")

    def __init__(self, names: Iterable[str], laurent: Iterable[str] = (),
                 params: Iterable[str] = ()):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise KrError(f"duplicate variable names in {names}")
        laurent = set(laurent)
        params = set(params)
        for v in laurent | params:
            if v not in names:
                raise KrError(f"flagged variable {v!r} is not declared")
        super().__init__(names, tuple(v in laurent for v in names),
                         tuple(0 if v in params else 1 for v in names),
                         {v: i for i, v in enumerate(names)}, {})

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KrError(f"unknown variable {name!r}") from None

    def is_laurent(self, name: str) -> bool:
        return self.laurent[self.index(name)]

    def is_param(self, name: str) -> bool:
        return self.weights[self.index(name)] == 0

    def non_params(self) -> tuple[str, ...]:
        return tuple(v for v, w in zip(self.names, self.weights) if w != 0)

    def params(self) -> tuple[str, ...]:
        return tuple(v for v, w in zip(self.names, self.weights) if w == 0)

    def __eq__(self, other):
        if not isinstance(other, VarTable):
            return NotImplemented
        return (self.names == other.names and self.laurent == other.laurent
                and self.weights == other.weights)

    def __hash__(self):
        return hash((self.names, self.laurent, self.weights))

    def __repr__(self):
        flags = []
        lau = [v for v, f in zip(self.names, self.laurent) if f]
        if lau:
            flags.append("laurent " + ",".join(lau))
        if self.params():
            flags.append("param " + ",".join(self.params()))
        inner = ",".join(self.names) + ("; " + "; ".join(flags) if flags else "")
        return f"VarTable({inner})"

    # -- constructors over this table ---------------------------------------

    def zero(self) -> "Polynomial":
        return _polynomial(self, 1, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = Eisenstein.of(c)
        if not c:
            return self.zero()
        return _polynomial(self, c._d, {(0,) * self.arity: (c._a, c._b)})

    def var(self, name: str) -> "Polynomial":
        i = self.index(name)
        e = [0] * self.arity
        e[i] = 1
        return _polynomial(self, 1, {tuple(e): (1, 0)})

    def monomial(self, exps: Iterable[int]) -> "Polynomial":
        """The monomial of coefficient one with this exponent tuple; the
        arity and any negative exponent are checked as in Polynomial()."""
        return Polynomial(self, {tuple(exps): ONE})

    def coerce(self, value) -> "Polynomial":
        """value as a polynomial over this table: a scalar becomes a constant,
        and a polynomial over another table raises TableMismatchError.  This
        is the one table check; crossing tables takes an explicit transport."""
        if isinstance(value, Polynomial):
            if value.table is not self and value.table != self:
                raise TableMismatchError(f"tables differ: {self!r} vs {value.table!r}")
            return value
        c = _try(value)
        if c is None:
            raise TypeError(f"cannot combine polynomial with {value!r}")
        return self.constant(c)


def _check_exponents(table: VarTable, exps: tuple[int, ...]):
    for e, lau, name in zip(exps, table.laurent, table.names):
        if e < 0 and not lau:
            raise NegativeExponentError(
                f"negative exponent on non-Laurent variable {name!r}")


class Polynomial(Record):
    """Sparse polynomial: exponent tuple -> nonzero coefficient.

    The coefficient of exps is (a + b*w)/den for terms[exps] = (a, b), in
    lowest terms over the whole polynomial (see the module docstring).
    """

    __slots__ = ("table", "den", "terms", "_hash")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], Eisenstein]):
        clean = {}
        for exps, c in terms.items():
            c = Eisenstein.of(c)
            if not c:
                continue
            exps = tuple(exps)
            if len(exps) != table.arity:
                raise KrError("exponent tuple arity mismatch")
            _check_exponents(table, exps)
            clean[exps] = (c._a, c._b, c._d)
        super().__init__(table, *_from_triples(clean), None)

    # -- basic queries -------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        """The number of terms."""
        return len(self.terms)

    def items(self) -> list[tuple[tuple[int, ...], Eisenstein]]:
        """The (exponent tuple, coefficient) pairs of the terms."""
        d = self.den
        return [(e, _make(a, b, d)) for e, (a, b) in self.terms.items()]

    def coeff(self, exps: tuple[int, ...]) -> Eisenstein:
        """The coefficient of the monomial with exponent tuple exps; zero if absent."""
        pair = self.terms.get(tuple(exps))
        return ZERO if pair is None else _make(*pair, self.den)

    def coefficient_in(self, name: str, k: int) -> "Polynomial":
        """The coefficient of name^k, a polynomial free of name: p is the sum
        over k of p.coefficient_in(name, k) * name^k."""
        i = self.table.index(name)
        return _lowest(self.table, self.den, {exps[:i] + (0,) + exps[i + 1:]: c
                                              for exps, c in self.terms.items() if exps[i] == k})

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def degree_in(self, name: str) -> int:
        """The largest exponent of name; -1 for the zero polynomial."""
        i = self.table.index(name)
        return max((e[i] for e in self.terms), default=-1)

    def min_exponent(self, name: str) -> int:
        """The smallest exponent of name; 0 for the zero polynomial."""
        i = self.table.index(name)
        return min((e[i] for e in self.terms), default=0)

    def variables_used(self) -> tuple[str, ...]:
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return tuple(self.table.names[i] for i in sorted(used))

    def leading_monomial(self, key=grevlex_key) -> tuple[int, ...]:
        """The exponents of the largest monomial under key; no coefficient is built."""
        if not self.terms:
            raise KrError("zero polynomial has no leading term")
        return max(self.terms, key=key)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self.table.coerce(other)
        return _lowest(self.table, *_sum([(self.den, self.terms, (1, 0)),
                                          (other.den, other.terms, (1, 0))]))

    __radd__ = __add__

    def __sub__(self, other):
        other = self.table.coerce(other)
        return _lowest(self.table, *_sum([(self.den, self.terms, (1, 0)),
                                          (other.den, other.terms, (-1, 0))]))

    def __rsub__(self, other):
        return self.table.coerce(other) - self

    def __neg__(self):
        return _polynomial(self.table, self.den,
                           {e: (-a, -b) for e, (a, b) in self.terms.items()})

    def __mul__(self, other):
        other = self.table.coerce(other)
        return _lowest(self.table, self.den * other.den, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("polynomial exponent must be an integer")
        if k < 0:
            return self.unit_inverse() ** (-k)
        if k == 0:
            return self.table.one()
        acc = None
        base = self
        while True:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if not k:
                return acc
            base = base * base

    def is_unit_monomial(self) -> bool:
        """One term whose variables are all Laurent (so the monomial is invertible)."""
        if len(self.terms) != 1:
            return False
        exps = next(iter(self.terms))
        return all(e == 0 or lau for e, lau in zip(exps, self.table.laurent))

    def unit_inverse(self) -> "Polynomial":
        if not self.is_unit_monomial():
            if len(self.terms) == 1:
                _check_exponents(self.table, tuple(-e for e in next(iter(self.terms))))
            raise NonUnitError(f"not a unit monomial: {self}")
        (exps, c), = self.items()
        return Polynomial(self.table, {tuple(-e for e in exps): c.inverse()})

    def monic(self, key=grevlex_key) -> "Polynomial":
        if not self.terms:
            return self
        a, b = self.terms[max(self.terms, key=key)]
        if a == self.den and not b:
            return self
        # (T/den) / ((a + b*w)/den) = T times the inverse of a + b*w
        ca, cb, den = _inverse(a, b, 1)
        acc = {}
        _add_into(acc, self.terms, ca, cb)
        return _lowest(self.table, den, acc)

    # -- calculus ------------------------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative (Laurent exponents use the integer power rule)."""
        i = self.table.index(name)
        acc = {}
        for exps, (a, b) in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            ne = list(exps)
            ne[i] = e - 1
            acc[tuple(ne)] = (a * e, b * e)
        return _lowest(self.table, self.den, acc)

    def antiderivative(self, name: str) -> "Polynomial":
        """Term-wise antiderivative with constant 0; rejects exponent -1.

        Every term goes over den*L, with L the lcm of the (e + 1) of name:
        (a + b*w)/den * name^e becomes (a + b*w)*(L/(e + 1))/(den*L) * name^(e + 1).
        """
        i = self.table.index(name)
        if any(exps[i] == -1 for exps in self.terms):
            raise KrError(f"cannot antidifferentiate exponent -1 in {name}")
        scale = lcm(*[exps[i] + 1 for exps in self.terms])
        acc = {}
        for exps, (a, b) in self.terms.items():
            m = scale // (exps[i] + 1)
            acc[exps[:i] + (exps[i] + 1,) + exps[i + 1:]] = (a * m, b * m)
        return _lowest(self.table, self.den * scale, acc)

    # -- substitution and transport -----------------------------------------

    def substitute(self, images: Mapping[str, "Polynomial | int | Eisenstein"]) -> "Polynomial":
        """Simultaneous substitution; unassigned variables map to themselves.

        Each image goes through this polynomial's VarTable.coerce, as the
        operands of + and * do: a scalar (an int, Fraction or Eisenstein)
        becomes a constant, and an image over another table raises
        TableMismatchError.  The image of a variable occurring with a
        negative exponent must be a unit monomial.  This is a ring
        homomorphism: substitution of a product is the product of the
        substitutions.  Each term's image is the product of powers of the
        images (each power computed once per call, from the power below it;
        an unassigned variable's powers only shift exponents), and the images
        times their coefficients are summed over one common denominator.
        """
        table = self.table
        for v in images:
            table.index(v)
        base = [table.coerce(images[name]) if name in images else table.var(name)
                for name in table.names]

        # powers[i][k] is base[i]^(k + 1), inverses[i][k] its inverse; each
        # list grows by one product at a time
        powers = [[p] for p in base]
        inverses: list = [None] * len(base)

        def power(i: int, e: int) -> Polynomial:
            chain = powers[i] if e > 0 else inverses[i]
            if chain is None:
                if not base[i].is_unit_monomial():
                    raise NonUnitError(
                        f"image of {table.names[i]!r} must be a unit monomial "
                        f"to carry negative exponents")
                chain = inverses[i] = [base[i].unit_inverse()]
            while len(chain) < abs(e):
                chain.append(chain[-1] * chain[0])
            return chain[abs(e) - 1]

        one = {(0,) * table.arity: (1, 0)}
        den = self.den
        parts = []
        for exps, c in self.terms.items():
            prod, d = one, den
            for i, e in enumerate(exps):
                if e:
                    p = power(i, e)
                    prod = p.terms if prod is one else _product(prod, p.terms)
                    d *= p.den
            parts.append((d, prod, c))
        return _lowest(table, *_sum(parts))

    def transport(self, table: VarTable) -> "Polynomial":
        """Reinterpret over another table, matching variables by name."""
        if table == self.table:
            return self
        pos = []
        for i, name in enumerate(self.table.names):
            if name in table._index:
                pos.append(table.index(name))
            else:
                pos.append(None)
        acc = {}
        for exps, c in self.terms.items():
            ne = [0] * table.arity
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if pos[i] is None:
                    raise KrError(
                        f"variable {self.table.names[i]!r} does not exist in target table")
                ne[pos[i]] = e
            ne = tuple(ne)
            _check_exponents(table, ne)
            acc[ne] = c
        return _polynomial(table, self.den, acc)

    # -- grading -------------------------------------------------------------

    def weighted_degree_of_term(self, exps: tuple[int, ...],
                                weights: tuple[int, ...] | None = None) -> int:
        w = self.table.weights if weights is None else weights
        return sum(e * wi for e, wi in zip(exps, w))

    def is_weighted_homogeneous(self, weights: Mapping[str, int], degree: int) -> bool:
        """True iff every term has the given weighted degree (unlisted vars weigh 0)."""
        w = tuple(weights.get(v, 0) for v in self.table.names)
        return all(self.weighted_degree_of_term(exps, w) == degree for exps in self.terms)

    # -- equality, hashing, printing ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            c = _try(other)
            if c is None:
                return NotImplemented
            other = self.table.constant(c)
        return (self.den == other.den and self.terms == other.terms
                and (self.table is other.table or self.table == other.table))

    def __hash__(self):
        """A constant hashes as its coefficient and zero as 0, since __eq__
        equates them with ints, Fractions and Eisensteins.  Any other
        polynomial hashes its table and exponent set only: equal polynomials
        have equal term dicts, and no coefficient is hashed."""
        h = self._hash
        if h is None:
            terms = self.terms
            if not terms:
                h = 0
            elif len(terms) == 1 and not any(next(iter(terms))):
                h = hash(_make(*next(iter(terms.values())), self.den))
            else:
                h = hash((self.table, frozenset(terms)))
            _set_hash(self, h)
        return h

    def __repr__(self):
        return f"<poly {self}>"

    def __str__(self):
        return render(self)


_set_table, _set_den, _set_terms, _set_hash = Polynomial._setters


def _polynomial(table: VarTable, den: int, terms: dict) -> Polynomial:
    """Wrap a term dict that is already valid and in lowest terms over den
    (zero has den 1): nonzero int pairs, and exponent tuples of the table's
    arity that the table allows.  The dict is taken over, not copied."""
    p = object.__new__(Polynomial)
    _set_table(p, table)
    _set_den(p, den)
    _set_terms(p, terms)
    _set_hash(p, None)
    return p


def _lowest(table: VarTable, den: int, terms: dict) -> Polynomial:
    """As _polynomial, for a term dict over den > 0 that may share a factor
    with it: one gcd over den and the parts, taken until it reaches one."""
    if den != 1:
        if not terms:
            den = 1
        else:
            g = den
            for a, b in terms.values():
                g = gcd(g, a, b)
                if g == 1:
                    break
            else:
                den //= g
                terms = {e: (a // g, b // g) for e, (a, b) in terms.items()}
    return _polynomial(table, den, terms)


def _from_triples(terms: dict) -> tuple[int, dict]:
    """A term dict of lowest-terms triples (a, b, d) as an int-pair term dict
    over the lcm of the d, returned with that lcm.  The pairs are then in
    lowest terms: a prime's highest power in the lcm divides some term's d
    exactly, and that term's scaled pair is not a multiple of the prime."""
    den = lcm(*[d for _, _, d in terms.values()])
    return den, {e: (a * (den // d), b * (den // d)) for e, (a, b, d) in terms.items()}


def _add_into(acc: dict, terms: dict, ca: int, cb: int) -> None:
    """acc += (ca + cb*w) * terms in place, on int pairs; a sum that cancels
    is dropped.  The scalar is not zero."""
    get = acc.get
    for e, (a, b) in terms.items():
        if cb:
            # (a + b*w)(ca + cb*w) = a*ca - b*cb + (a*cb + b*ca - b*cb)*w
            bb = b * cb
            a, b = a * ca - bb, a * cb + b * ca - bb
        elif ca != 1:
            a *= ca
            b *= ca
        got = get(e)
        if got is not None:
            a += got[0]
            b += got[1]
            if not (a or b):
                del acc[e]
                continue
        acc[e] = (a, b)


def _sum(parts) -> tuple[int, dict]:
    """The sum of the parts (d, terms, (a, b)), each (a + b*w) * terms / d,
    as a term dict over the lcm of the d, not yet in lowest terms."""
    den = lcm(*[d for d, _, _ in parts])
    acc = {}
    for d, terms, (ca, cb) in parts:
        m = den // d
        ca *= m
        cb *= m
        if not acc and ca == 1 and not cb:
            acc = dict(terms)  # acc is zero: the sum is a copy
        else:
            _add_into(acc, terms, ca, cb)
    return den, acc


# Rational products of at least this many pairs of terms are summed on
# Kronecker keys (_kronecker_product); _product gives the measurements behind
# the value.  Between 64 and 511 pairs the keys save 9-22% of a
# product's time, and no workload spends much there, so the gate stays at 512
# until one does.
_KRONECKER_PAIRS = 512


def _product(t1: dict, t2: dict) -> dict:
    """The int-pair term dict of the product of two int-pair term dicts; the
    product's denominator is the product of the factors'.

    A one-term factor shifts and scales the other, and no two results share a
    monomial; a factor of coefficient pair (1, 0) (a variable or its power,
    an S-polynomial multiplier) only shifts.  Otherwise the term products are
    summed as plain ints, (a1 + b1*w)(a2 + b2*w) = a1*a2 - b1*b2 +
    (a1*b2 + b1*a2 - b1*b2)*w, and sums that cancel are dropped: on exponent
    tuples, one built per pair of terms, or, for rational factors with
    _KRONECKER_PAIRS pairs or more, on int keys (_kronecker_product).  On the
    products of one pass of each benchmark workload, the keyed sums took 1.2
    times the tuple loop's time below 64 pairs, 0.78-0.91 times from 64 to
    511 pairs, and 0.46 times from 512 on, where 8.5 pairs collapse onto each
    result term; the gate takes only that last group, autgroup.krv's power
    builds inside substitute.  No Q(w) product of a workload reaches 512
    pairs, so those keep the tuple loop.
    """
    if not (t1 and t2):
        return {}
    if len(t1) == 1:
        t1, t2 = t2, t1
    if len(t2) == 1:
        (e, (ca, cb)), = t2.items()
        if ca == 1 and not cb:
            return {tuple(map(add, e1, e)): pair for e1, pair in t1.items()}
        return {tuple(map(add, e1, e)): (a * ca - b * cb, a * cb + b * ca - b * cb)
                for e1, (a, b) in t1.items()}
    rational = not any(b for _, b in t1.values()) and not any(b for _, b in t2.values())
    if rational and len(t1) * len(t2) >= _KRONECKER_PAIRS:
        return _kronecker_product(t1, t2)
    re: dict[tuple[int, ...], int] = {}
    get = re.get
    if rational:
        for e1, (a1, _) in t1.items():
            for e2, (a2, _) in t2.items():
                e = tuple(map(add, e1, e2))
                re[e] = get(e, 0) + a1 * a2
        return {e: (a, 0) for e, a in re.items() if a}
    om: dict[tuple[int, ...], int] = {}
    oget = om.get
    for e1, (a1, b1) in t1.items():
        for e2, (a2, b2) in t2.items():
            e = tuple(map(add, e1, e2))
            bb = b1 * b2
            re[e] = get(e, 0) + a1 * a2 - bb
            om[e] = oget(e, 0) + a1 * b2 + b1 * a2 - bb
    return {e: (a, om[e]) for e, a in re.items() if a or om[e]}


def _kronecker_product(t1: dict, t2: dict) -> dict:
    """_product of two multi-term dicts with rational coefficients (no w
    parts), summed on Kronecker keys: exponent tuples packed into ints, as in
    Monagan & Pearce, CASC 2007.

    The key of an exponent tuple e is the int sum of e_i*m_i, where m_i is
    the product of the spans max_i(t1) + max_i(t2) - min_i(t1) - min_i(t2) + 1
    of the variables before i.  The map is linear, so key(e1) + key(e2) is
    the key of the product monomial e1 + e2.  It is one-to-one on the box of
    exponents the product can reach, negative Laurent exponents included:
    two points of the box differ by d with |d_i| < span_i, and a nonzero
    such d has a lowest i with d_i != 0, where sum(d_j*m_j) is d_i*m_i
    modulo m_(i+1) = m_i*span_i, which is not 0.  So each pair costs an int
    addition, and the exponent tuple is built once per distinct result
    monomial, from the first pair that reaches it.
    """
    m = []
    step = 1
    for c1, c2 in zip(zip(*t1), zip(*t2)):
        m.append(step)
        step *= max(c1) + max(c2) - min(c1) - min(c2) + 1
    acc: dict[int, int] = {}
    at: dict[int, tuple] = {}  # key -> the first pair of exponent tuples summed there
    get = acc.get
    rows = [(sum(map(mul, e2, m)), e2, a2) for e2, (a2, _) in t2.items()]
    for e1, (a1, _) in t1.items():
        k1 = sum(map(mul, e1, m))
        for k2, e2, a2 in rows:
            k = k1 + k2
            got = get(k)
            if got is None:
                acc[k] = a1 * a2
                at[k] = e1, e2
            else:
                acc[k] = got + a1 * a2
    return {tuple(map(add, *at[k])): (a, 0) for k, a in acc.items() if a}


def _require_polynomial(f: Polynomial, what: str):
    # only a Laurent variable can carry a negative exponent
    if any(f.table.laurent) and min(map(min, f.terms), default=0) < 0:
        raise LaurentInputError(
            f"{what} carries negative exponents; clear Laurent denominators first")


def reduce(f: Polynomial, gens: list[Polynomial],
           order=grevlex_key) -> tuple[Polynomial, list[Polynomial]]:
    """Division with remainder under the monomial order `order` (a key
    function): f = sum(cofactor_i * gens_i) + remainder.

    No remainder monomial is divisible by any generator's leading monomial.
    Inputs must carry no negative exponents (LaurentInputError otherwise;
    see clear_laurent).  The loop keeps each coefficient as its own triple
    (a, b, d) in lowest terms, so a step that brings in a new denominator
    touches only the terms it writes.  The representation identity is
    checked on every call; PostconditionError reports a violation.
    """
    _require_polynomial(f, "dividend")
    table = f.table
    gens = [table.coerce(g) for g in gens]
    lead = []
    tails = []
    for g in gens:
        if g.is_zero():
            raise ZeroDivisionError("zero divisor in reduce()")
        _require_polynomial(g, "divisor")
        gm = max(g.terms, key=order)
        a, b = g.terms[gm]
        d = g.den
        inv = None if a == d and not b else _inverse(a, b, d)
        lead.append((gm, inv))
        # the tail over its denominator, negated: each step adds q times it
        # into the dividend
        tails.append(([(e, -a, -b) for e, (a, b) in g.terms.items() if e != gm], d))

    # Max-heap of the working dividend's monomials, as a min-heap of flat
    # tuples (negated order key, exponents).  A monomial that cancels keeps
    # its entry (lazy deletion), so a popped monomial missing from work is
    # skipped.  Each step takes the largest monomial of work and only adds
    # smaller ones, so no monomial comes back once it has been taken.
    push = heapq.heappush
    den = f.den
    work = {e: _triple(a, b, den) for e, (a, b) in f.terms.items()}
    heap = [(*[-k for k in order(e)], e) for e in work]
    heapq.heapify(heap)
    cof_terms: list[dict] = [{} for _ in gens]
    rem_terms: dict = {}
    while heap:
        lt_exps = heapq.heappop(heap)[-1]
        lt = work.pop(lt_exps, None)
        if lt is None:
            continue
        for i, (gm, inv) in enumerate(lead):
            if all(map(le, gm, lt_exps)):
                q_exps = tuple(map(sub, lt_exps, gm))
                q = lt if inv is None else _times(lt, inv)
                cof_terms[i][q_exps] = q
                qa, qb, qd = q
                tail, td = tails[i]
                td *= qd
                # work[e] += q * t: (qa + qb*w)(ta + tb*w)/(qd*td), in lowest terms
                for ge, ta, tb in tail:
                    e = tuple(map(add, q_exps, ge))
                    bb = qb * tb
                    pa = qa * ta - bb
                    pb = qa * tb + qb * ta - bb
                    pd = td
                    got = work.get(e)
                    if got is None:
                        push(heap, (*[-k for k in order(e)], e))
                    else:
                        wa, wb, wd = got
                        if wd == pd:
                            pa += wa
                            pb += wb
                        else:
                            pa, pb, pd = wa * pd + pa * wd, wb * pd + pb * wd, wd * pd
                        if not (pa or pb):
                            del work[e]
                            continue
                    if pd != 1:
                        h = gcd(pa, pb, pd)
                        if h != 1:
                            pa //= h
                            pb //= h
                            pd //= h
                    work[e] = (pa, pb, pd)
                break
        else:
            rem_terms[lt_exps] = lt
    rem = _polynomial(table, *_from_triples(rem_terms))
    cofactors = [_polynomial(table, *_from_triples(t)) for t in cof_terms]
    # rem + sum of cofactor * generator, over one denominator
    parts = [(rem.den, rem.terms, (1, 0))]
    parts += [(c.den * g.den, _product(c.terms, g.terms), (1, 0))
              for c, g in zip(cofactors, gens)]
    if _lowest(table, *_sum(parts)) != f:
        raise PostconditionError("division identity violated")
    return rem, cofactors


def clear_laurent(f: Polynomial) -> tuple[Polynomial, tuple[int, ...]]:
    """Divide f by its Laurent content, the monomial of each Laurent
    variable's smallest exponent in f.

    Returns the stripped polynomial and the content's exponent tuple (the
    shift), so f == stripped * monomial(shift).  Laurent monomials are units,
    so stripping changes neither divisibility nor ideal membership there.
    """
    table = f.table
    shift = tuple(min(e[i] for e in f.terms) if lau and f.terms else 0
                  for i, lau in enumerate(table.laurent))
    if not any(shift):
        return f, shift
    return _polynomial(table, f.den, {tuple(map(sub, e, shift)): c
                                      for e, c in f.terms.items()}), shift


def _render_monomial(table: VarTable, exps: tuple[int, ...]) -> str:
    parts = []
    for name, e in zip(table.names, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def render(p: Polynomial) -> str:
    """Canonical text: grevlex-descending terms, explicit '*', 'w' for the cube root.

    Read back as a .krv expression over an equal table, it gives p exactly.
    """
    if p.is_zero():
        return "0"
    pieces: list[tuple[bool, str]] = []  # (negative?, magnitude text)
    d = p.den
    for exps, (a, b) in sorted(p.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True):
        mono = _render_monomial(p.table, exps)
        # a term's own (a, b, d) need not be in lowest terms: _part reduces,
        # and a part is one exactly when it equals d
        if not mono:
            # split the constant into rational and w parts so no parens are needed
            if a:
                pieces.append((a < 0, _part(abs(a), d)))
            if b:
                pieces.append((b < 0, _scaled(abs(b), d, "w")))
            continue
        if not b:
            neg = a < 0
            text = _scaled(abs(a), d, mono)
        elif not a:
            neg = b < 0
            text = _scaled(abs(b), d, f"w*{mono}")
        else:
            neg = a < 0
            text = f"({render_coeff(_make(-a, -b, d) if neg else _make(a, b, d))})*{mono}"
        pieces.append((neg, text))
    out = []
    for i, (neg, text) in enumerate(pieces):
        if i == 0:
            out.append(("-" if neg else "") + text)
        else:
            out.append((" - " if neg else " + ") + text)
    return "".join(out)
