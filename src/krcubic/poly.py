"""Sparse multivariate Laurent polynomials over Q(w).

A VarTable fixes an ordered set of variable names together with per-variable
Laurent flags (negative exponents allowed) and weights.  Weight 0 marks a
parameter: a symbolic constant that counts for degree 0 in the weighted
degree, by which geometry.tangent_cone takes the lowest homogeneous part.
A polynomial is immutable.  It stores one positive denominator `den` and a
dictionary `terms` from monomial keys to nonzero int pairs (a, b), the
coefficient of that monomial being (a + b*w)/den, in lowest terms: gcd(den,
every a, every b) = 1, and zero has den 1.  That form is unique, so equality
of (den, terms) is equality of polynomials.  `den` and `terms` belong to the
kernel (this module and coeff.py); every other module goes through len(p),
p.items(), p.coeff(exps), p.coefficient_in(name, k), the other queries and
VarTable.monomial.

A monomial is one int key for the whole life of a polynomial (Bachmann &
Schoenemann, ISSAC 1998; Monagan & Pearce, CASC 2007).  Variable i owns the
WIDTH-bit field at bit WIDTH*i, holding _MID - e_i, and the total degree
sits above all fields, so int order is grevlex.  The key is linear, origin +
sum(e_i * unit_i), so a product monomial's key is k1 + k2 - origin: one int
addition per pair of terms, and a product by a one-term factor shifts keys.
Exponent tuples and Eisensteins (coeff.py) are built only at the edges:
items(), coeff(exps), leading_monomial(), the public constructor
Polynomial(table, {exps: coefficient}), transport and rendering.  Grevlex is
the one monomial order.  A compound result (substitute, linear_combination,
reduce's identity check) is summed from term dicts over one denominator by
_sum and put in lowest terms once, with no polynomial built per step.

Every exponent is at most EXPONENT_LIMIT in absolute value, so no field of a
valid key sets its top bit, its guard.  A polynomial carries _reach, a bound
on its absolute exponents; an operation that can move an exponent checks its
result's bound once per call and raises ExponentOverflowError before any
field could carry into its neighbour, so a result that would fit after
cancellation may be refused.  Over a table without a Laurent variable
_tight cuts a bound to its value's total degree, so bounds do not drift
under iteration; over one with a Laurent variable they may.

Division with remainder (reduce) and the Laurent-content split
(clear_laurent) live here too.  The triple (a, b, d) is the one scalar form;
its formulas (_triple, _times, _inverse, _scaled) live in coeff.py, but
_add_into, _product and reduce's division step write _times inline: they
run it once per pair of terms, where a call would cost more than the
arithmetic.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping
from math import gcd, lcm
from operator import mul

from .coeff import (ONE, ZERO, Eisenstein, _inverse, _make, _part, _scaled, _times, _triple,
                    _try, render_coeff)
from .errors import (ExponentOverflowError, KrError, LaurentInputError, NegativeExponentError,
                     NonUnitError, PostconditionError, Record, TableMismatchError)

# The key layout (see the module docstring): WIDTH bits per variable, a field
# holding _MID - e, so that |e| <= EXPONENT_LIMIT keeps it in [1, _GUARD).
WIDTH = 16
_FIELD = (1 << WIDTH) - 1
_GUARD = 1 << (WIDTH - 1)
_MID = _GUARD >> 1
EXPONENT_LIMIT = _MID - 1


def _within(reach: int) -> int:
    """reach, a bound on the absolute exponents of a result, once checked."""
    if reach > EXPONENT_LIMIT:
        raise ExponentOverflowError(f"exponent bound {reach} exceeds the limit {EXPONENT_LIMIT}")
    return reach


class VarTable(Record):
    """Ordered variable universe for one polynomial ring, and its key layout.

    _bases memoises Groebner bases of ideals over this table (see
    groebner._basis); like RingMap's image memo it is not part of the value.
    """

    __slots__ = ("names", "laurent", "weights", "_index", "_bases", "_origin", "_units")

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
        shifts = range(0, WIDTH * len(names), WIDTH)
        super().__init__(names, tuple(v in laurent for v in names),
                         tuple(0 if v in params else 1 for v in names),
                         {v: i for i, v in enumerate(names)}, {},
                         sum(_MID << s for s in shifts),
                         tuple((1 << WIDTH * len(names)) - (1 << s) for s in shifts))

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

    def grevlex(self, exps: Iterable[int]) -> int:
        """The key of an exponent tuple within EXPONENT_LIMIT: a larger int is
        a grevlex-larger monomial."""
        return self._origin + sum(map(mul, exps, self._units))

    def _exps(self, key: int) -> tuple[int, ...]:
        """The exponent tuple of a key."""
        return tuple([_MID - ((key >> s) & _FIELD)
                      for s in range(0, WIDTH * len(self.names), WIDTH)])

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
        return _polynomial(self, 1, {}, 0)

    def one(self) -> "Polynomial":
        return self.constant(ONE)

    def constant(self, c) -> "Polynomial":
        c = Eisenstein.of(c)
        if not c:
            return self.zero()
        return _polynomial(self, c._d, {self._origin: (c._a, c._b)}, 0)

    def var(self, name: str) -> "Polynomial":
        return _polynomial(self, 1, {self._origin + self._units[self.index(name)]: (1, 0)}, 1)

    def monomial(self, exps: Iterable[int]) -> "Polynomial":
        """The monomial of coefficient one with this exponent tuple; the
        arity, any negative exponent and the limit are checked as in
        Polynomial()."""
        exps = tuple(exps)
        if len(exps) != self.arity:
            raise KrError("exponent tuple arity mismatch")
        return _polynomial(self, 1, {self.grevlex(exps): (1, 0)}, _check_exponents(self, exps))

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


def _check_exponents(table: VarTable, exps: tuple[int, ...]) -> int:
    """The largest absolute exponent of exps, which must fit the table."""
    for e, lau, name in zip(exps, table.laurent, table.names):
        if e < 0 and not lau:
            raise NegativeExponentError(
                f"negative exponent on non-Laurent variable {name!r}")
    return _within(max(map(abs, exps), default=0))


def _column(terms: Iterable[int], i: int) -> list[int]:
    """The exponents of variable i over the keys of terms."""
    s = WIDTH * i
    return [_MID - ((k >> s) & _FIELD) for k in terms]


class Polynomial(Record):
    """Sparse polynomial: monomial key -> nonzero coefficient.

    The coefficient of the monomial of key k is (a + b*w)/den for terms[k] =
    (a, b), in lowest terms over the whole polynomial, and every exponent is
    at most _reach in absolute value (see the module docstring).
    """

    __slots__ = ("table", "den", "terms", "_reach", "_hash")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], Eisenstein]):
        clean = {}
        reach = 0
        for exps, c in terms.items():
            c = Eisenstein.of(c)
            if not c:
                continue
            exps = tuple(exps)
            if len(exps) != table.arity:
                raise KrError("exponent tuple arity mismatch")
            reach = max(reach, _check_exponents(table, exps))
            clean[table.grevlex(exps)] = (c._a, c._b, c._d)
        super().__init__(table, *_from_triples(clean), reach, None)

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
        exps = self.table._exps
        return [(exps(k), _make(a, b, d)) for k, (a, b) in self.terms.items()]

    def coeff(self, exps: tuple[int, ...]) -> Eisenstein:
        """The coefficient of the monomial with exponent tuple exps; zero if absent."""
        exps = tuple(exps)
        if len(exps) != self.table.arity or max(map(abs, exps), default=0) > EXPONENT_LIMIT:
            return ZERO
        pair = self.terms.get(self.table.grevlex(exps))
        return ZERO if pair is None else _make(*pair, self.den)

    def coefficient_in(self, name: str, k: int) -> "Polynomial":
        """The coefficient of name^k, a polynomial free of name: p is the sum
        over k of p.coefficient_in(name, k) * name^k."""
        i = self.table.index(name)
        s, field, drop = WIDTH * i, _MID - k, k * self.table._units[i]
        return _tight(self.table, self.den, {key - drop: c for key, c in self.terms.items()
                                             if (key >> s) & _FIELD == field}, self._reach)

    def monomial_divmod(self, exps: tuple[int, ...]) -> tuple["Polynomial", "Polynomial"]:
        """(q, r) with p == monomial(exps)*q + r, r the terms that the monomial does not
        divide.  Only exps' positive entries are tested (reduce's guard-bit test, masked to
        their fields), so a negative Laurent exponent elsewhere never blocks."""
        table = self.table
        if len(exps) != table.arity or not all(0 <= e <= EXPONENT_LIMIT for e in exps):
            raise KrError(f"monomial_divmod takes {table.arity} exponents in 0..{EXPONENT_LIMIT}")
        m = table.grevlex(exps)
        mg, drop = m | table._origin << 1, m - table._origin  # every field guarded: none borrows
        mask = sum(_GUARD << WIDTH * i for i, e in enumerate(exps) if e)
        r = dict(self.terms)
        q = {k - drop: r.pop(k) for k in self.terms if (mg - k) & mask == mask}
        return _tight(table, self.den, q, self._reach), _tight(table, self.den, r, self._reach)

    def is_constant(self) -> bool:
        return all(k == self.table._origin for k in self.terms)

    def degree_in(self, name: str) -> int:
        """The largest exponent of name; -1 for the zero polynomial."""
        return max(_column(self.terms, self.table.index(name)), default=-1)

    def min_exponent(self, name: str) -> int:
        """The smallest exponent of name; 0 for the zero polynomial."""
        return min(_column(self.terms, self.table.index(name)), default=0)

    def variables_used(self) -> tuple[str, ...]:
        used = {i for exps in map(self.table._exps, self.terms) for i, e in enumerate(exps) if e}
        return tuple(self.table.names[i] for i in sorted(used))

    def leading_monomial(self) -> tuple[int, ...]:
        """The exponents of the grevlex-largest monomial; no coefficient is built."""
        if not self.terms:
            raise KrError("zero polynomial has no leading term")
        return self.table._exps(max(self.terms))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return _plus(self, self.table.coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other):
        return _plus(self, self.table.coerce(other), -1)

    def __rsub__(self, other):
        return self.table.coerce(other) - self

    def __neg__(self):
        return _polynomial(self.table, self.den,
                           {k: (-a, -b) for k, (a, b) in self.terms.items()}, self._reach)

    def __mul__(self, other):
        other = self.table.coerce(other)
        reach = _within(self._reach + other._reach)
        return _lowest(self.table, self.den * other.den,
                       _product(self.terms, other.terms, self.table._origin), reach)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("polynomial exponent must be an integer")
        if k < 0:
            return self.unit_inverse() ** (-k)
        if k == 0:
            return self.table.one()
        _within(k * max(self._reach, 1))  # k too: a constant's reach is 0
        acc, base = None, self
        while True:
            if k & 1:
                acc = base if acc is None else acc * base
            k >>= 1
            if not k:
                return acc
            base = base * base

    def is_unit_monomial(self) -> bool:
        """One term whose variables are all Laurent (so the monomial is invertible)."""
        return len(self.terms) == 1 and all(
            e == 0 or lau for e, lau in zip(self.leading_monomial(), self.table.laurent))

    def unit_inverse(self) -> "Polynomial":
        if not self.is_unit_monomial():
            if len(self.terms) == 1:
                _check_exponents(self.table, tuple(-e for e in self.leading_monomial()))
            raise NonUnitError(f"not a unit monomial: {self}")
        (exps, c), = self.items()
        return Polynomial(self.table, {tuple(-e for e in exps): c.inverse()})

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        a, b = self.terms[max(self.terms)]
        if a == self.den and not b:
            return self
        # (T/den) / ((a + b*w)/den) = T times the inverse of a + b*w
        ca, cb, den = _inverse(a, b, 1)
        acc = {}
        _add_into(acc, self.terms, ca, cb)
        return _lowest(self.table, den, acc, self._reach)

    # -- calculus ------------------------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative (Laurent exponents use the integer power rule)."""
        table = self.table
        i = table.index(name)
        column = _column(self.terms, i)
        # only an exponent below zero grows in absolute value
        reach = _within(max(self._reach, 1 - min(column, default=0)))
        unit = table._units[i]
        acc = {k - unit: (a * e, b * e)
               for k, e, (a, b) in zip(self.terms, column, self.terms.values()) if e}
        return _tight(table, self.den, acc, reach)

    def antiderivative(self, name: str) -> "Polynomial":
        """Term-wise antiderivative with constant 0; rejects exponent -1.

        Every term goes over den*L, with L the lcm of the (e + 1) of name:
        (a + b*w)/den * name^e becomes (a + b*w)*(L/(e + 1))/(den*L) * name^(e + 1).
        """
        table = self.table
        i = table.index(name)
        column = _column(self.terms, i)
        if -1 in column:
            raise KrError(f"cannot antidifferentiate exponent -1 in {name}")
        reach = _within(max(self._reach, max(column, default=0) + 1))
        unit = table._units[i]
        scale = lcm(*[e + 1 for e in column])
        acc = {}
        for k, e, (a, b) in zip(self.terms, column, self.terms.values()):
            m = scale // (e + 1)
            acc[k + unit] = (a * m, b * m)
        return _lowest(table, self.den * scale, acc, reach)

    # -- substitution and transport -----------------------------------------

    def substitute(self, images: Mapping[str, "Polynomial | int | Eisenstein"]) -> "Polynomial":
        """Simultaneous substitution; unassigned variables map to themselves.

        Each image goes through this polynomial's VarTable.coerce, as the
        operands of + and * do: a scalar (an int, Fraction or Eisenstein)
        becomes a constant, and an image over another table raises
        TableMismatchError.  The image of a variable occurring with a
        negative exponent must be a unit monomial.  This is a ring
        homomorphism: substitution of a product is the product of the
        substitutions.  A variable mapped to itself stays in the key; the
        terms are grouped by the exponents of the other, moved, variables,
        and each group's terms shift and scale one product of the moved
        images' powers (each power computed once per call, from the power
        below it).  The parts are summed over one common denominator.
        """
        table = self.table
        for v in images:
            table.index(v)
        origin, units, terms = table._origin, table._units, self.terms
        moved = []  # (index, image) of each variable whose image is not itself
        for i, name in enumerate(table.names):
            p = table.coerce(images[name]) if name in images else table.var(name)
            # it moves unless it maps to itself with no negative power (its inverse's)
            if (p._reach, p.den, p.terms) != (1, 1, {origin + units[i]: (1, 0)}) or (
                    table.laurent[i] and min(_column(terms, i), default=0) < 0):
                moved.append((i, p))
        groups: dict[tuple[int, ...], dict] = {}  # the terms by their moved exponents
        for k, c in terms.items():
            groups.setdefault(tuple([_MID - ((k >> WIDTH * i) & _FIELD) for i, _ in moved]),
                              {})[k] = c

        # a term's image is bounded by the sum of |e_i| times image i's bound;
        # the fixed exponents, none negative, add the key's total degree less the moved ones
        top = WIDTH * table.arity
        reach = _within(max([sum([abs(e) * p._reach - e for e, (_, p) in zip(es, moved)])
                             + (max(rest) >> top) for es, rest in groups.items()], default=0))

        # chains[j, e > 0] holds the (den, terms) of moved image j, or of its inverse
        # for e < 0, to the powers 1, 2, ...; each grows by one product at a time
        chains: dict[tuple[int, bool], list] = {}
        parts = []
        for es, rest in groups.items():
            prod, d, drop = None, self.den, origin
            for j, e in enumerate(es):
                if e:
                    i, p = moved[j]
                    chain = chains.get((j, e > 0))
                    if chain is None:
                        if e < 0 and not p.is_unit_monomial():
                            raise NonUnitError(f"image of {table.names[i]!r} must be a unit "
                                               f"monomial to carry negative exponents")
                        p = p if e > 0 else p.unit_inverse()
                        chain = chains[j, e > 0] = [(p.den, p.terms)]
                    (d1, t1), n = chain[0], abs(e)
                    while len(chain) < n:
                        chain.append((chain[-1][0] * d1, _product(chain[-1][1], t1, origin)))
                    pd, pt = chain[n - 1]
                    prod = pt if prod is None else _product(prod, pt, origin)
                    d *= pd
                    drop += e * units[i]
            if prod is None:  # no moved variable occurs: the terms are their own image
                parts.append((d, rest, (1, 0), 0))
            else:  # each term shifts and scales the product by its fixed exponents
                parts += [(d, prod, c, k - drop) for k, c in rest.items()]
        return _tight(table, *_sum(parts), reach)

    def transport(self, table: VarTable) -> "Polynomial":
        """Reinterpret over another table, matching variables by name."""
        if table == self.table:
            return self
        pos = [table._index.get(name) for name in self.table.names]
        acc = {}
        for exps, c in zip(map(self.table._exps, self.terms), self.terms.values()):
            ne = [0] * table.arity
            for i, e in enumerate(exps):
                if e and pos[i] is None:
                    raise KrError(
                        f"variable {self.table.names[i]!r} does not exist in target table")
                if e:
                    ne[pos[i]] = e
            _check_exponents(table, ne)
            acc[table.grevlex(ne)] = c
        return _polynomial(table, self.den, acc, self._reach)

    # -- grading -------------------------------------------------------------

    def weighted_degree_of_term(self, exps: tuple[int, ...],
                                weights: tuple[int, ...] | None = None) -> int:
        w = self.table.weights if weights is None else weights
        return sum(e * wi for e, wi in zip(exps, w))

    def is_weighted_homogeneous(self, weights: Mapping[str, int], degree: int) -> bool:
        """True iff every term has the given weighted degree (unlisted vars weigh 0)."""
        w = tuple(weights.get(v, 0) for v in self.table.names)
        return all(self.weighted_degree_of_term(exps, w) == degree
                   for exps in map(self.table._exps, self.terms))

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
        polynomial hashes its table and key set only: equal polynomials
        have equal term dicts, and no coefficient is hashed."""
        h = self._hash
        if h is None:
            terms = self.terms
            if not terms:
                h = 0
            elif len(terms) == 1 and self.table._origin in terms:
                h = hash(_make(*terms[self.table._origin], self.den))
            else:
                h = hash((self.table, frozenset(terms)))
            _set_hash(self, h)
        return h

    def __repr__(self):
        return f"<poly {self}>"

    def __str__(self):
        return render(self)


_set_table, _set_den, _set_terms, _set_reach, _set_hash = Polynomial._setters


def _polynomial(table: VarTable, den: int, terms: dict, reach: int) -> Polynomial:
    """Wrap a term dict that is already valid and in lowest terms over den
    (zero has den 1): nonzero int pairs, keyed by monomials that the table
    allows, of absolute exponents at most reach.  The dict is taken over."""
    p = object.__new__(Polynomial)
    _set_table(p, table)
    _set_den(p, den)
    _set_terms(p, terms)
    _set_reach(p, reach)
    _set_hash(p, None)
    return p


def _lowest(table: VarTable, den: int, terms: dict, reach: int) -> Polynomial:
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
    return _polynomial(table, den, terms, reach)


def _tight(table: VarTable, den: int, terms: dict, reach: int) -> Polynomial:
    """As _lowest, for a result whose degree can fall below its operands'
    bound.  Over a table without a Laurent variable reach is cut to the
    largest total degree (zero: 0), which no exponent exceeds, so every bound
    is at most its value's degree, and a product's, the sum of two, needs no cut."""
    if True not in table.laurent:
        reach = min(reach, max(terms, default=0) >> WIDTH * len(table.names))
    return _lowest(table, den, terms, reach)


def _plus(p: Polynomial, q: Polynomial, sign: int) -> Polynomial:
    """p + sign*q over p's table."""
    return _tight(p.table, *_sum([(p.den, p.terms, (1, 0), 0), (q.den, q.terms, (sign, 0), 0)]),
                  max(p._reach, q._reach))


def linear_combination(start: Polynomial,
                       triples: Iterable[tuple[Polynomial, Polynomial, int]]) -> Polynomial:
    """start plus sign*p*q for each (p, q, sign), sign 1 or -1, over start's
    table (which coerces p and q), with the bound that chained + and * give,
    summed over one denominator and put in lowest terms once."""
    coerce, reach, parts = start.table.coerce, start._reach, [(start.den, start.terms, (1, 0), 0)]
    for p, q, sign in triples:
        p, q = coerce(p), coerce(q)
        reach = max(reach, _within(p._reach + q._reach))
        parts.append(_product_part(p, q, sign))
    return _tight(start.table, *_sum(parts), reach)


def _product_part(p: Polynomial, q: Polynomial, sign: int) -> tuple:
    """sign*p*q as a part for _sum; a one-term factor only shifts and scales the other."""
    if len(p.terms) != 1:
        p, q = q, p
    if len(p.terms) != 1:
        return p.den * q.den, _product(p.terms, q.terms, p.table._origin), (sign, 0), 0
    (k, (a, b)), = p.terms.items()
    return p.den * q.den, q.terms, (sign * a, sign * b), k - p.table._origin


def _from_triples(terms: dict) -> tuple[int, dict]:
    """A term dict of lowest-terms triples (a, b, d) as an int-pair term dict
    over the lcm of the d, returned with that lcm.  The pairs are then in
    lowest terms: a prime's highest power in the lcm divides some term's d
    exactly, and that term's scaled pair is not a multiple of the prime."""
    den = lcm(*[d for _, _, d in terms.values()])
    return den, {e: (a * (den // d), b * (den // d)) for e, (a, b, d) in terms.items()}


def _add_into(acc: dict, terms: dict, ca: int, cb: int, shift: int = 0) -> None:
    """acc += (ca + cb*w) * terms in place, on int pairs, every key of terms
    moved by shift; a sum that cancels is dropped.  The scalar is not zero."""
    get = acc.get
    for e, (a, b) in terms.items():
        e += shift
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
    """The sum of the parts (d, terms, (a, b), shift), each (a + b*w) * terms / d
    times the monomial of key origin + shift, as a term dict over the lcm of the
    d, not yet in lowest terms."""
    den = lcm(*[d for d, _, _, _ in parts])
    acc = {}
    for d, terms, (ca, cb), shift in parts:
        m = den // d
        ca *= m
        cb *= m
        if not acc and ca == 1 and not cb and not shift:
            acc = dict(terms)  # acc is zero: the sum is a copy
        else:
            _add_into(acc, terms, ca, cb, shift)
    return den, acc


def _product(t1: dict, t2: dict, origin: int) -> dict:
    """The int-pair term dict of the product of two int-pair term dicts whose
    table's keys have this origin; its denominator is the product of theirs.
    The caller has checked the exponent bound.

    A one-term factor shifts and scales the other; a factor of pair (1, 0)
    (a variable or its power, an S-polynomial multiplier) only shifts.
    Otherwise the term products, (a1 + b1*w)(a2 + b2*w) = a1*a2 - b1*b2 +
    (a1*b2 + b1*a2 - b1*b2)*w, are summed on their keys and sums that cancel
    are dropped; without w parts only the rational parts are summed.
    """
    if not (t1 and t2):
        return {}
    if len(t1) == 1:
        t1, t2 = t2, t1
    if len(t2) == 1:
        (k, (ca, cb)), = t2.items()
        k -= origin
        if ca == 1 and not cb:
            return {k1 + k: pair for k1, pair in t1.items()}
        return {k1 + k: (a * ca - b * cb, a * cb + b * ca - b * cb)
                for k1, (a, b) in t1.items()}
    re: dict[int, int] = {}
    get = re.get
    if not any(b for _, b in t1.values()) and not any(b for _, b in t2.values()):
        rows = [(k2 - origin, a2) for k2, (a2, _) in t2.items()]
        for k1, (a1, _) in t1.items():
            for k2, a2 in rows:
                k = k1 + k2
                re[k] = get(k, 0) + a1 * a2
        return {k: (a, 0) for k, a in re.items() if a}
    om: dict[int, int] = {}
    oget = om.get
    rows = [(k2 - origin, a2, b2) for k2, (a2, b2) in t2.items()]
    for k1, (a1, b1) in t1.items():
        for k2, a2, b2 in rows:
            k = k1 + k2
            bb = b1 * b2
            re[k] = get(k, 0) + a1 * a2 - bb
            om[k] = oget(k, 0) + a1 * b2 + b1 * a2 - bb
    return {k: (a, om[k]) for k, a in re.items() if a or om[k]}


def _require_polynomial(f: Polynomial, what: str):
    # only a Laurent variable can carry a negative exponent: no scan without one
    if any(f.table.laurent) and any(lau and min(_column(f.terms, i), default=0) < 0
           for i, lau in enumerate(f.table.laurent)):
        raise LaurentInputError(
            f"{what} carries negative exponents; clear Laurent denominators first")


def reduce(f: Polynomial, gens: list[Polynomial]) -> tuple[Polynomial, list[Polynomial]]:
    """Division with remainder under grevlex, on the keys themselves:
    f = sum(cofactor_i * gens_i) + remainder.

    No remainder monomial is divisible by any generator's leading monomial.
    Inputs must carry no negative exponents (LaurentInputError otherwise;
    see clear_laurent).  A leading monomial m divides k when every field of
    k is at most m's, that is when every field of (m | guards) - k keeps its
    guard bit.  A monomial the division creates past EXPONENT_LIMIT has a
    field below 1, so subtracting one from every field sets a guard bit:
    ExponentOverflowError.  Each coefficient is its own lowest-terms triple
    (a, b, d) while the loop runs, so a step that brings in a new denominator
    touches only the terms it writes.  The representation identity is
    checked on every call; PostconditionError reports a violation.
    """
    _require_polynomial(f, "dividend")
    table = f.table
    origin = table._origin
    guards, ones = origin << 1, origin >> (WIDTH - 2)  # each field's guard bit, and a one
    gens = [table.coerce(g) for g in gens]
    steps = []
    for g in gens:
        if g.is_zero():
            raise ZeroDivisionError("zero divisor in reduce()")
        _require_polynomial(g, "divisor")
        gm = max(g.terms)
        a, b = g.terms[gm]
        d = g.den
        inv = None if a == d and not b else _inverse(a, b, d)
        # with the tail over its denominator, negated: each step adds q times
        # it into the dividend
        steps.append((gm | guards, gm, inv,
                      [(k, -a, -b) for k, (a, b) in g.terms.items() if k != gm], d))

    # Max-heap of the working dividend's monomials: a min-heap of negated
    # keys.  A monomial that cancels keeps its entry (lazy deletion), so a
    # popped monomial missing from work is skipped.  Each step takes the
    # largest monomial of work and only adds smaller ones, so no monomial
    # comes back once it has been taken.
    push, pop = heapq.heappush, heapq.heappop
    den = f.den
    work = {k: _triple(a, b, den) for k, (a, b) in f.terms.items()}
    heap = [-k for k in work]
    heapq.heapify(heap)
    cof_terms: list[dict] = [{} for _ in gens]
    rem_terms: dict = {}
    while heap:
        lt_key = -pop(heap)
        lt = work.pop(lt_key, None)
        if lt is None:
            continue
        for i, (mg, gm, inv, tail, td) in enumerate(steps):
            if (mg - lt_key) & guards == guards:
                shift = lt_key - gm
                q = lt if inv is None else _times(lt, inv)
                cof_terms[i][shift + origin] = q
                qa, qb, qd = q
                td *= qd
                # work[e] += q * t: (qa + qb*w)(ta + tb*w)/(qd*td), in lowest terms
                for e, ta, tb in tail:
                    e += shift
                    bb = qb * tb
                    pa = qa * ta - bb
                    pb = qa * tb + qb * ta - bb
                    pd = td
                    got = work.get(e)
                    if got is None:
                        if (e - ones) & guards:
                            raise ExponentOverflowError(
                                f"division reaches an exponent beyond the limit {EXPONENT_LIMIT}")
                        push(heap, -e)
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
            rem_terms[lt_key] = lt
    # every exponent is at least 0, so none exceeds its term's total degree
    degree = WIDTH * table.arity
    zero = table.zero()
    rem, *cofactors = [_polynomial(table, *_from_triples(t),
                                   min(max(t) >> degree, EXPONENT_LIMIT)) if t else zero
                       for t in [rem_terms, *cof_terms]]
    # rem + sum of cofactor * generator, over one denominator
    parts = [(rem.den, rem.terms, (1, 0), 0)]
    parts += [_product_part(c, g, 1) for c, g in zip(cofactors, gens) if c]
    if _lowest(table, *_sum(parts), f._reach) != f:
        raise PostconditionError("division identity violated")
    return rem, cofactors


def clear_laurent(f: Polynomial) -> tuple[Polynomial, tuple[int, ...]]:
    """Divide f by its Laurent content, the monomial of each Laurent
    variable's smallest exponent in f.

    Returns the stripped polynomial and the content's exponent tuple (the
    shift), so f == stripped * monomial(shift).  Laurent monomials are units,
    so stripping changes neither divisibility nor ideal membership there.
    A stripped exponent is at most its variable's span, which is checked.
    """
    table = f.table
    shift = [0] * table.arity
    reach = f._reach
    for i, lau in enumerate(table.laurent):
        if lau and f.terms:
            column = _column(f.terms, i)
            shift[i] = low = min(column)
            reach = max(reach, max(column) - low)
    if not any(shift):
        return f, tuple(shift)
    drop = sum(map(mul, shift, table._units))
    return _polynomial(table, f.den, {k - drop: c for k, c in f.terms.items()},
                       _within(reach)), tuple(shift)


def _render_monomial(table: VarTable, exps: tuple[int, ...]) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(table.names, exps) if e)


def render(p: Polynomial) -> str:
    """Canonical text: grevlex-descending terms, explicit '*', 'w' for the cube root.

    Read back as a .krv expression over an equal table, it gives p exactly,
    unless an int has more digits than CPython's int/str limit: str() refuses
    it, and it prints as '<k-digit integer>'.  No coefficient is built.
    """
    if p.is_zero():
        return "0"
    pieces: list[tuple[bool, str]] = []  # (negative?, magnitude text)
    d = p.den
    for k, (a, b) in sorted(p.terms.items(), reverse=True):
        mono = _render_monomial(p.table, p.table._exps(k))
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
            neg, text = a < 0, _scaled(abs(a), d, mono)
        elif not a:
            neg, text = b < 0, _scaled(abs(b), d, f"w*{mono}")
        else:
            neg = a < 0
            text = f"({render_coeff(-a, -b, d) if neg else render_coeff(a, b, d)})*{mono}"
        pieces.append((neg, text))
    # each piece after its sign; the first sign is only '-', with no spaces
    out = "".join((" - " if neg else " + ") + text for neg, text in pieces)
    return ("-" if pieces[0][0] else "") + out[3:]
