"""Sparse multivariate Laurent polynomials over Q(w).

A VarTable fixes an ordered set of variable names together with per-variable
Laurent flags (negative exponents allowed) and weights.  Weight 0 marks a
parameter: a symbolic constant that counts for degree 0 in the weighted
degree, by which geometry.tangent_cone takes the lowest homogeneous part.
Polynomials are immutable dictionaries from exponent tuples to nonzero
Eisenstein coefficients; equality of the term maps is equality of
polynomials.  That dictionary, `.terms`, belongs to the kernel (this module
and coeff.py): every other module reads a polynomial only through len(p),
p.items(), p.coeff(exps), p.coefficient_in(name, k) and the other queries,
and builds a monomial with VarTable.monomial.

Multivariate division with remainder (reduce) and the Laurent-content split
(clear_laurent) live here too, the one division loop of the package.

A monomial order is a key function: it maps an exponent tuple to a flat
tuple of ints, and a larger key is a larger monomial.  The canonical order,
used for printing and as the default for leading terms and division, is
graded reverse lexicographic over the table order (grevlex_key).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import lcm
from operator import add, le, sub

from .coeff import ONE, ZERO, Eisenstein, _make, _part, render_coeff
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
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "laurent", tuple(v in laurent for v in names))
        object.__setattr__(self, "weights", tuple(0 if v in params else 1 for v in names))
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(names)})
        object.__setattr__(self, "_bases", {})

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
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = Eisenstein.of(c)
        return _polynomial(self, {(0,) * self.arity: c} if c else {})

    def var(self, name: str) -> "Polynomial":
        i = self.index(name)
        e = [0] * self.arity
        e[i] = 1
        return _polynomial(self, {tuple(e): ONE})

    def monomial(self, exps: Iterable[int]) -> "Polynomial":
        """The monomial of coefficient one with this exponent tuple; the
        arity and any negative exponent are checked as in Polynomial()."""
        return Polynomial(self, {tuple(exps): ONE})

    def coerce(self, value) -> "Polynomial":
        """value as a polynomial over this table: a scalar becomes a constant,
        and a polynomial over another table raises TableMismatchError.  This
        is the one table check; crossing tables takes an explicit transport."""
        if isinstance(value, Polynomial):
            if value.table != self:
                raise TableMismatchError(f"tables differ: {self!r} vs {value.table!r}")
            return value
        if isinstance(value, (int, Fraction, Eisenstein)):
            return self.constant(value)
        raise TypeError(f"cannot combine polynomial with {value!r}")


def _check_exponents(table: VarTable, exps: tuple[int, ...]):
    for e, lau, name in zip(exps, table.laurent, table.names):
        if e < 0 and not lau:
            raise NegativeExponentError(
                f"negative exponent on non-Laurent variable {name!r}")


class Polynomial(Record):
    """Sparse polynomial: exponent tuple -> nonzero coefficient."""

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table: VarTable, terms: Mapping[tuple[int, ...], Eisenstein]):
        clean = {}
        for exps, c in terms.items():
            if not c:
                continue
            exps = tuple(exps)
            if len(exps) != table.arity:
                raise KrError("exponent tuple arity mismatch")
            _check_exponents(table, exps)
            clean[exps] = c
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    # -- basic queries -------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        """The number of terms."""
        return len(self.terms)

    def items(self):
        """The (exponent tuple, coefficient) pairs of the terms."""
        return self.terms.items()

    def coeff(self, exps: tuple[int, ...]) -> Eisenstein:
        """The coefficient of the monomial with exponent tuple exps; zero if absent."""
        return self.terms.get(tuple(exps), ZERO)

    def coefficient_in(self, name: str, k: int) -> "Polynomial":
        """The coefficient of name^k, a polynomial free of name: p is the sum
        over k of p.coefficient_in(name, k) * name^k."""
        i = self.table.index(name)
        return _polynomial(self.table, {exps[:i] + (0,) + exps[i + 1:]: c
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

    def leading_term(self, key=grevlex_key) -> tuple[tuple[int, ...], Eisenstein]:
        if not self.terms:
            raise KrError("zero polynomial has no leading term")
        exps = max(self.terms, key=key)
        return exps, self.terms[exps]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self.table.coerce(other)
        acc = dict(self.terms)
        _add_into(acc, other.terms)
        return _polynomial(self.table, acc)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self.table.coerce(other))

    def __rsub__(self, other):
        return self.table.coerce(other) - self

    def __neg__(self):
        return _polynomial(self.table, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self.table.coerce(other)
        return _polynomial(self.table, _product(self.terms, other.terms))

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
        exps, c = next(iter(self.terms.items()))
        return Polynomial(self.table, {tuple(-e for e in exps): c.inverse()})

    def monic(self, key=grevlex_key) -> "Polynomial":
        if not self.terms:
            return self
        _, lc = self.leading_term(key)
        inv = lc.inverse()
        return Polynomial(self.table, {e: c * inv for e, c in self.terms.items()})

    # -- calculus ------------------------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative (Laurent exponents use the integer power rule)."""
        i = self.table.index(name)
        acc = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            ne = list(exps)
            ne[i] = e - 1
            acc[tuple(ne)] = c * e
        return Polynomial(self.table, acc)

    def antiderivative(self, name: str) -> "Polynomial":
        """Term-wise antiderivative with constant 0; rejects exponent -1."""
        i = self.table.index(name)
        acc = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == -1:
                raise KrError(f"cannot antidifferentiate exponent -1 in {name}")
            ne = list(exps)
            ne[i] = e + 1
            acc[tuple(ne)] = c / (e + 1)
        return Polynomial(self.table, acc)

    # -- substitution and transport -----------------------------------------

    def substitute(self, images: Mapping[str, "Polynomial | int | Fraction | Eisenstein"]) -> "Polynomial":
        """Simultaneous substitution; unassigned variables map to themselves.

        Each image goes through this polynomial's VarTable.coerce, as the
        operands of + and * do: a scalar becomes a constant, and an image over
        another table raises TableMismatchError.  The image of a
        variable occurring with a negative exponent must be a unit monomial.
        This is a ring homomorphism: substitution of a product is the product
        of the substitutions.  Each term's image, its coefficient times powers
        of the images (each power is computed once per call; a coefficient of
        one is not multiplied in, and an unassigned variable's powers, of
        coefficient one, only shift exponents), is added into one term dict.
        """
        table = self.table
        for v in images:
            table.index(v)
        base = [table.coerce(images[name]) if name in images else table.var(name)
                for name in table.names]

        pow_cache: dict[tuple[int, int], Polynomial] = {}

        def power(i: int, e: int) -> Polynomial:
            got = pow_cache.get((i, e))
            if got is None:
                if e < 0 and not base[i].is_unit_monomial():
                    raise NonUnitError(
                        f"image of {table.names[i]!r} must be a unit monomial "
                        f"to carry negative exponents")
                got = base[i] ** e
                pow_cache[(i, e)] = got
            return got

        one = (0,) * table.arity
        acc: dict[tuple[int, ...], Eisenstein] = {}
        for exps, c in self.terms.items():
            prod = None if c == ONE else {one: c}
            for i, e in enumerate(exps):
                if e:
                    terms = power(i, e).terms
                    prod = terms if prod is None else _product(prod, terms)
            _add_into(acc, {one: c} if prod is None else prod)
        return _polynomial(table, acc)

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
            acc[tuple(ne)] = c
        return Polynomial(table, acc)

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
        if isinstance(other, (int, Fraction, Eisenstein)):
            other = self.table.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        """A constant hashes as its coefficient and zero as 0, since __eq__
        equates them with ints, Fractions and Eisensteins.  Any other
        polynomial hashes its table and exponent set only: equal polynomials
        have equal term dicts, and no coefficient is hashed (hashing an
        Eisenstein builds Fractions)."""
        h = self._hash
        if h is None:
            terms = self.terms
            if not terms:
                h = 0
            elif len(terms) == 1 and not any(next(iter(terms))):
                h = hash(next(iter(terms.values())))
            else:
                h = hash((self.table, frozenset(terms)))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"<poly {self}>"

    def __str__(self):
        return render(self)


def _polynomial(table: VarTable, terms: dict) -> Polynomial:
    """Wrap a term dict that is already valid: nonzero coefficients and
    exponent tuples of the table's arity that the table allows.  The dict is
    taken over, not copied."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "table", table)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "_hash", None)
    return p


def _add_into(acc: dict, terms: dict) -> None:
    """Add a term dict into acc in place; a sum that cancels is dropped."""
    for exps, c in terms.items():
        s = acc.get(exps)
        if s is None:
            acc[exps] = c
        else:
            s = s + c
            if s:
                acc[exps] = s
            else:
                del acc[exps]


def _product(t1: dict, t2: dict) -> dict:
    """The term dict of the product of two term dicts.

    A one-term factor shifts and scales the other, and no two results share a
    monomial; a factor of coefficient one (a variable or its power, an
    S-polynomial multiplier) only shifts.  Otherwise each factor is put over
    one common denominator and the term products are summed as plain ints,
    (a1 + b1*w)(a2 + b2*w) = a1*a2 - b1*b2 + (a1*b2 + b1*a2 - b1*b2)*w; each
    nonzero sum becomes one canonical coefficient.
    """
    if not (t1 and t2):
        return {}
    if len(t1) == 1:
        t1, t2 = t2, t1
    if len(t2) == 1:
        (e, c), = t2.items()
        if c._a == c._d == 1 and not c._b:
            return {tuple(map(add, e1, e)): c1 for e1, c1 in t1.items()}
        return {tuple(map(add, e1, e)): c1 * c for e1, c1 in t1.items()}
    d1 = lcm(*[c._d for c in t1.values()])
    d2 = lcm(*[c._d for c in t2.values()])
    s1 = [(e, c._a * (d1 // c._d), c._b * (d1 // c._d)) for e, c in t1.items()]
    s2 = [(e, c._a * (d2 // c._d), c._b * (d2 // c._d)) for e, c in t2.items()]
    d = d1 * d2
    re: dict[tuple[int, ...], int] = {}
    get = re.get
    if not any(c._b for c in t1.values()) and not any(c._b for c in t2.values()):
        for e1, a1, _ in s1:
            for e2, a2, _ in s2:
                e = tuple(map(add, e1, e2))
                re[e] = get(e, 0) + a1 * a2
        return {e: _make(a, 0, d) for e, a in re.items() if a}
    om: dict[tuple[int, ...], int] = {}
    oget = om.get
    for e1, a1, b1 in s1:
        for e2, a2, b2 in s2:
            e = tuple(map(add, e1, e2))
            bb = b1 * b2
            re[e] = get(e, 0) + a1 * a2 - bb
            om[e] = oget(e, 0) + a1 * b2 + b1 * a2 - bb
    return {e: _make(a, om[e], d) for e, a in re.items() if a or om[e]}


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
    see clear_laurent).  The representation identity is checked on every
    call; PostconditionError reports a violation.
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
        gm, gc = g.leading_term(order)
        lead.append((gm, None if gc == ONE else gc.inverse()))
        # the tail, negated: each step adds q times it into the dividend
        tails.append([(e, -c._a, -c._b, c._d) for e, c in g.terms.items() if e != gm])

    # Max-heap of the working dividend's monomials, as a min-heap of flat
    # tuples (negated order key, exponents).  A monomial that cancels keeps
    # its entry (lazy deletion), so a popped monomial missing from work is
    # skipped.  Each step takes the largest monomial of work and only adds
    # smaller ones, so no monomial comes back once it has been taken.
    push = heapq.heappush
    work = dict(f.terms)
    heap = [(*[-k for k in order(e)], e) for e in work]
    heapq.heapify(heap)
    cof_terms: list[dict] = [{} for _ in gens]
    rem_terms: dict = {}
    while heap:
        lt_exps = heapq.heappop(heap)[-1]
        lt_c = work.pop(lt_exps, None)
        if lt_c is None:
            continue
        for i, (gm, gc_inv) in enumerate(lead):
            if all(map(le, gm, lt_exps)):
                q_exps = tuple(map(sub, lt_exps, gm))
                q_c = lt_c if gc_inv is None else lt_c * gc_inv
                cof_terms[i][q_exps] = q_c
                qa, qb, qd = q_c._a, q_c._b, q_c._d
                # work[e] += q * t in one _make: (qa + qb*w)(ta + tb*w)/(qd*td)
                for ge, ta, tb, td in tails[i]:
                    e = tuple(map(add, q_exps, ge))
                    bb = qb * tb
                    pa = qa * ta - bb
                    pb = qa * tb + qb * ta - bb
                    pd = qd * td
                    got = work.get(e)
                    if got is None:
                        work[e] = _make(pa, pb, pd)
                        push(heap, (*[-k for k in order(e)], e))
                        continue
                    wd = got._d
                    if wd == pd:
                        na, nb = got._a + pa, got._b + pb
                    else:
                        na, nb, pd = got._a * pd + pa * wd, got._b * pd + pb * wd, wd * pd
                    if na or nb:
                        work[e] = _make(na, nb, pd)
                    else:
                        del work[e]
                break
        else:
            rem_terms[lt_exps] = lt_c
    recombined = dict(rem_terms)
    for t, g in zip(cof_terms, gens):
        _add_into(recombined, _product(t, g.terms))
    if recombined != f.terms:
        raise PostconditionError("division identity violated")
    return _polynomial(table, rem_terms), [_polynomial(table, t) for t in cof_terms]


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
    return _polynomial(table, {tuple(map(sub, e, shift)): c
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
    for exps, c in sorted(p.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True):
        mono = _render_monomial(p.table, exps)
        a, b, d = c._a, c._b, c._d
        if not mono:
            # split the constant into rational and w parts so no parens are needed
            if a:
                pieces.append((a < 0, _part(abs(a), d)))
            if b:
                mag = abs(b)
                pieces.append((b < 0, "w" if mag == d else f"{_part(mag, d)}*w"))
            continue
        if not b:
            neg = a < 0
            mag = abs(a)
            text = mono if mag == d else f"{_part(mag, d)}*{mono}"
        elif not a:
            neg = b < 0
            mag = abs(b)
            text = f"w*{mono}" if mag == d else f"{_part(mag, d)}*w*{mono}"
        else:
            neg = a < 0
            text = f"({render_coeff(-c if neg else c)})*{mono}"
        pieces.append((neg, text))
    out = []
    for i, (neg, text) in enumerate(pieces):
        if i == 0:
            out.append(("-" if neg else "") + text)
        else:
            out.append((" - " if neg else " + ") + text)
    return "".join(out)
