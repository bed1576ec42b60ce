"""Sparse multivariate Laurent polynomials over Q(w).

A VarTable fixes an ordered set of variable names together with per-variable
Laurent flags (negative exponents allowed) and weights.  Weight 0 marks a
parameter: a symbolic constant that counts for degree 0 when homogeneous
parts are extracted.  Polynomials are immutable dictionaries from exponent
tuples to nonzero Eisenstein coefficients; equality of the term maps is
equality of polynomials.

The canonical term order used for printing and leading terms is graded
reverse lexicographic over the table order.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import lcm
from operator import add

from .coeff import ONE, Eisenstein, _make, render_coeff
from .errors import (
    EmptyConeError,
    KrError,
    NegativeExponentError,
    NonUnitError,
    TableMismatchError,
)


def grevlex_key(exps: tuple[int, ...]):
    """Sort key, a flat tuple of ints: max() under it is the grevlex-largest monomial."""
    return (sum(exps), *[-e for e in reversed(exps)])


def lex_key(exps: tuple[int, ...]):
    return exps


class VarTable:
    """Ordered variable universe for one polynomial ring."""

    __slots__ = ("names", "laurent", "weights", "_index")

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

    def __setattr__(self, name, value):
        raise AttributeError("VarTable is immutable")

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
        return Polynomial(self, {(0,) * self.arity: c} if c else {})

    def var(self, name: str) -> "Polynomial":
        i = self.index(name)
        e = [0] * self.arity
        e[i] = 1
        return Polynomial(self, {tuple(e): Eisenstein.of(1)})


def _check_exponents(table: VarTable, exps: tuple[int, ...]):
    for e, lau, name in zip(exps, table.laurent, table.names):
        if e < 0 and not lau:
            raise NegativeExponentError(
                f"negative exponent on non-Laurent variable {name!r}")


class Polynomial:
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

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- basic queries -------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Eisenstein:
        """The coefficient of the empty monomial (the whole value if constant)."""
        return self.terms.get((0,) * self.table.arity, Eisenstein(0))

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.table.index(name)
        return max(e[i] for e in self.terms)

    def min_exponent(self, name: str) -> int:
        if not self.terms:
            return 0
        i = self.table.index(name)
        return min(e[i] for e in self.terms)

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

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.table != self.table:
                raise TableMismatchError(
                    f"tables differ: {self.table!r} vs {other.table!r}")
            return other
        if isinstance(other, (int, Fraction, Eisenstein)):
            return self.table.constant(other)
        raise TypeError(f"cannot combine polynomial with {other!r}")

    def __add__(self, other):
        other = self._coerce(other)
        acc = dict(self.terms)
        _add_into(acc, other.terms)
        return _polynomial(self.table, acc)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return _polynomial(self.table, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
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

        The image of a variable occurring with a negative exponent must be a
        unit monomial.  This is a ring homomorphism: substitution of a product
        is the product of the substitutions.  Each term's image, its
        coefficient times powers of the images (each power is computed once
        per call; a coefficient of one is not multiplied in), is added in
        place into one term dict, which only reads the powers.
        """
        target = None
        imgs: dict[str, Polynomial] = {}
        for v, im in images.items():
            self.table.index(v)
            if isinstance(im, Polynomial):
                imgs[v] = im
                if target is None:
                    target = im.table
            else:
                imgs[v] = im  # coerced once the target table is known
        if target is None:
            target = self.table
        for v, im in list(imgs.items()):
            if not isinstance(im, Polynomial):
                imgs[v] = target.constant(im)
            elif im.table != target:
                raise TableMismatchError("substitution images over different tables")

        base: list[Polynomial] = []
        for name in self.table.names:
            if name in imgs:
                base.append(imgs[name])
            else:
                base.append(target.var(name))

        pow_cache: dict[tuple[int, int], Polynomial] = {}

        def power(i: int, e: int) -> Polynomial:
            got = pow_cache.get((i, e))
            if got is None:
                if e < 0 and not base[i].is_unit_monomial():
                    raise NonUnitError(
                        f"image of {self.table.names[i]!r} must be a unit monomial "
                        f"to carry negative exponents")
                got = base[i] ** e
                pow_cache[(i, e)] = got
            return got

        one = (0,) * target.arity
        acc: dict[tuple[int, ...], Eisenstein] = {}
        for exps, c in self.terms.items():
            prod = None if c == ONE else {one: c}
            for i, e in enumerate(exps):
                if e:
                    terms = power(i, e).terms
                    prod = terms if prod is None else _product(prod, terms)
            _add_into(acc, {one: c} if prod is None else prod)
        return _polynomial(target, acc)

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

    def translate(self, center: Mapping[str, "Polynomial | int | Fraction | Eisenstein"]) -> "Polynomial":
        """Shift variables: v -> v + center[v] for each listed variable."""
        images = {}
        for v, c in center.items():
            cv = c if isinstance(c, Polynomial) else self.table.constant(c)
            images[v] = self.table.var(v) + cv.transport(self.table)
        return self.substitute(images)

    # -- grading -------------------------------------------------------------

    def weighted_degree_of_term(self, exps: tuple[int, ...],
                                weights: tuple[int, ...] | None = None) -> int:
        w = self.table.weights if weights is None else weights
        return sum(e * wi for e, wi in zip(exps, w))

    def homogeneous_components(self) -> dict[int, "Polynomial"]:
        """Split by table-weighted degree (parameters count 0)."""
        buckets: dict[int, dict] = {}
        for exps, c in self.terms.items():
            d = self.weighted_degree_of_term(exps)
            buckets.setdefault(d, {})[exps] = c
        return {d: Polynomial(self.table, t) for d, t in sorted(buckets.items())}

    def lowest_homogeneous_part(self, center: Mapping[str, "Polynomial | int | Fraction | Eisenstein"] | None = None) -> "Polynomial":
        """Translate by a center, then keep the minimal-degree homogeneous part.

        Parameters weigh 0, so a parametric center contributes parametric
        coefficients rather than raising degrees.  Raises EmptyConeError when
        the translated polynomial is identically zero.
        """
        g = self.translate(center) if center else self
        if g.is_zero():
            raise EmptyConeError("polynomial vanishes identically after translation")
        comps = g.homogeneous_components()
        return comps[min(comps)]

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
    monomial.  Otherwise each factor is put over one common denominator and
    the term products are summed as plain ints, (a1 + b1*w)(a2 + b2*w) =
    a1*a2 - b1*b2 + (a1*b2 + b1*a2 - b1*b2)*w; each nonzero sum becomes one
    canonical coefficient.
    """
    if not (t1 and t2):
        return {}
    if len(t1) == 1:
        t1, t2 = t2, t1
    if len(t2) == 1:
        (e, c), = t2.items()
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


def _render_monomial(table: VarTable, exps: tuple[int, ...]) -> str:
    parts = []
    for name, e in zip(table.names, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def render(p: Polynomial) -> str:
    """Canonical text: grevlex-descending terms, explicit '*', 'w' for the cube root.

    parse_polynomial(render(p)) recovers p exactly.
    """
    if p.is_zero():
        return "0"
    pieces: list[tuple[bool, str]] = []  # (negative?, magnitude text)
    for exps, c in sorted(p.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True):
        mono = _render_monomial(p.table, exps)
        if not mono:
            # split the constant into rational and w parts so no parens are needed
            if c.re:
                pieces.append((c.re < 0, str(abs(c.re))))
            if c.om:
                mag = abs(c.om)
                pieces.append((c.om < 0, "w" if mag == 1 else f"{mag}*w"))
            continue
        if c.is_rational():
            neg = c.re < 0
            mag = abs(c.re)
            text = mono if mag == 1 else f"{mag}*{mono}"
        elif c.re == 0:
            neg = c.om < 0
            mag = abs(c.om)
            text = f"w*{mono}" if mag == 1 else f"{mag}*w*{mono}"
        else:
            neg = c.re < 0
            cc = -c if neg else c
            text = f"({render_coeff(cc)})*{mono}"
        pieces.append((neg, text))
    out = []
    for i, (neg, text) in enumerate(pieces):
        if i == 0:
            out.append(("-" if neg else "") + text)
        else:
            out.append((" - " if neg else " + ") + text)
    return "".join(out)
