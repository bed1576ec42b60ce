"""Ring endomorphisms as first-class values.

A RingMap stores one image polynomial per non-parameter variable (parameters
are symbolic constants and always map to themselves).  Composition, inverse
pair verification modulo ideals, Jacobians, exact division, quotient-ring
normal forms and the automorphism-extension construction all live here.
Exact division and normal forms are both remainders of groebner.reduce.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from operator import add

from .coeff import Eisenstein
from .errors import ExtensionError, KrError, PostconditionError
from .groebner import MonomialOrder, clear_laurent, member, reduce
from .poly import Polynomial, VarTable, _polynomial


class RingMap:
    """Endomorphism of a polynomial ring given by per-variable images."""

    __slots__ = ("table", "images", "_applied")

    def __init__(self, table: VarTable, images: Mapping[str, Polynomial]):
        imgs: dict[str, Polynomial] = {}
        for v in table.non_params():
            im = images.get(v)
            if im is None:
                im = table.var(v)
            elif not isinstance(im, Polynomial):
                im = table.constant(im)
            im = im.transport(table)
            if table.is_laurent(v) and not im.is_unit_monomial():
                # a Laurent variable must stay invertible under the map
                raise KrError(f"image of Laurent variable {v!r} must be a unit monomial")
            imgs[v] = im
        for v in images:
            if table.is_param(v):
                raise KrError(f"parameters cannot be remapped (got image for {v!r})")
            table.index(v)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "images", imgs)
        object.__setattr__(self, "_applied", {})

    def __setattr__(self, name, value):
        raise AttributeError("RingMap is immutable")

    @staticmethod
    def identity(table: VarTable) -> "RingMap":
        return RingMap(table, {})

    def apply(self, f: Polynomial) -> Polynomial:
        """The image of f under the map.

        Each image is computed once: the map remembers it, keyed by f over
        the map's table, for as long as the map lives.  Polynomials are
        immutable, so a remembered image cannot be told from a fresh one.
        """
        f = f.transport(self.table)
        image = self._applied.get(f)
        if image is None:
            image = self._applied[f] = f.substitute(self.images)
        return image

    __call__ = apply

    def image_of(self, name: str) -> Polynomial:
        if self.table.is_param(name):
            return self.table.var(name)
        return self.images[name]

    def __eq__(self, other):
        if not isinstance(other, RingMap):
            return NotImplemented
        return self.table == other.table and self.images == other.images

    def __hash__(self):
        return hash((self.table, frozenset(self.images.items())))

    def __repr__(self):
        moved = {v: str(im) for v, im in self.images.items()
                 if im != self.table.var(v)}
        return f"RingMap({moved})"


def compose(outer: RingMap, inner: RingMap) -> RingMap:
    """The map f -> outer(inner(f)); apply(compose(a, b), f) == a(b(f))."""
    if outer.table != inner.table:
        raise KrError("cannot compose maps over different tables")
    images = {v: outer.apply(inner.images[v]) for v in inner.table.non_params()}
    return RingMap(outer.table, images)


def _fixes_mod(m: RingMap, ideal: Sequence[Polynomial]) -> bool:
    for v in m.table.non_params():
        diff = m.images[v] - m.table.var(v)
        if diff.is_zero():
            continue
        if not ideal:
            return False
        if not member(diff, list(ideal)):
            return False
    return True


def verify_inverse_pair(m: RingMap, inv: RingMap, mod_first: Sequence[Polynomial] = (),
                        mod_second: Sequence[Polynomial] = ()) -> bool:
    """True iff m and inv are inverse to each other modulo the given ideals.

    compose(m, inv) must fix every variable modulo mod_first, and
    compose(inv, m) modulo mod_second; empty ideals demand exact identity.
    """
    return (_fixes_mod(compose(m, inv), mod_first)
            and _fixes_mod(compose(inv, m), mod_second))


def jacobian(m: RingMap, variables: Iterable[str]) -> tuple[list[list[Polynomial]], Polynomial]:
    """Matrix of partials of the images over the chosen variables, plus its determinant."""
    vs = list(variables)
    for v in vs:
        m.table.index(v)
    matrix = [[m.image_of(vi).diff(vj) for vj in vs] for vi in vs]
    return matrix, determinant(matrix, m.table)


def determinant(matrix: list[list[Polynomial]], table: VarTable) -> Polynomial:
    """Exact determinant by cofactor expansion along the first row."""
    n = len(matrix)
    if n == 0:
        return table.one()
    if n == 1:
        return matrix[0][0]
    det = table.zero()
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        cof = entry * determinant(minor, table)
        det = det + cof if j % 2 == 0 else det - cof
    return det


def _times_unit(p: Polynomial, shift: tuple[int, ...]) -> Polynomial:
    """p times the Laurent monomial with exponent tuple shift."""
    if not any(shift):
        return p
    return _polynomial(p.table, {tuple(map(add, e, shift)): c for e, c in p.terms.items()})


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """Return q with f == q*g if g divides f exactly, else None.

    Laurent content is cleared from both sides first (monomials in Laurent
    variables are units), so the result may legitimately carry negative
    exponents.  The cleared dividend is then divided by the cleared divisor
    with reduce(); division by a single polynomial has a unique remainder,
    and g divides f exactly when it is zero.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return f
    if f.table != g.table:
        raise KrError("operands over different tables")
    fs, fshift = clear_laurent(f)
    gs, gshift = clear_laurent(g)
    rem, (quot,) = reduce(fs, [gs])
    if rem:
        return None
    # reassemble: f = (quot * monomial(fshift - gshift)) * g
    quot = _times_unit(quot, tuple(a - b for a, b in zip(fshift, gshift)))
    if quot * g != f:
        raise PostconditionError("exact quotient times divisor differs from dividend")
    return quot


class QuotientRelation:
    """A relation of the shape x^2*y + r(z, t) + x*F(x, z, t), leading monomial x^2*y.

    The coefficient of x^2*y must be 1, no other term may involve y, and
    neither x nor y may be Laurent.  Under the lex order with y first
    (`order`), x^2*y leads, so the remainder on division by the relation is
    the unique normal form of the quotient ring.
    """

    __slots__ = ("table", "relation", "tail", "order")

    def __init__(self, relation: Polynomial):
        table = relation.table
        ix, iy = table.index("x"), table.index("y")
        if table.laurent[ix] or table.laurent[iy]:
            # then distinct remainders can be congruent: under the cubic,
            # x*y and -x^-1*(z^2 + x + t^3) differ by x^-1 times the relation
            raise KrError("x and y must not be Laurent in a quotient relation")
        head = [0] * table.arity
        head[ix], head[iy] = 2, 1
        head = tuple(head)
        if relation.terms.get(head) != Eisenstein(1):
            raise KrError("relation must have x^2*y with coefficient 1")
        rest = dict(relation.terms)
        del rest[head]
        for exps in rest:
            if exps[iy] != 0:
                raise KrError("relation tail must not involve y")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "relation", relation)
        # r + x*F, i.e. relation - x^2*y
        object.__setattr__(self, "tail", Polynomial(table, rest))
        object.__setattr__(self, "order",
                           MonomialOrder("lex-y", lambda e: (e[iy], *e)))

    def __setattr__(self, name, value):
        raise AttributeError("QuotientRelation is immutable")

    def __eq__(self, other):
        if not isinstance(other, QuotientRelation):
            return NotImplemented
        return self.relation == other.relation

    def __hash__(self):
        return hash(self.relation)

    def __repr__(self):
        return f"QuotientRelation({self.relation})"


def normal_form(f: Polynomial, rel: QuotientRelation) -> Polynomial:
    """Unique representative of f modulo the relation: no term divisible by x^2*y.

    It is the remainder of reduce() by the relation under rel.order, where
    x^2*y leads.  Laurent content (never in x or y) is cleared before the
    division and restored after it: a unit monomial free of x and y commutes
    with every division step.
    """
    f, shift = clear_laurent(f.transport(rel.table))
    rem, _ = reduce(f, [rel.relation], rel.order)
    return _times_unit(rem, shift)


class Extension:
    """Result of extending a base automorphism to the quotient ring.

    map     -- the extended endomorphism (y gets (y*factor - defect)/lam^2)
    factor  -- the unit-like multiplier with map(relation) == factor*relation
    defect  -- g in phi(tail) == tail*factor + x^2*g, the factor being of x-degree <= 1
    """

    __slots__ = ("map", "factor", "defect")

    def __init__(self, mp: RingMap, factor: Polynomial, defect: Polynomial):
        object.__setattr__(self, "map", mp)
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "defect", defect)

    def __setattr__(self, name, value):
        raise AttributeError("Extension is immutable")


def _x_coefficients(p: Polynomial, ix: int) -> tuple[Polynomial, Polynomial]:
    """The coefficients of x^0 and x^1 in p, as polynomials free of x."""
    parts: tuple[dict, dict] = ({}, {})
    for exps, c in p.terms.items():
        if exps[ix] in (0, 1):
            parts[exps[ix]][exps[:ix] + (0,) + exps[ix + 1:]] = c
    return Polynomial(p.table, parts[0]), Polynomial(p.table, parts[1])


def extend_to_quotient_automorphism(phi: RingMap, rel: QuotientRelation,
                                    lam: Polynomial) -> Extension:
    """Extend an automorphism of the base ring to the quotient by the relation.

    phi must not touch y, must scale x by the unit lam, and must carry the
    tail r + x*F into the ideal (r + x*F, x^2).  The decomposition
    phi(tail) = tail*f + x^2*g is computed in the base ring modulo x^2, where
    f is unique once r is nonzero: with tail = r + x*F0 and
    phi(tail) = A + x*B modulo x^2, f = a + x*b for the exact quotients
    a = A/r and b = (B - F0*a)/r, and g = (phi(tail) - tail*f)/x^2.  The
    returned map satisfies map(relation) == f*relation.
    """
    table = rel.table
    lam = lam.transport(table)
    if not lam.is_unit_monomial():
        raise ExtensionError("x-scaling factor must be a nonzero unit")
    x = table.var("x")
    y = table.var("y")
    phi_images = {v: im.transport(table) for v, im in phi.images.items()}
    if "y" in phi_images:
        img_y = phi_images.pop("y")
        if img_y != y:
            raise ExtensionError("base map must not move y")
    for im in phi_images.values():
        if im.degree_in("y") > 0:
            raise ExtensionError("base map images must not involve y")
    if phi_images.get("x", x) != lam * x:
        raise ExtensionError("base map must scale x by the given unit")

    tail = rel.tail
    ix = table.index("x")
    r, F0 = _x_coefficients(tail, ix)
    if r.is_zero():
        raise ExtensionError(
            "relation tail has no x-free part r; the factor is not unique modulo x^2")
    moved = tail.substitute(phi_images)
    A, B = _x_coefficients(moved, ix)

    def divide(f: Polynomial, g: Polynomial) -> Polynomial:
        q = exact_divide(f, g)
        if q is None:
            raise ExtensionError(
                "map does not preserve the ideal (tail, x^2); not in the structure group")
        return q

    a = divide(A, r)
    f0 = a + x * divide(B - F0 * a, r)
    defect = divide(moved - tail * f0, x ** 2)
    lam_inv2 = lam.unit_inverse() ** 2
    images = dict(phi_images)
    images["y"] = (y * f0 - defect) * lam_inv2
    extended = RingMap(table, images)
    if extended.apply(rel.relation) != f0 * rel.relation:
        raise PostconditionError("extension postcondition violated")
    return Extension(extended, f0, defect)
