"""Ring endomorphisms as first-class values.

A RingMap stores one image polynomial per non-parameter variable (parameters
are symbolic constants and always map to themselves).  Composition, inverse
pair verification modulo ideals, Jacobians, exact division, quotient-ring
normal forms and the automorphism-extension construction all live here.
Exact division is a remainder of poly.reduce; normal_form splits off x^2*y.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .errors import ExtensionError, KrError, PostconditionError, Record
from .groebner import member
from .poly import Polynomial, VarTable, clear_laurent, linear_combination, reduce


class RingMap(Record):
    """Endomorphism of a polynomial ring given by per-variable images."""

    __slots__ = ("table", "images", "_applied")

    def __init__(self, table: VarTable, images: Mapping[str, Polynomial]):
        imgs: dict[str, Polynomial] = {}
        for v in table.non_params():
            im = table.coerce(images[v]) if v in images else table.var(v)
            if table.is_laurent(v) and not im.is_unit_monomial():
                # a Laurent variable must stay invertible under the map
                raise KrError(f"image of Laurent variable {v!r} must be a unit monomial")
            imgs[v] = im
        for v in images:
            if table.is_param(v):
                raise KrError(f"parameters cannot be remapped (got image for {v!r})")
            table.index(v)
        super().__init__(table, imgs, {})

    def apply(self, f: Polynomial) -> Polynomial:
        """The image of f, which goes through the map's VarTable.coerce: a
        polynomial over another table raises TableMismatchError.

        Each image is computed once: the map remembers it, keyed by f, for as
        long as the map lives.  Polynomials are immutable, so a remembered
        image cannot be told from a fresh one.
        """
        f = self.table.coerce(f)
        image = self._applied.get(f)
        if image is None:
            image = self._applied[f] = f.substitute(self.images)
        return image

    __call__ = apply

    def image_of(self, name: str) -> Polynomial:
        if self.table.is_param(name):
            return self.table.var(name)
        return self.images[name]

    def __repr__(self):
        moved = {v: str(im) for v, im in self.images.items()
                 if im != self.table.var(v)}
        return f"RingMap({moved})"


def compose(outer: RingMap, inner: RingMap) -> RingMap:
    """The map f -> outer(inner(f)); apply(compose(a, b), f) == a(b(f))."""
    images = {v: outer.apply(inner.images[v]) for v in inner.table.non_params()}
    return RingMap(outer.table, images)


def _fixes_mod(m: RingMap, ideal: list[Polynomial]) -> bool:
    for v in m.table.non_params():
        diff = m.images[v] - m.table.var(v)
        if not diff.is_zero() and not member(diff, ideal):
            return False
    return True


def verify_inverse_pair(m: RingMap, inv: RingMap, mod_first: Sequence[Polynomial] = (),
                        mod_second: Sequence[Polynomial] = ()) -> bool:
    """True iff m and inv are inverse to each other modulo the given ideals.

    compose(m, inv) must fix every variable modulo mod_first, and
    compose(inv, m) modulo mod_second; empty ideals demand exact identity.
    A generator over another table raises TableMismatchError, whether or not
    the pair needs it.
    """
    mod_first = [m.table.coerce(g) for g in mod_first]
    mod_second = [m.table.coerce(g) for g in mod_second]
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
    # the entries times their signed minors, summed over one denominator
    return linear_combination(table.zero(), (
        (entry, determinant([[row[k] for k in range(n) if k != j] for row in matrix[1:]], table),
         (-1) ** j) for j, entry in enumerate(matrix[0]) if entry))


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
    fs, fshift = clear_laurent(f)
    gs, gshift = clear_laurent(g)
    rem, (quot,) = reduce(fs, [gs])
    if rem:
        return None
    # reassemble: f = (quot * monomial(fshift - gshift)) * g
    shift = tuple(a - b for a, b in zip(fshift, gshift))
    if any(shift):
        quot = quot * f.table.monomial(shift)
    if quot * g != f:
        raise PostconditionError("exact quotient times divisor differs from dividend")
    return quot


class QuotientRelation(Record):
    """A relation of the shape x^2*y + tail, the tail r(z, t) + x*F(x, z, t).

    The coefficient of x^2*y must be 1, no other term may involve y, and
    neither x nor y may be Laurent.  Then each element of the quotient ring
    has one representative with no term divisible by x^2*y, the head (normal_form).
    """

    __slots__ = ("table", "relation", "tail", "head")

    def __init__(self, relation: Polynomial):
        table = relation.table
        if table.is_laurent("x") or table.is_laurent("y"):
            # then distinct remainders can be congruent: under the cubic,
            # x*y and -x^-1*(z^2 + x + t^3) differ by x^-1 times the relation
            raise KrError("x and y must not be Laurent in a quotient relation")
        head = tuple(2 if v == "x" else 1 if v == "y" else 0 for v in table.names)
        if relation.coeff(head) != 1:
            raise KrError("relation must have x^2*y with coefficient 1")
        tail = relation - table.monomial(head)  # r + x*F
        if tail.degree_in("y") > 0:
            raise KrError("relation tail must not involve y")
        super().__init__(table, relation, tail, head)

    def __repr__(self):
        return f"QuotientRelation({self.relation})"


def normal_form(f: Polynomial, rel: QuotientRelation) -> Polynomial:
    """Unique representative of f modulo the relation: no term divisible by x^2*y.

    Each round splits f as x^2*y*g + kept in one pass over its terms and
    substitutes x^2*y = -tail, f = kept - tail*g, until g is zero.  The tail
    is free of y, so each round lowers the top y-degree of the terms that
    x^2*y divides, and at most deg_y(f) rounds run.  As x and y are not
    Laurent, the result is unique, Laurent t and tail included.
    """
    f = rel.table.coerce(f)
    while True:
        g, kept = f.monomial_divmod(rel.head)
        if not g:
            return kept
        f = linear_combination(kept, [(rel.tail, g, -1)])


class Extension(Record):
    """Result of extending a base automorphism to the quotient ring.

    map     -- the extended endomorphism (y gets (y*factor - defect)/lam^2)
    factor  -- the unit-like multiplier with map(relation) == factor*relation
    defect  -- g in phi(tail) == tail*factor + x^2*g, the factor being of x-degree <= 1
    """

    __slots__ = ("map", "factor", "defect")


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

    phi and lam may be over the base ring, such as vars(x, z, t): this lift
    transports them to the relation's table by variable name, on purpose.
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
    r, F0 = tail.coefficient_in("x", 0), tail.coefficient_in("x", 1)
    if r.is_zero():
        raise ExtensionError(
            "relation tail has no x-free part r; the factor is not unique modulo x^2")
    moved = tail.substitute(phi_images)
    A, B = moved.coefficient_in("x", 0), moved.coefficient_in("x", 1)

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
