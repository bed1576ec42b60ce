"""Derivations by generator images: nilpotency, conjugation, descent.

A Derivation maps each variable to its image polynomial (unlisted variables
and all parameters go to zero) and extends by the Leibniz rule, the sum of
image_v * df/dv in one pass (poly.linear_combination).  A quotient relation
makes it a derivation of the quotient ring: images and all iterates are then
kept in normal form (morphism.normal_form: no term divisible by x^2*y), so
nilpotency means literal vanishing of the normal form.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import (DerivationError, KrError, PostconditionError, Record,
                     UnverifiedPairError)
from .groebner import member
from .morphism import (QuotientRelation, RingMap, exact_divide, normal_form,
                       verify_inverse_pair)
from .poly import EXPONENT_LIMIT, Polynomial, VarTable, linear_combination, reduce


class Derivation(Record):
    """Derivation of a polynomial ring, optionally modulo a quotient relation."""

    __slots__ = ("table", "images", "relation")

    def __init__(self, table: VarTable, images: Mapping[str, Polynomial],
                 relation: QuotientRelation | None = None):
        imgs: dict[str, Polynomial] = {}
        for v, im in images.items():
            if table.is_param(v):
                raise DerivationError("a derivation kills parameters; no image allowed")
            table.index(v)
            im = table.coerce(im)
            if relation is not None:
                im = normal_form(im, relation)
            if im:
                imgs[v] = im
        super().__init__(table, imgs, relation)  # the descent check reads self.images
        if relation is not None:
            # descent condition: the derivation must preserve the ideal
            raw = self._derive_raw(table.coerce(relation.relation))
            if not raw.is_zero() and exact_divide(raw, relation.relation) is None:
                raise DerivationError(
                    "derivation does not descend: image of the relation is not a multiple")

    def _derive_raw(self, f: Polynomial) -> Polynomial:
        return linear_combination(self.table.zero(), ((im, df, 1) for v, im in self.images.items()
                                                      if (df := f.diff(v))))

    def apply(self, f: Polynomial) -> Polynomial:
        # f need not be in normal form: the derivation preserves the ideal
        # (checked at construction), so D(f) and D(nf(f)) share a normal form
        out = self._derive_raw(self.table.coerce(f))
        if self.relation is not None:
            out = normal_form(out, self.relation)
        return out

    __call__ = apply

    def modulo(self, relation: QuotientRelation) -> "Derivation":
        return Derivation(self.table, self.images, relation)

    def __repr__(self):
        body = ", ".join(f"{v} -> {im}" for v, im in sorted(self.images.items()))
        tail = f" mod {self.relation.relation}" if self.relation else ""
        return f"Derivation({body}{tail})"


class NilpotencyCertificate(Record):
    """Per-generator order: smallest k with the k-th iterate vanishing.

    failed_generator names the generator that exceeded the bound, or is None
    when the certificate is complete."""

    __slots__ = ("orders", "complete", "failed_generator")


def nilpotency_certificate(d: Derivation, bound: int = 64) -> NilpotencyCertificate:
    """Iterate the derivation on every variable until zero or the bound.

    Exceeding the bound is an explicit outcome naming the offending
    generator, not an exception.  The bound is at most EXPONENT_LIMIT.
    """
    if not 1 <= bound <= EXPONENT_LIMIT:
        raise DerivationError(f"bound must be between 1 and {EXPONENT_LIMIT}")
    orders: dict[str, int] = {}
    for v in d.table.names:  # a parameter's first iterate is zero
        g = d.table.var(v)
        k = 0
        while k < bound:
            g = d.apply(g)
            k += 1
            if g.is_zero():
                orders[v] = k
                break
        else:
            return NilpotencyCertificate(orders, False, v)
    return NilpotencyCertificate(orders, True, None)


def conjugate(d: Derivation, fwd: RingMap, bwd: RingMap,
              mod_first=(), mod_second=()) -> Derivation:
    """Transport a derivation along a verified inverse pair: v -> fwd(d(bwd(v))).

    fwd and bwd must compose to the identity modulo the declared ideals (see
    verify_inverse_pair); the result is a derivation of the target ring.
    """
    if not verify_inverse_pair(fwd, bwd, mod_first, mod_second):
        raise UnverifiedPairError("maps are not a verified inverse pair")
    table = fwd.table
    images = {}
    for v in table.non_params():
        images[v] = fwd.apply(d.apply(bwd.image_of(v)))
    return Derivation(table, images)


def theta_extract(phi: RingMap, r: Polynomial) -> Polynomial:
    """Extract the Hamiltonian-generator invariant of a fiberwise automorphism.

    For phi fixing x with phi == id mod (x) and phi(r) in (x^2, r), write
    phi(z) = z + x*f, phi(t) = t + x*g mod (x^2).  The Jacobian-1 condition
    forces f_z + g_t = 0, so f dt - g dz integrates to h with h_t = f and
    h_z = -g; h is constant along V(r), and after dropping that constant
    h = r*alpha.  Returns alpha; the defining congruences
    phi(z) == z + x*(r*alpha)_t and phi(t) == t - x*(r*alpha)_z mod (x^2)
    are re-checked before returning.
    """
    table = phi.table
    x = table.var("x")
    if phi.image_of("x") != x:
        raise DerivationError("map must fix x")

    def slope(v: str) -> Polynomial:
        moved = phi.image_of(v) - table.var(v)
        if moved.coefficient_in("x", 0):
            raise DerivationError(f"map is not the identity modulo (x) at {v!r}")
        return moved.coefficient_in("x", 1)

    f = slope("z")
    g = slope("t")
    if f.diff("z") + g.diff("t") != table.zero():
        raise DerivationError("Jacobian condition f_z + g_t = 0 fails; not an automorphism mod x^2")
    if not member(phi.apply(r), [x ** 2, r]):
        raise DerivationError("map does not carry r into (x^2, r)")

    h1 = f.antiderivative("t")
    kprime = -g - h1.diff("z")
    if kprime.degree_in("t") > 0:
        raise DerivationError("integration failure: mixed term not t-free")
    h = h1 + kprime.antiderivative("z")

    rem, cofs = reduce(h, [r])
    if not rem.is_constant():
        raise DerivationError("h is not constant modulo (r): map is outside the group")
    alpha = cofs[0]

    x2 = x ** 2
    lead = r * alpha
    for v, sign in (("z", 1), ("t", -1)):
        target = table.var(v) + sign * x * lead.diff("t" if v == "z" else "z")
        if exact_divide(phi.image_of(v) - target, x2) is None:
            raise PostconditionError("postcondition congruence mod x^2 violated")
    return alpha


def substitute_parameter(m: RingMap, param: str, value: Polynomial) -> RingMap:
    """Replace a parameter by a polynomial in every image of a map.

    The value must not involve the parameter itself.
    """
    table = m.table
    if not table.is_param(param):
        raise KrError(f"{param!r} is not a parameter")
    value = table.coerce(value)
    if value.degree_in(param) > 0:
        raise KrError("substitution value involves the parameter itself")
    images = {v: im.substitute({param: value}) for v, im in m.images.items()}
    return RingMap(table, images)
