"""Buchberger's algorithm, Groebner bases and ideal membership.

Everything runs over Q(w) with exact arithmetic, over one table per call
(VarTable.coerce checks each generator), under grevlex, the one monomial
order.  Division itself is poly.reduce, bound here as groebner.reduce too.
Inputs must carry no negative exponents: Laurent callers divide out Laurent
content first with poly.clear_laurent (member() does this for the tested
polynomial and for each generator, which does not change the ideal in the
Laurent ring, and saturates an ideal of several generators by the Laurent
variables).

Buchberger's algorithm skips the pairs that two criteria prove useless: the
coprime-leading-monomial criterion and the chain criterion (Buchberger 1979;
Gebauer & Moeller 1988).  member() and smooth_everywhere() compute each
grevlex basis once per ideal: the memo is the caller's VarTable (its _bases
dict), so it lives as long as the unit whose ring declared the table.
"""

from __future__ import annotations

import heapq
from operator import le, sub

from .errors import GroebnerBudgetError, KrError, LaurentInputError, Record
from .geometry import _center
from .poly import Polynomial, VarTable, clear_laurent, linear_combination, reduce


def _divides(m: tuple[int, ...], n: tuple[int, ...]) -> bool:
    return all(map(le, m, n))


class GroebnerBasis(Record):
    """Reduced monic Groebner basis; membership = zero remainder on reduce."""

    __slots__ = ("generators",)  # a tuple of Polynomial

    def contains(self, f: Polynomial) -> bool:
        if f.is_zero():
            return True
        rem, _ = reduce(f, list(self.generators))
        return rem.is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_constant() \
            and not self.generators[0].is_zero()


def _spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial of two monic polynomials: no coefficient is inverted,
    each multiplier, a monomial with coefficient one, only shifts the keys of
    its polynomial, and the difference is put in lowest terms once."""
    fm = f.leading_monomial()
    gm = g.leading_monomial()
    lcm = tuple(map(max, fm, gm))
    table = f.table
    return linear_combination(table.zero(), [(table.monomial(map(sub, lcm, fm)), f, 1),
                                             (table.monomial(map(sub, lcm, gm)), g, -1)])


MAX_PAIRS = 50_000  # Buchberger's pair budget


def buchberger(gens: list[Polynomial]) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of the ideal generated by gens.

    A pair is skipped when its leading monomials are coprime, or by the chain
    criterion: some third generator's leading monomial divides the pair's lcm
    and both of its pairs with the two have been taken already (Cox, Little
    & O'Shea, Ideals, Varieties, and Algorithms, ch. 2).  Raises
    GroebnerBudgetError once more than MAX_PAIRS pairs have been taken,
    skipped ones included.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise KrError("cannot take a Groebner basis of the zero ideal")
    basis = []
    for g in map(gens[0].table.coerce, gens):
        if any(e < 0 for e in clear_laurent(g)[1]):
            raise LaurentInputError("generator carries negative exponents; "
                                    "clear Laurent denominators first")
        basis.append(g.monic())
    lms = [g.leading_monomial() for g in basis]
    rank = basis[0].table.grevlex

    heap: list = []
    counter = 0

    def push_pairs(j):
        nonlocal counter
        for i in range(j):
            lcm = tuple(map(max, lms[i], lms[j]))
            heapq.heappush(heap, (rank(lcm), counter, i, j, lcm))
            counter += 1

    for j in range(len(basis)):
        push_pairs(j)

    done = set()  # pairs already taken, in both orders
    processed = 0
    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        processed += 1
        if processed > MAX_PAIRS:
            raise GroebnerBudgetError(f"pair budget {MAX_PAIRS} exhausted")
        done |= {(i, j), (j, i)}
        if all(a == 0 or b == 0 for a, b in zip(lms[i], lms[j])):
            continue  # coprime leading monomials: S-polynomial reduces to zero
        # done holds no (k, k), so k is neither i nor j
        if any((i, k) in done and (j, k) in done and _divides(mk, lcm)
               for k, mk in enumerate(lms)):
            continue  # chain criterion: S(i, j) has a representation via k
        s = _spoly(basis[i], basis[j])
        if s.is_zero():
            continue
        rem, _ = reduce(s, basis)
        if not rem.is_zero():
            basis.append(rem.monic())
            lms.append(basis[-1].leading_monomial())
            push_pairs(len(basis) - 1)

    # minimalize: drop generators whose leading monomial another one divides
    minimal = [i for i, gm in enumerate(lms)
               if not any(j != i and _divides(hm, gm) and (hm != gm or j < i)
                          for j, hm in enumerate(lms))]

    # Fully reduce each survivor against the others.  No other leading
    # monomial divides its own, so that term is kept as it is: the remainder
    # is monic, nonzero, and has the same leading monomial.
    reduced = {}  # by leading monomial, which no two survivors share
    for i in minimal:
        others = [basis[j] for j in minimal if j != i]
        reduced[rank(lms[i])] = reduce(basis[i], others)[0] if others else basis[i]
    return GroebnerBasis(tuple(reduced[k] for k in sorted(reduced)))


def _basis(table: VarTable, gens: list[Polynomial]) -> GroebnerBasis:
    """buchberger(gens), memoised in table's _bases under the generators as
    given; an error is raised again on every call."""
    key = tuple(gens)
    basis = table._bases.get(key)
    if basis is None:
        basis = table._bases[key] = buchberger(gens)
    return basis


def member(f: Polynomial, gens: list[Polynomial]) -> bool:
    """Ideal membership via a Groebner basis, exact in the Laurent ring.

    The Laurent content of f and of each generator is divided out first (see
    clear_laurent), which settles a principal ideal.  With several
    generators a member may still need a cofactor with a negative power, as
    t = (t + x) - x does in (t + x, x); the ideal is then saturated by the
    Laurent variables: each Laurent variable t gets a new variable s, named
    "<t>^-1" (no token can spell it), and the generator t*s - 1, in a
    polynomial ring where the parameters stay parameters; f and the
    generators are transported there on purpose.
    """
    table = f.table
    cleared = [clear_laurent(g)[0] for g in map(table.coerce, gens) if not g.is_zero()]
    if not cleared:
        return f.is_zero()
    f = clear_laurent(f)[0]
    if len(cleared) > 1 and any(table.laurent):
        laurent = [v for v, lau in zip(table.names, table.laurent) if lau]
        wide = VarTable(table.names + tuple(f"<{v}>^-1" for v in laurent),
                        params=table.params())
        cleared = [g.transport(wide) for g in cleared]
        cleared += [wide.var(v) * wide.var(f"<{v}>^-1") - 1 for v in laurent]
        f = f.transport(wide)
    # a basis over wide is kept in table too: the next wide table is equal to
    # this one, so the same ideal finds it
    return _basis(table, cleared).contains(f)


def smooth_everywhere(f: Polynomial) -> bool:
    """Jacobian criterion: V(f) is smooth iff 1 lies in (f, all partials)."""
    gens = [f] + [f.diff(v) for v in f.table.non_params()]
    return _basis(f.table, [g for g in gens if not g.is_zero()]).is_unit_ideal()


def singular_at(f: Polynomial, point: dict[str, Polynomial]) -> bool:
    """True iff f and all its partials vanish at the point.

    Point coordinates are checked as for tangent_cone (geometry._center);
    vanishing means vanishing identically as polynomials in the parameters,
    so a parametric point encodes singularity along a whole family.
    """
    center = _center(f.table, point)
    for g in [f] + [f.diff(v) for v in f.table.non_params()]:
        if not g.substitute(center).is_zero():
            return False
    return True
