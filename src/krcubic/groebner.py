"""Buchberger's algorithm, Groebner bases and ideal membership.

Everything runs over Q(w) with exact arithmetic, over one table per call
(VarTable.coerce checks each generator), under grevlex, the one monomial
order.  Division itself is poly.reduce, bound here as groebner.reduce too.
Inputs must carry no negative exponents: Laurent callers divide out Laurent
content first with poly.clear_laurent (member() does this for the tested
polynomial and for each generator, which does not change the ideal in the
Laurent ring, and saturates an ideal of several generators by the Laurent
variables).

Buchberger's algorithm installs its pairs as Gebauer & Moeller do
(J. Symb. Comput. 6, 1988): when an element joins the basis, criteria M and
F, the coprime-leading-monomial criterion and the chain criterion drop the
pairs they prove useless before any is taken, and the elements the newcomer
makes redundant take no part in later reductions.  A remainder that is a
nonzero constant ends the run at the unit ideal.  member() and
smooth_everywhere() compute each grevlex basis once per ideal: the memo is
the caller's VarTable (its _bases dict), so it lives as long as the unit
whose ring declared the table.
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


MAX_PAIRS = 50_000  # Buchberger's pair budget: pairs taken from the queue


def buchberger(gens: list[Polynomial]) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of the ideal generated by gens.

    Pairs are installed as Gebauer & Moeller do (Becker & Weispfenning,
    Groebner Bases, 5.5, procedure UPDATE).  When an element h joins:
    - a new pair (g, h) is dropped when the lcm of another new pair divides
      its lcm (criteria M and F: of equal lcms one is kept, a coprime one if
      any), and then when LM(g) and LM(h) are coprime;
    - a queued pair (i, j) is dropped when LM(h) divides its lcm and that lcm
      differs from lcm(i, h) and from lcm(j, h) (criterion B_k, the chain
      criterion);
    - the elements whose leading monomial LM(h) divides are no longer needed:
      S-polynomials are reduced by the needed elements only, and the pairs
      already queued with them stay.
    When a remainder is a nonzero constant the ideal is the whole ring, and
    (1) is returned at once.  Raises GroebnerBudgetError once more than
    MAX_PAIRS pairs have been taken from the queue; a pair dropped at
    installation is never taken, so it is not counted.
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
    table = basis[0].table
    rank = table.grevlex

    heap: list = []  # (rank of the lcm, j, i, lcm) for the pair i < j: taken in push order
    needed: list[int] = []  # in ascending order, the elements that no later one made redundant

    def update(h):
        hm = lms[h]
        # (lcm, g, coprime) for each new pair (g, h)
        new = [(tuple(map(max, lms[g], hm)), g, not any(map(min, lms[g], hm))) for g in needed]
        kept = []  # criteria M and F: a coprime pair still drops those its lcm divides
        for n, p in enumerate(new):
            if p[2] or not any(_divides(q[0], p[0]) for q in new[n + 1:] + kept):
                kept.append(p)
        if heap:  # criterion B_k
            size = len(heap)
            heap[:] = [p for p in heap if not (_divides(hm, p[3])
                                               and tuple(map(max, lms[p[1]], hm)) != p[3]
                                               and tuple(map(max, lms[p[2]], hm)) != p[3])]
            if len(heap) < size:
                heapq.heapify(heap)
        for lcm, g, coprime in kept:
            if not coprime:
                heapq.heappush(heap, (rank(lcm), h, g, lcm))
        needed[:] = [g for g in needed if not _divides(hm, lms[g])] + [h]

    for h in range(len(basis)):
        update(h)
    taken = 0
    while heap:
        _, j, i, _ = heapq.heappop(heap)
        taken += 1
        if taken > MAX_PAIRS:
            raise GroebnerBudgetError(f"pair budget {MAX_PAIRS} exhausted")
        s = _spoly(basis[i], basis[j])
        if s.is_zero():
            continue
        rem, _ = reduce(s, [basis[k] for k in needed])
        if rem.is_zero():
            continue
        if rem.is_constant():
            return GroebnerBasis((table.one(),))
        basis.append(rem.monic())
        lms.append(basis[-1].leading_monomial())
        update(len(basis) - 1)

    # minimalize: drop the needed elements whose leading monomial another one
    # divides (no two share one: each new element drops its equals)
    minimal = [i for i in needed
               if not any(j != i and _divides(lms[j], lms[i]) for j in needed)]

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
