"""Multivariate division, Buchberger's algorithm and ideal membership.

Everything runs over Q(w) with exact arithmetic, over one table per call
(VarTable.coerce checks each generator).  Inputs must carry no negative
exponents: Laurent callers divide out Laurent content first with
clear_laurent() (member() does this for the tested polynomial and for each
generator, which does not change the ideal in the Laurent ring, and
saturates an ideal of several generators by the Laurent variables).

The default order is graded reverse lexicographic; a caller may pass any
MonomialOrder (QuotientRelation.order, a lex order with y first, is one).

Buchberger's algorithm skips the pairs that two criteria prove useless: the
coprime-leading-monomial criterion and the chain criterion (Buchberger 1979;
Gebauer & Moeller 1988).  member() and smooth_everywhere() compute each
grevlex basis once per ideal: the memo is the caller's VarTable (its _bases
dict), so it lives as long as the unit whose ring declared the table.
"""

from __future__ import annotations

import heapq
from operator import add, itemgetter, le, sub

from .coeff import ONE, _make
from .errors import (GroebnerBudgetError, KrError, LaurentInputError,
                     PostconditionError, Record)
from .geometry import _center
from .poly import Polynomial, VarTable, _add_into, _polynomial, _product, grevlex_key


class MonomialOrder(Record):
    """A named monomial order.  key maps an exponent tuple to a flat tuple of
    ints; a larger key is a larger monomial."""

    __slots__ = ("kind", "key")


GREVLEX = MonomialOrder("grevlex", grevlex_key)


def _require_polynomial(f: Polynomial, what: str):
    # only a Laurent variable can carry a negative exponent
    if any(f.table.laurent) and min(map(min, f.terms), default=0) < 0:
        raise LaurentInputError(
            f"{what} carries negative exponents; clear Laurent denominators first")


def _divides(m: tuple[int, ...], n: tuple[int, ...]) -> bool:
    return all(map(le, m, n))


def reduce(f: Polynomial, gens: list[Polynomial],
           order: MonomialOrder = GREVLEX) -> tuple[Polynomial, list[Polynomial]]:
    """Division with remainder: f = sum(cofactor_i * gens_i) + remainder.

    No remainder monomial is divisible by any generator's leading monomial.
    The representation identity is checked on every call; PostconditionError
    reports a violation.
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
        gm, gc = g.leading_term(order.key)
        lead.append((gm, None if gc == ONE else gc.inverse()))
        # the tail, negated: each step adds q times it into the dividend
        tails.append([(e, -c._a, -c._b, c._d) for e, c in g.terms.items() if e != gm])

    # Max-heap of the working dividend's monomials, as a min-heap of flat
    # tuples (negated order key, exponents).  A monomial that cancels keeps
    # its entry (lazy deletion), so a popped monomial missing from work is
    # skipped.  Each step takes the largest monomial of work and only adds
    # smaller ones, so no monomial comes back once it has been taken.
    key = order.key
    push = heapq.heappush
    work = dict(f.terms)
    heap = [(*[-k for k in key(e)], e) for e in work]
    heapq.heapify(heap)
    cof_terms: list[dict] = [{} for _ in gens]
    rem_terms: dict = {}
    while heap:
        lt_exps = heapq.heappop(heap)[-1]
        lt_c = work.pop(lt_exps, None)
        if lt_c is None:
            continue
        for i, (gm, gc_inv) in enumerate(lead):
            if _divides(gm, lt_exps):
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
                        push(heap, (*[-k for k in key(e)], e))
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


class GroebnerBasis(Record):
    """Reduced monic Groebner basis; membership = zero remainder on reduce."""

    __slots__ = ("generators", "order")  # generators: a tuple of Polynomial

    def contains(self, f: Polynomial) -> bool:
        if f.is_zero():
            return True
        rem, _ = reduce(f, list(self.generators), self.order)
        return rem.is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_constant() \
            and not self.generators[0].is_zero()


def _spoly(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The S-polynomial of two monic polynomials: no coefficient is inverted,
    and each multiplier, a monomial with coefficient one, only shifts."""
    fm = f.leading_term(order.key)[0]
    gm = g.leading_term(order.key)[0]
    lcm = tuple(map(max, fm, gm))
    uf = _polynomial(f.table, {tuple(map(sub, lcm, fm)): ONE})
    ug = _polynomial(g.table, {tuple(map(sub, lcm, gm)): ONE})
    return uf * f - ug * g


MAX_PAIRS = 50_000  # Buchberger's pair budget


def buchberger(gens: list[Polynomial], order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

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
        _require_polynomial(g, "generator")
        basis.append(g.monic(order.key))
    lms = [g.leading_term(order.key)[0] for g in basis]

    heap: list = []
    counter = 0

    def push_pairs(j):
        nonlocal counter
        for i in range(j):
            lcm = tuple(map(max, lms[i], lms[j]))
            heapq.heappush(heap, (order.key(lcm), counter, i, j, lcm))
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
        s = _spoly(basis[i], basis[j], order)
        if s.is_zero():
            continue
        rem, _ = reduce(s, basis, order)
        if not rem.is_zero():
            basis.append(rem.monic(order.key))
            lms.append(basis[-1].leading_term(order.key)[0])
            push_pairs(len(basis) - 1)

    # minimalize: drop generators whose leading monomial another one divides
    minimal = [i for i, gm in enumerate(lms)
               if not any(j != i and _divides(hm, gm) and (hm != gm or j < i)
                          for j, hm in enumerate(lms))]

    # Fully reduce each survivor against the others.  No other leading
    # monomial divides its own, so that term is kept as it is: the remainder
    # is monic, nonzero, and has the same leading monomial.
    reduced = []
    for i in minimal:
        others = [basis[j] for j in minimal if j != i]
        g = reduce(basis[i], others, order)[0] if others else basis[i]
        reduced.append((order.key(lms[i]), g))
    reduced.sort(key=itemgetter(0))
    return GroebnerBasis(tuple(g for _, g in reduced), order)


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
