"""Multivariate division, Buchberger's algorithm and ideal membership.

Everything runs over Q(w) with exact arithmetic.  Inputs must carry no
negative exponents: Laurent callers divide out Laurent content first with
clear_laurent() (member() does this for the tested polynomial and for each
generator, which does not change the ideal in the Laurent ring, and
saturates an ideal of several generators by the Laurent variables).

The default order is graded reverse lexicographic; lex is available for
elimination experiments.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from operator import add, le, sub

from .errors import (GroebnerBudgetError, KrError, LaurentInputError,
                     PostconditionError)
from .poly import Polynomial, VarTable, _polynomial, grevlex_key, lex_key


class MonomialOrder:
    """A named monomial order.  key maps an exponent tuple to a flat tuple of
    ints; a larger key is a larger monomial."""

    __slots__ = ("kind", "key")

    def __init__(self, kind: str, key: Callable[[tuple[int, ...]], tuple[int, ...]]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "key", key)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialOrder is immutable")


GREVLEX = MonomialOrder("grevlex", grevlex_key)
LEX = MonomialOrder("lex", lex_key)


def _require_polynomial(f: Polynomial, what: str):
    # only a Laurent variable can carry a negative exponent
    if any(f.table.laurent) and min(map(min, f.terms), default=0) < 0:
        raise LaurentInputError(
            f"{what} carries negative exponents; clear Laurent denominators first")


def _divides(m: tuple[int, ...], n: tuple[int, ...]) -> bool:
    return all(map(le, m, n))


def _mono_quot(table: VarTable, n, m, coeff) -> Polynomial:
    return Polynomial(table, {tuple(a - b for a, b in zip(n, m)): coeff})


def reduce(f: Polynomial, gens: list[Polynomial],
           order: MonomialOrder = GREVLEX) -> tuple[Polynomial, list[Polynomial]]:
    """Division with remainder: f = sum(cofactor_i * gens_i) + remainder.

    No remainder monomial is divisible by any generator's leading monomial.
    The representation identity is checked on every call; PostconditionError
    reports a violation.
    """
    _require_polynomial(f, "dividend")
    table = f.table
    lead = []
    tails = []
    for g in gens:
        if g.table != table:
            raise KrError("divisor over a different table")
        if g.is_zero():
            raise ZeroDivisionError("zero divisor in reduce()")
        _require_polynomial(g, "divisor")
        gm, gc = g.leading_term(order.key)
        lead.append((gm, gc.inverse()))
        tails.append([(e, c) for e, c in g.terms.items() if e != gm])

    # Max-heap of the working dividend's monomials, as a min-heap on the
    # negated order key.  A monomial that cancels keeps its entry (lazy
    # deletion), so a popped monomial missing from work is skipped.  Each
    # step takes the largest monomial of work and only adds smaller ones, so
    # no monomial comes back once it has been taken.
    key = order.key

    def entry(exps):
        return [-k for k in key(exps)], exps

    work = dict(f.terms)
    heap = [entry(e) for e in work]
    heapq.heapify(heap)
    cof_terms: list[dict] = [{} for _ in gens]
    rem_terms: dict = {}
    while heap:
        lt_exps = heapq.heappop(heap)[1]
        lt_c = work.pop(lt_exps, None)
        if lt_c is None:
            continue
        for i, (gm, gc_inv) in enumerate(lead):
            if _divides(gm, lt_exps):
                q_exps = tuple(map(sub, lt_exps, gm))
                q_c = lt_c * gc_inv
                cof_terms[i][q_exps] = q_c
                neg_q = -q_c
                for ge, gcoef in tails[i]:
                    e = tuple(map(add, q_exps, ge))
                    c = neg_q * gcoef
                    got = work.get(e)
                    if got is None:
                        work[e] = c
                        heapq.heappush(heap, entry(e))
                    else:
                        got = got + c
                        if got:
                            work[e] = got
                        else:
                            del work[e]
                break
        else:
            rem_terms[lt_exps] = lt_c
    rem = _polynomial(table, rem_terms)
    cofs = [_polynomial(table, t) for t in cof_terms]
    recombined = rem
    for c, g in zip(cofs, gens):
        recombined = recombined + c * g
    if recombined != f:
        raise PostconditionError("division identity violated")
    return rem, cofs


class GroebnerBasis:
    """Reduced monic Groebner basis; membership = zero remainder on reduce."""

    __slots__ = ("generators", "order")

    def __init__(self, generators: tuple[Polynomial, ...], order: MonomialOrder):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("GroebnerBasis is immutable")

    def contains(self, f: Polynomial) -> bool:
        if f.is_zero():
            return True
        rem, _ = reduce(f, list(self.generators), self.order)
        return rem.is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_constant() \
            and not self.generators[0].is_zero()


def _spoly(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    fm, fc = f.leading_term(order.key)
    gm, gc = g.leading_term(order.key)
    lcm = tuple(max(a, b) for a, b in zip(fm, gm))
    uf = _mono_quot(f.table, lcm, fm, fc.inverse())
    ug = _mono_quot(g.table, lcm, gm, gc.inverse())
    return uf * f - ug * g


def buchberger(gens: list[Polynomial], order: MonomialOrder = GREVLEX,
               max_pairs: int = 50_000) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Uses the coprime-leading-monomial criterion; the instances this library
    meets are tiny, so nothing fancier is warranted.  Raises
    GroebnerBudgetError if the pair budget is exhausted.
    """
    basis = []
    table = None
    for g in gens:
        if g.is_zero():
            continue
        _require_polynomial(g, "generator")
        if table is None:
            table = g.table
        elif g.table != table:
            raise KrError("generators over different tables")
        basis.append(g.monic(order.key))
    if not basis:
        raise KrError("cannot take a Groebner basis of the zero ideal")

    def lm(i):
        return basis[i].leading_term(order.key)[0]

    heap: list = []
    counter = 0

    def push_pairs(j):
        nonlocal counter
        for i in range(j):
            lcm = tuple(max(a, b) for a, b in zip(lm(i), lm(j)))
            heapq.heappush(heap, (order.key(lcm), counter, i, j))
            counter += 1

    for j in range(len(basis)):
        push_pairs(j)

    processed = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        processed += 1
        if processed > max_pairs:
            raise GroebnerBudgetError(f"pair budget {max_pairs} exhausted")
        mi, mj = lm(i), lm(j)
        if all(a == 0 or b == 0 for a, b in zip(mi, mj)):
            continue  # coprime leading monomials: S-polynomial reduces to zero
        s = _spoly(basis[i], basis[j], order)
        if s.is_zero():
            continue
        rem, _ = reduce(s, basis, order)
        if not rem.is_zero():
            basis.append(rem.monic(order.key))
            push_pairs(len(basis) - 1)

    # minimalize: drop generators whose leading monomial another one divides
    minimal = []
    for i, g in enumerate(basis):
        gm = g.leading_term(order.key)[0]
        keep = True
        for j, h in enumerate(basis):
            if i == j:
                continue
            hm = h.leading_term(order.key)[0]
            if _divides(hm, gm) and (hm != gm or j < i):
                keep = False
                break
        if keep:
            minimal.append(g)

    # fully reduce each survivor against the others
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        if others:
            rem, _ = reduce(g, others, order)
            g = rem.monic(order.key)
        if not g.is_zero():
            reduced.append(g)
    reduced.sort(key=lambda p: order.key(p.leading_term(order.key)[0]))
    return GroebnerBasis(tuple(reduced), order)


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


def member(f: Polynomial, gens: list[Polynomial]) -> bool:
    """Ideal membership via a Groebner basis, exact in the Laurent ring.

    The Laurent content of f and of each generator is divided out first (see
    clear_laurent), which settles a principal ideal.  With several
    generators a member may still need a cofactor with a negative power, as
    t = (t + x) - x does in (t + x, x); the ideal is then saturated by the
    Laurent variables: each Laurent variable t gets a new variable s, named
    "<t>^-1" (no token can spell it), and the generator t*s - 1, in a
    polynomial ring where the parameters stay parameters.
    """
    cleared = [clear_laurent(g)[0] for g in gens if not g.is_zero()]
    if not cleared:
        return f.is_zero()
    f = clear_laurent(f)[0]
    table = f.table
    if len(cleared) > 1 and any(table.laurent):
        if any(g.table != table for g in cleared):
            raise KrError("generator over a different table")
        laurent = [v for v, lau in zip(table.names, table.laurent) if lau]
        wide = VarTable(table.names + tuple(f"<{v}>^-1" for v in laurent),
                        params=table.params())
        cleared = [g.transport(wide) for g in cleared]
        cleared += [wide.var(v) * wide.var(f"<{v}>^-1") - 1 for v in laurent]
        f = f.transport(wide)
    return buchberger(cleared).contains(f)


def smooth_everywhere(f: Polynomial) -> bool:
    """Jacobian criterion: V(f) is smooth iff 1 lies in (f, all partials)."""
    gens = [f] + [f.diff(v) for v in f.table.non_params()]
    basis = buchberger([g for g in gens if not g.is_zero()])
    return basis.is_unit_ideal()


def singular_at(f: Polynomial, point: dict[str, Polynomial]) -> bool:
    """True iff f and all its partials vanish at the point.

    Point coordinates may be constants or parameter expressions; vanishing
    means vanishing identically as polynomials in the parameters, so a
    parametric point encodes singularity along a whole family.
    """
    for v in f.table.non_params():
        if v not in point:
            raise KrError(f"point does not assign variable {v!r}")
    for g in [f] + [f.diff(v) for v in f.table.non_params()]:
        if not g.substitute(point).is_zero():
            return False
    return True
