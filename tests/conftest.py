"""Shared helpers: canonical rings, random generators, brute-force oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from krcubic.claims import elaborate
from krcubic.coeff import Eisenstein
from krcubic.parser import parse_unit
from krcubic.poly import Polynomial, VarTable

# The claim manifests that ship inside the package; each has a
# *_negative.krv sibling with one corrupted claim.
SHIPPED_MANIFESTS = (
    "embeddings.krv",
    "autgroup.krv",
    "fibers.krv",
    "stable.krv",
    "cylinder.krv",
)


@pytest.fixture
def ring4():
    """The ambient four-space ring in x, y, z, t."""
    return VarTable(["x", "y", "z", "t"])


@pytest.fixture
def ring3():
    """The base ring in x, z, t."""
    return VarTable(["x", "z", "t"])


@pytest.fixture
def cylinder_ring():
    """x, y, z, t, v with t inverted."""
    return VarTable(["x", "y", "z", "t", "v"], laurent=["t"])


def cubic_poly(table: VarTable) -> Polynomial:
    x, y, z, t = (table.var(n) for n in ("x", "y", "z", "t"))
    return x ** 2 * y + z ** 2 + x + t ** 3


def companion_poly(table: VarTable) -> Polynomial:
    x, y, z, t = (table.var(n) for n in ("x", "y", "z", "t"))
    return x ** 2 * y + (1 + x) * (z ** 2 + x + t ** 3)


def grevlex_key(exps: tuple[int, ...]):
    """The reference grevlex key on exponent tuples, a flat tuple of ints:
    max() under it is the grevlex-largest monomial.  The kernel orders
    packed monomial keys instead; the tests check the two orders agree."""
    return (sum(exps), *[-e for e in exps[::-1]])


def assert_lowest_terms(p: Polynomial):
    """p's stored form is the canonical one: a positive denominator sharing
    no factor with every part, no zero pair, den 1 for zero, and the public
    constructor, fed p's own coefficients, builds an equal value."""
    assert type(p.den) is int and p.den > 0
    assert all(type(x) is int for pair in p.terms.values() for x in pair)
    assert all(any(pair) for pair in p.terms.values())
    assert gcd(p.den, *[x for pair in p.terms.values() for x in pair]) == 1
    assert p or p.den == 1
    again = Polynomial(p.table, dict(p.items()))
    assert (again.den, again.terms) == (p.den, p.terms)
    assert again == p and hash(again) == hash(p)


def parse_value(text: str, table: VarTable) -> Polynomial:
    """The value of text read as the one let of a unit whose ring equals table."""
    sections = [", ".join(table.names)]
    laurent = [v for v, flag in zip(table.names, table.laurent) if flag]
    if laurent:
        sections.append("laurent " + ", ".join(laurent))
    if table.params():
        sections.append("param " + ", ".join(table.params()))
    unit = parse_unit(f"ring R = vars({' ; '.join(sections)});\nlet value_ = {text};")
    return elaborate(unit)["value_"]


def random_rational(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def random_coeff(rng: random.Random, omega_rate: float = 0.4) -> Eisenstein:
    om = random_rational(rng) if rng.random() < omega_rate else Fraction(0)
    return Eisenstein(random_rational(rng), om)


def nonzero_coeff(rng: random.Random) -> Eisenstein:
    while True:
        c = random_coeff(rng)
        if c:
            return c


def random_poly(rng: random.Random, table: VarTable, max_terms: int = 4,
                max_deg: int = 3, allow_negative: bool = True) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = []
        for lau in table.laurent:
            lo = -max_deg if (lau and allow_negative) else 0
            exps.append(rng.randint(lo, max_deg))
        terms[tuple(exps)] = random_coeff(rng)
    return Polynomial(table, terms)


def random_nonzero_poly(rng, table, **kw) -> Polynomial:
    while True:
        p = random_poly(rng, table, **kw)
        if not p.is_zero():
            return p


def random_table(rng: random.Random) -> VarTable:
    pool = ["x", "y", "z", "t", "u", "v", "a", "b", "c0", "s"]
    n = rng.randint(1, 4)
    names = rng.sample(pool, n)
    laurent = [v for v in names if rng.random() < 0.3]
    params = [v for v in names if v not in laurent and rng.random() < 0.2]
    return VarTable(names, laurent=laurent, params=params)


# ---------------------------------------------------------------------------
# brute-force ideal membership: solve for cofactors by sparse elimination

def _monomials_up_to(arity: int, degree: int):
    if arity == 0:
        yield ()
        return
    for head in range(degree + 1):
        for rest in _monomials_up_to(arity - 1, degree - head):
            yield (head,) + rest


def _total_degree(p: Polynomial) -> int:
    """Max plain exponent sum; -1 for the zero polynomial."""
    return max((sum(e) for e, _ in p.items()), default=-1)


def member_oracle(f: Polynomial, gens: list[Polynomial]) -> bool:
    """Decide membership by solving for cofactors of bounded degree.

    Bound: deg(f) + max deg(gens) + 2.  Independent of the Groebner route:
    membership becomes an exact linear system over Q(w), solved by sparse
    elimination on the column space.
    """
    if f.is_zero():
        return True
    table = f.table
    bound = _total_degree(f) + max(_total_degree(g) for g in gens) + 2
    columns = []
    for g in gens:
        room = bound - _total_degree(g)
        if room < 0:
            continue
        for mono in _monomials_up_to(table.arity, room):
            col = {}
            for ge, gc in g.items():
                key = tuple(a + b for a, b in zip(mono, ge))
                got = col.get(key)
                col[key] = gc if got is None else got + gc
            columns.append({k: c for k, c in col.items() if c})

    basis: dict[tuple, dict] = {}

    def eliminate(vec: dict):
        vec = dict(vec)
        while vec:
            pivot = max(vec)
            hit = basis.get(pivot)
            if hit is None:
                return vec, pivot
            scale = vec[pivot]
            for k, bc in hit.items():
                got = vec.get(k)
                got = -scale * bc if got is None else got - scale * bc
                if got:
                    vec[k] = got
                else:
                    vec.pop(k, None)
        return vec, None

    for col in columns:
        vec, pivot = eliminate(col)
        if pivot is not None:
            inv = vec[pivot].inverse()
            basis[pivot] = {k: c * inv for k, c in vec.items()}
    _, pivot = eliminate(dict(f.items()))
    return pivot is None
