"""Division, Buchberger, membership and singularity certificates."""

import itertools
import random
from fractions import Fraction

import pytest

from krcubic import groebner, poly
from krcubic.claims import PASS, run_text
from krcubic.errors import (GroebnerBudgetError, LaurentInputError, PostconditionError,
                            TableMismatchError)
from krcubic.groebner import (buchberger, clear_laurent, member, reduce,
                              singular_at, smooth_everywhere)
from krcubic.morphism import exact_divide
from krcubic.poly import VarTable

from conftest import (cubic_poly, companion_poly, member_oracle, nonzero_coeff,
                      random_nonzero_poly, random_poly)


# grevlex ranks the variables in table order: a second table ranks them t > x > z
TABLES = {"grevlex": VarTable(["x", "z", "t"]), "perm": VarTable(["t", "x", "z"])}


def test_division_extracts_the_cofactor():
    T = VarTable(["z", "t"])
    z, t = T.var("z"), T.var("t")
    h = (t ** 6 - z ** 4) * Fraction(1, 2)
    rem, cofs = reduce(h, [z ** 2 + t ** 3])
    assert rem.is_zero()
    assert cofs[0] == (t ** 3 - z ** 2) * Fraction(1, 2)


def test_single_step_reduction(ring4):
    x, y, z, t = (ring4.var(n) for n in "xyzt")
    rem, _ = reduce(x ** 3 * y, [cubic_poly(ring4)])
    assert rem == -x * (z ** 2 + x + t ** 3)


def test_reduction_by_one_clears_everything(ring4):
    rem, cofs = reduce(cubic_poly(ring4), [ring4.one()])
    assert rem.is_zero()
    assert cofs[0] == cubic_poly(ring4)


def test_zero_divisor_rejected(ring4):
    with pytest.raises(ZeroDivisionError):
        reduce(ring4.var("x"), [ring4.zero()])


def test_laurent_inputs_rejected_without_clearing():
    T = VarTable(["t"], laurent=["t"])
    with pytest.raises(LaurentInputError):
        reduce(T.var("t") ** -1, [T.var("t")])
    with pytest.raises(LaurentInputError, match="^generator carries negative exponents"):
        buchberger([T.var("t") ** -1 + 1])
    assert clear_laurent(T.var("t") ** -2 + T.var("t")) == (1 + T.var("t") ** 3, (-2,))
    assert clear_laurent(T.var("t") ** 2 + T.var("t") ** 3) == (1 + T.var("t"), (2,))


def test_basis_of_single_monomial(ring4):
    basis = buchberger([ring4.var("x")])
    assert [str(g) for g in basis.generators] == ["x"]


def test_jacobian_ideal_of_cubic_is_everything(ring4):
    P = cubic_poly(ring4)
    basis = buchberger([P] + [P.diff(v) for v in "xyzt"])
    assert basis.is_unit_ideal()


def test_structure_ideal_basis(ring3):
    x, z, t = (ring3.var(n) for n in ["x", "z", "t"])
    I = [x ** 2, z ** 2 + t ** 3 + x]
    basis = buchberger(I)
    assert basis.contains(z ** 2 + t ** 3 + x)
    rem, _ = reduce(z ** 2 + t ** 3, list(basis.generators))
    assert rem == -x


def test_membership_examples(ring3):
    x, z, t = (ring3.var(n) for n in ["x", "z", "t"])
    I = [x ** 2, z ** 2 + t ** 3 + x]
    phi_z = z + 3 * x * t ** 5
    phi_t = t + 2 * x * phi_z ** 3
    moved = phi_z ** 2 + phi_t ** 3 + x
    assert member(moved, I)
    assert not member(x, [x ** 2])


def test_membership_in_laurent_ring():
    T = VarTable(["x", "y", "z", "t", "v"], laurent=["t"])
    P = cubic_poly(T)
    y, t = T.var("y"), T.var("t")
    assert member(y * t ** -3 * P, [P])
    assert not member(y * t ** -3, [P])


def test_laurent_content_is_cleared_from_generators():
    # monomials in a Laurent variable are units: t*x generates (x), t the ring
    T = VarTable(["x", "t"], laurent=["t"])
    x, t = T.var("x"), T.var("t")
    assert member(x, [t * x])
    assert member(T.one(), [t])
    assert not member(T.one(), [x * t ** -1])


def test_several_laurent_generators_are_saturated():
    # t = (t + x) - x is a unit, so (t + x, x) is the whole Laurent ring
    T = VarTable(["x", "t"], laurent=["t"])
    x, t = T.var("x"), T.var("t")
    assert member(T.one(), [t + x, x])
    assert member(x ** 2, [t * x + x ** 2, x ** 3])  # x^2 = t^-1*x*(t*x + x^2) - t^-1*x^3
    assert member(t ** -2 * x, [t + x, x])
    assert not member(T.one(), [x, x + x ** 2])
    assert not member(x, [x ** 2, t * x ** 2 + x ** 3])
    plain = VarTable(["x", "t"])
    with pytest.raises(TableMismatchError):
        member(x, [plain.var("t") + plain.var("x"), plain.var("x")])


def test_saturation_keeps_parameters():
    T = VarTable(["x", "t", "c"], laurent=["t"], params=["c"])
    x, t, c = T.var("x"), T.var("t"), T.var("c")
    assert member(c, [t * c + x, x])  # c = t^-1*((t*c + x) - x)
    assert not member(T.one(), [c * x, t * x])


def test_laurent_membership_agrees_with_sympy_saturation():
    """Saturate in sympy by lex elimination of s from (I, t*s - 1).  The
    generators c*x^k + t*m (k = 1 or 2, m a monomial) all vanish at the
    origin and are not multiples of t, so saturation by t often enlarges the
    ideal; a combination of them with Laurent cofactors is always a member."""
    sympy = pytest.importorskip("sympy")
    T = VarTable(["x", "t"], laurent=["t"])
    K, (x_, t_), conv = _sympy_converter(sympy, T.names)
    s_ = sympy.Symbol("s")
    x, t = T.var("x"), T.var("t")

    def expr(p):
        return conv(clear_laurent(p)[0]).as_expr()

    def generator(rng):
        m = random_nonzero_poly(rng, T, max_terms=1, max_deg=1, allow_negative=False)
        return x * nonzero_coeff(rng) * x ** rng.randint(0, 1) + t * m

    rng = random.Random(48)
    outcomes, saturated_only = set(), 0
    for _ in range(12):
        gens = [generator(rng), generator(rng)]
        eliminated = sympy.groebner([expr(g) for g in gens] + [t_ * s_ - 1],
                                    s_, x_, t_, order="lex", domain=K)
        saturated = sympy.groebner([p for p in eliminated.exprs if not p.has(s_)],
                                   x_, t_, domain=K)
        plain = sympy.groebner([expr(g) for g in gens], x_, t_, domain=K)
        combination = sum((random_nonzero_poly(rng, T, max_terms=2, max_deg=1) * g
                           for g in gens), T.zero())
        for f in (combination, random_nonzero_poly(rng, T, max_terms=3, max_deg=2),
                  T.one(), x):
            want = f.is_zero() or saturated.contains(expr(f))
            assert member(f, gens) == want
            outcomes.add(want)
            saturated_only += want and not (f.is_zero() or plain.contains(expr(f)))
        assert member(combination, gens)
    assert outcomes == {True, False}
    assert saturated_only >= 3


def test_principal_laurent_membership_agrees_with_exact_division():
    T = VarTable(["x", "t"], laurent=["t"])
    rng = random.Random(47)
    outcomes = set()
    for i in range(40):
        g = random_nonzero_poly(rng, T, max_terms=3, max_deg=2)
        f = random_nonzero_poly(rng, T, max_terms=3, max_deg=2)
        if i % 2 == 0:
            f = f * g
        divides = exact_divide(f, g) is not None
        assert member(f, [g]) == divides
        outcomes.add(divides)
    assert outcomes == {True, False}


def test_basis_independent_of_generator_order(ring3):
    x, z, t = (ring3.var(n) for n in ["x", "z", "t"])
    gens = [x ** 2, z ** 2 + t ** 3 + x, x * z + t]
    base = set(buchberger(gens).generators)
    for perm in itertools.permutations(gens):
        assert set(buchberger(list(perm)).generators) == base


def test_division_identity_violation_is_reported(ring3, monkeypatch):
    # double the first quotient coefficient that a division step builds (the
    # leading coefficient 2 is not one, so the step divides by it): the loop
    # then takes away the wrong multiple, and the identity check must notice
    built = []
    real = poly._times

    def perturbed(lt, inverse):
        built.append((lt, inverse))
        a, b, d = real(lt, inverse)
        return (2 * a, 2 * b, d) if len(built) == 1 else (a, b, d)

    monkeypatch.setattr(poly, "_times", perturbed)
    x, z, t = (ring3.var(v) for v in ("x", "z", "t"))
    with pytest.raises(PostconditionError, match="^division identity violated$"):
        reduce(x ** 2 * t + z, [2 * x + z, t - 1])
    assert built
    monkeypatch.undo()
    rem, cofs = reduce(x ** 2 * t + z, [2 * x + z, t - 1])
    assert rem + cofs[0] * (2 * x + z) + cofs[1] * (t - 1) == x ** 2 * t + z


def test_chain_criterion_skips_a_pair(monkeypatch):
    # the three pairs of x*z, x*t, z*t share the lcm x*z*t; once (xz, xt) and
    # (xz, zt) are taken, x*z divides the lcm of (xt, zt), so that pair is
    # skipped and the already reduced basis comes back unchanged
    T = VarTable(["x", "z", "t"])
    x, z, t = (T.var(n) for n in ["x", "z", "t"])
    spolys = []
    real = groebner._spoly
    monkeypatch.setattr(groebner, "_spoly", lambda f, g: spolys.append((f, g)) or real(f, g))
    basis = buchberger([x * z, x * t, z * t])
    assert len(spolys) == 2
    assert set(basis.generators) == {x * z, x * t, z * t}


def _count_spolys(monkeypatch):
    spolys = []
    real = groebner._spoly
    monkeypatch.setattr(groebner, "_spoly", lambda f, g: spolys.append((f, g)) or real(f, g))
    return spolys


def test_installation_drops_pairs_at_insertion(monkeypatch):
    T = VarTable(["x", "y", "z"])
    x, y, z = (T.var(n) for n in "xyz")
    spolys = _count_spolys(monkeypatch)
    # x - z makes x*y^2 redundant, so the remainder y^2*z pairs with x - z
    # alone, a coprime pair: one S-polynomial
    assert set(buchberger([x * y ** 2, x - z]).generators) == {x - z, y ** 2 * z}
    assert len(spolys) == 1
    # criterion B_k: x*y divides the lcm x^2*y^2 of the queued pair (f, g)
    # and differs from the lcms x^2*y and x*y^2 of its pairs with f and g, so
    # (f, g) leaves the queue when x*y joins, and its S-polynomial is never built
    spolys.clear()
    f, g = x ** 2 * y + z ** 2, x * y ** 2 + z ** 2
    assert set(buchberger([f, g, x * y]).generators) == {x * y, z ** 2}
    assert len(spolys) == 2 and (f, g) not in spolys


def test_a_constant_remainder_ends_at_the_unit_ideal(monkeypatch):
    T = VarTable(["x", "y", "z"])
    x, y, z = (T.var(n) for n in "xyz")
    spolys = _count_spolys(monkeypatch)
    assert buchberger([x * y + 1, x]).generators == (T.one(),)
    assert len(spolys) == 1
    # S(z - 2, z^2 + 1) reduces to -5 while the pair of z - 2 with
    # x*y^2*z^2 + 2*x^2 is still queued; it is not taken
    spolys.clear()
    assert buchberger([2 - z, x * y ** 2 * z ** 2 + 2 * x ** 2, z ** 2 + 1]).generators == (T.one(),)
    assert len(spolys) == 1
    # the verdicts built on it: the cubic is smooth, the cusp z^2 + t^3 is not
    R = param_ring()
    assert smooth_everywhere(cubic_poly(R))
    assert not smooth_everywhere(R.var("z") ** 2 + R.var("t") ** 3)


def test_budget_is_reported(monkeypatch):
    T = VarTable(["x", "z", "t"])
    x, z, t = (T.var(n) for n in ["x", "z", "t"])
    gens = [x ** 3 - 2 * x * z, x ** 2 * z - 2 * z ** 2 + x, t * x - z ** 2]
    monkeypatch.setattr(groebner, "MAX_PAIRS", 1)
    with pytest.raises(GroebnerBudgetError, match="pair budget 1 exhausted"):
        buchberger(gens)


def _plain_buchberger(gens):
    """Buchberger's algorithm with no criterion: every pair is taken and
    reduced by every element; then the basis is minimalized and inter-reduced."""
    T = gens[0].table
    basis = [g.monic() for g in gens]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        f, g = (basis[k] for k in pairs.pop(0))
        fm, gm = f.leading_monomial(), g.leading_monomial()
        lcm = [max(a, b) for a, b in zip(fm, gm)]
        s = (T.monomial([a - b for a, b in zip(lcm, fm)]) * f
             - T.monomial([a - b for a, b in zip(lcm, gm)]) * g)
        rem, _ = reduce(s, basis)
        if not rem.is_zero():
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(rem.monic())
    lms = [g.leading_monomial() for g in basis]
    keep = [i for i, m in enumerate(lms)
            if not any(j != i and all(a <= b for a, b in zip(n, m)) and (n != m or j < i)
                       for j, n in enumerate(lms))]
    return {reduce(basis[i], [basis[j] for j in keep if j != i])[0] for i in keep}


def test_installation_agrees_with_all_pairs():
    rng = random.Random(49)
    units, sizes = 0, set()
    for i in range(200):
        T = (TABLES["grevlex"], TABLES["perm"])[i % 2]
        gens = [random_nonzero_poly(rng, T, max_terms=3, max_deg=2)
                for _ in range(rng.randint(3, 5))]
        basis = buchberger(gens)
        assert set(basis.generators) == _plain_buchberger(gens)
        units += basis.is_unit_ideal()
        sizes.add(len(basis.generators))
    assert 20 <= units <= 100 and max(sizes) >= 5  # proper ideals too, some with large bases


def test_laurent_membership_through_a_unit(monkeypatch):
    # t = (t + x) - x is a unit, so {t + x, x} is the whole ring; {x, z} is
    # not, though t is a unit.  Both ideals are saturated by t first.
    tables = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger",
                        lambda gens: tables.append(gens[0].table.names) or real(gens))
    report = run_text("""ring L = vars(x, z, t ; laurent t);
claim "t is a unit" member(1, {t + x, x}) expect true;
claim "a proper ideal" member(1, {x, z}) expect false;
""")
    assert [(r.label, r.status) for r in report.results] == [
        ("t is a unit", PASS), ("a proper ideal", PASS)]
    assert tables == [("x", "z", "t", "<t>^-1")] * 2


# -- singularity certificates ---------------------------------------------------

def param_ring():
    return VarTable(["x", "y", "z", "t", "y0", "lam"], params=["y0", "lam"])


def test_smooth_everywhere_for_the_cubic():
    T = param_ring()
    assert smooth_everywhere(cubic_poly(T))


def test_singular_along_parametric_line():
    T = param_ring()
    x = T.var("x")
    pt = {"x": T.zero(), "y": T.var("y0"), "z": T.zero(), "t": T.zero()}
    assert singular_at(cubic_poly(T) - x, pt)
    assert singular_at(companion_poly(T) - x, pt)
    assert not singular_at(cubic_poly(T), pt)


def test_scale_dichotomy():
    T = param_ring()
    P, x = cubic_poly(T), T.var("x")
    origin = {v: T.zero() for v in "xyzt"}
    for lam, mu in [(1, 2), (2, 1), (1, -1), (3, 5), (2, -3)]:
        assert smooth_everywhere(lam * P - mu * x), (lam, mu)
    assert singular_at(P - x, origin)
    lam = T.var("lam")
    assert singular_at(lam * P - lam * x, origin)


# -- agreement with the linear-algebra oracle ------------------------------------

def _random_ideal_case(rng, table, force_member):
    gens = [random_nonzero_poly(rng, table, max_terms=3, max_deg=2)
            for _ in range(rng.randint(1, 3))]
    if force_member:
        f = table.zero()
        for g in gens:
            f = f + random_poly(rng, table, max_terms=2, max_deg=1) * g
        if f.is_zero():
            f = gens[0]
    else:
        f = random_nonzero_poly(rng, table, max_terms=3, max_deg=2)
    return f, gens


def test_membership_agrees_with_oracle_2vars():
    rng = random.Random(42)
    T = VarTable(["x", "z"])
    agree = 0
    for i in range(30):
        f, gens = _random_ideal_case(rng, T, force_member=(i % 2 == 0))
        assert member(f, gens) == member_oracle(f, gens)
        agree += 1
    assert agree == 30


def test_membership_agrees_with_oracle_3vars():
    rng = random.Random(43)
    T = VarTable(["x", "z", "t"])
    for i in range(8):
        f, gens = _random_ideal_case(rng, T, force_member=(i % 2 == 0))
        assert member(f, gens) == member_oracle(f, gens)


def test_division_contract_on_random_inputs():
    rng = random.Random(44)
    for i in range(120):
        T = (TABLES["grevlex"], TABLES["perm"])[i % 2]
        f = random_poly(rng, T, max_terms=5, max_deg=3)
        gens = [random_nonzero_poly(rng, T, max_terms=3, max_deg=2)
                for _ in range(rng.randint(1, 3))]
        rem, cofs = reduce(f, gens)
        recombined = rem
        for c, g in zip(cofs, gens):
            recombined = recombined + c * g
        assert recombined == f
        lead_monos = [g.leading_monomial() for g in gens]
        for exps, _ in rem.items():
            assert not any(all(a <= b for a, b in zip(m, exps)) for m in lead_monos)


# -- differential check against sympy over Q(sqrt(-3)) = Q(w) ----------------------


def _sympy_converter(sympy, names):
    """Map a Polynomial to a sympy Poly over QQ<sqrt(-3)> in the generators
    named, in that order; w is (-1 + sqrt(-3))/2."""
    K = sympy.QQ.algebraic_field(sympy.sqrt(-3))
    gens = sympy.symbols(names)
    w = K.from_sympy((-1 + sympy.sqrt(-3)) / 2)

    def conv(p):
        pos = [p.table.index(n) for n in names]
        terms = {tuple(exps[i] for i in pos):
                 K.convert(c.re) + K.convert(c.om) * w for exps, c in p.items()}
        return sympy.Poly.from_dict(terms, *gens, domain=K)

    return K, gens, conv


def _several_terms(rng, table):
    while True:
        p = random_nonzero_poly(rng, table, max_terms=3, max_deg=2)
        if len(p) >= 2 and not p.is_constant():
            return p


# sympy, like the kernel, ranks its generators as listed: in table order
@pytest.mark.parametrize("name", sorted(TABLES))
def test_normal_forms_agree_with_sympy(name):
    sympy = pytest.importorskip("sympy")
    T = TABLES[name]
    K, gens, conv = _sympy_converter(sympy, T.names)

    rng = random.Random(45)
    nonzero = 0
    for size in (2,) * 8 + (3,) * 6 + (4,) * 4 + (5,) * 4:
        ideal = [_several_terms(rng, T) for _ in range(size)]
        basis = buchberger(ideal)
        G = sympy.groebner([conv(g) for g in ideal], *gens, order="grevlex", domain=K)
        ours = [conv(g) for g in basis.generators]
        assert len(ours) == len(G.polys) and all(g in G.polys for g in ours)
        for _ in range(4):
            f = random_nonzero_poly(rng, T, max_terms=6, max_deg=3)
            rem, _ = reduce(f, list(basis.generators))
            _, want = G.reduce(conv(f))
            assert conv(rem) == sympy.Poly(want, *gens, domain=K)
            nonzero += not rem.is_zero()
    assert nonzero >= 16  # most normal forms are not trivially zero


def test_exact_quotients_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    T = VarTable(["x", "z", "t"])
    _, _, conv = _sympy_converter(sympy, T.names)

    rng = random.Random(46)
    for i in range(30):
        a = random_nonzero_poly(rng, T, max_terms=4, max_deg=2)
        b = _several_terms(rng, T)
        f = a * b if i % 2 == 0 else a * b + random_nonzero_poly(rng, T, max_terms=2, max_deg=2)
        q = exact_divide(f, b)
        want_q, want_r = sympy.div(conv(f), conv(b))
        assert (q is not None) == want_r.is_zero
        if q is not None:
            assert conv(q) == want_q
