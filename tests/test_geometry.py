"""Tangent cones, quadric classification, graph-variable detection."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from krcubic.coeff import Eisenstein
from krcubic.errors import EmptyConeError, KrError, NonUnitError
from krcubic.geometry import (DOUBLE_HYPERPLANE, OTHER,
                              TWO_DISTINCT_HYPERPLANES, classify_quadric,
                              graph_variable_check, tangent_cone)
from krcubic.poly import Polynomial, VarTable

from conftest import (cubic_poly, companion_poly, nonzero_coeff, random_coeff,
                      random_poly)


def cone_ring():
    return VarTable(["x", "y", "z", "t", "y0", "c"], params=["y0", "c"])


def line_point(table):
    return {"x": 0, "y": table.var("y0"), "z": 0, "t": 0}


def test_cone_of_cubic_fiber():
    T = cone_ring()
    x, z, y0 = T.var("x"), T.var("z"), T.var("y0")
    cone = tangent_cone(cubic_poly(T) - x, line_point(T))
    assert cone == z ** 2 + y0 * x ** 2


def test_cone_of_companion_fiber():
    T = cone_ring()
    x, z, y0 = T.var("x"), T.var("z"), T.var("y0")
    cone = tangent_cone(companion_poly(T) - x, line_point(T))
    assert cone == z ** 2 + (y0 + 1) * x ** 2


def test_cone_of_cusp_at_origin():
    T = cone_ring()
    z, t = T.var("z"), T.var("t")
    origin = {"x": 0, "y": 0, "z": 0, "t": 0}
    assert tangent_cone(z ** 2 + t ** 3, origin) == z ** 2


def test_cone_requires_vanishing():
    T = cone_ring()
    origin = {"x": 0, "y": 0, "z": 0, "t": 0}
    with pytest.raises(KrError):
        tangent_cone(cubic_poly(T) - 1, origin)  # P - 1 is nonzero at the origin


def test_cone_point_coordinates_must_be_parametric():
    T = cone_ring()
    bad = dict(line_point(T))
    bad["z"] = T.var("t")  # a live variable is not a valid coordinate
    with pytest.raises(KrError):
        tangent_cone(cubic_poly(T) - T.var("x"), bad)


def test_cone_of_cubic_fiber_in_one_parameter():
    T = VarTable(["x", "y", "z", "t", "y0"], params=["y0"])
    x, y, z, t, y0 = (T.var(n) for n in ["x", "y", "z", "t", "y0"])
    W = x ** 2 * y + z ** 2 + t ** 3  # cubic minus x
    assert tangent_cone(W, line_point(T)) == z ** 2 + y0 * x ** 2


def test_cone_of_companion_fiber_in_one_parameter():
    T = VarTable(["x", "y", "z", "t", "y0"], params=["y0"])
    x, z, y0 = T.var("x"), T.var("z"), T.var("y0")
    W = companion_poly(T) - x
    assert tangent_cone(W, line_point(T)) == z ** 2 + (y0 + 1) * x ** 2


def test_cone_of_homogeneous_input_at_origin(ring4):
    f = ring4.var("x") ** 2 * ring4.var("y")
    assert tangent_cone(f, {v: 0 for v in ring4.names}) == f


def test_empty_cone_reported(ring4):
    with pytest.raises(EmptyConeError):
        tangent_cone(ring4.zero(), {"x": 1, "y": 0, "z": 0, "t": 0})


def test_cone_needs_every_coordinate_and_no_parameter():
    T = cone_ring()
    P = cubic_poly(T) - T.var("x")
    partial = dict(line_point(T))
    del partial["t"]
    with pytest.raises(KrError, match="does not assign variable 't'"):
        tangent_cone(P, partial)
    with pytest.raises(KrError, match="point assigns parameter 'c'"):
        tangent_cone(P, {**line_point(T), "c": 0})


def test_cone_rejects_negative_powers_of_point_variables(cylinder_ring):
    x, t = cylinder_ring.var("x"), cylinder_ring.var("t")
    message = "image of 't' must be a unit monomial to carry negative exponents"
    for t0 in (0, 1, -2):
        point = {"x": 0, "y": 0, "z": 0, "t": t0, "v": 0}
        with pytest.raises(NonUnitError, match=message):
            tangent_cone(x * t ** -1, point)
    # a nonzero coordinate is a unit, so f has a value there, and it is not 0
    with pytest.raises(KrError, match="does not vanish"):
        tangent_cone(x + t ** -1, {"x": 0, "y": 0, "z": 0, "t": 1, "v": 0})


def test_cone_names_the_first_negative_point_variable_in_table_order():
    T = VarTable(["x", "t", "u"], laurent=["t", "u"])
    x, t, u = T.var("x"), T.var("t"), T.var("u")
    # the u term comes first in the term dict, but t comes first in the table
    f = Polynomial(T, {(1, 0, -1): 1, (1, -1, 0): 1})
    assert f == x * u ** -1 + x * t ** -1
    message = "image of 't' must be a unit monomial"
    with pytest.raises(NonUnitError, match=message):
        tangent_cone(f, {"x": 0, "t": 0, "u": 0})
    # with both coordinates units f has a value at the point, here 0, and the
    # error still names t
    with pytest.raises(NonUnitError, match=message):
        tangent_cone(f - x - x, {"x": 1, "t": 1, "u": 1})
    # only u is stuck, so the error names u
    with pytest.raises(NonUnitError, match="image of 'u'"):
        tangent_cone(x * u ** -1 + x * t ** -1, {"x": 0, "t": 1, "u": 0})


def test_cone_substitutes_once(monkeypatch):
    calls = []
    substitute = Polynomial.substitute

    def counted(self, images):
        calls.append(images)
        return substitute(self, images)

    monkeypatch.setattr(Polynomial, "substitute", counted)
    T = cone_ring()
    assert tangent_cone(cubic_poly(T) - T.var("x"), line_point(T)) == (
        T.var("z") ** 2 + T.var("y0") * T.var("x") ** 2)
    assert len(calls) == 1


# -- the one translation against the evaluate-then-translate reference ---------

def _two_substitution_cone(f, point):
    """tangent_cone as computed before one translation replaced two
    substitutions: evaluate f at the point, then translate the point to the
    origin and keep the terms of least weighted degree."""
    table = f.table
    center = {}
    for v in table.non_params():
        if v not in point:
            raise KrError(f"point does not assign variable {v!r}")
    for v, c in point.items():
        cv = (c if isinstance(c, Polynomial) else table.constant(c)).transport(table)
        for name in cv.variables_used():
            if not table.is_param(name):
                raise KrError(f"point coordinate for {v!r} must be constant or parametric")
        center[v] = cv
    if not f.substitute(center).is_zero():
        raise KrError("polynomial does not vanish at the given point")
    g = f.substitute({v: table.var(v) + cv for v, cv in center.items()})
    if g.is_zero():
        raise EmptyConeError("polynomial vanishes identically after translation")
    by_degree = {}
    for exps, c in g.items():
        by_degree.setdefault(g.weighted_degree_of_term(exps), {})[exps] = c
    return Polynomial(table, by_degree[min(by_degree)])


def _outcome(cone, f, point):
    try:
        return cone(f, point)
    except KrError as exc:
        return type(exc).__name__, str(exc)


def test_cone_matches_the_two_substitution_reference():
    rng = random.Random(57)
    # t is Laurent; the parameters c0 and the Laurent u stay symbolic
    T = VarTable(["x", "z", "t", "c0", "u"], laurent=["t", "u"], params=["c0", "u"])
    x, c0, u = T.var("x"), T.var("c0"), T.var("u")
    coordinates = [T.zero(), T.constant(2), T.constant(-1), c0, c0 + 1, u,
                   2 * u, u + c0, c0 ** 2 - 3]
    seen = set()
    for i in range(300):
        point = {v: rng.choice(coordinates) for v in T.non_params()}
        # f vanishes at the point: a combination of the v - c_v
        f = T.zero()
        for v, c in point.items():
            f = f + (T.var(v) - c) * random_poly(rng, T, max_terms=3, max_deg=2,
                                                  allow_negative=rng.random() < 0.3)
        case = i % 6
        if case == 1:
            f = f + nonzero_coeff(rng)  # no longer vanishes
        elif case == 2:
            f = T.zero()
        elif case == 3:
            del point[rng.choice(T.non_params())]
        elif case == 4:
            point["z"] = x + c0  # not parametric
        want = _outcome(_two_substitution_cone, f, point)
        assert _outcome(tangent_cone, f, point) == want, (f, point)
        seen.add(want[0] if isinstance(want, tuple) else "cone")
    assert seen == {"cone", "KrError", "EmptyConeError", "NonUnitError"}


def test_dichotomy_for_the_cubic_cone():
    T = cone_ring()
    x, z, y0 = T.var("x"), T.var("z"), T.var("y0")
    form = z ** 2 + y0 * x ** 2
    for val in (-2, -1, 1, 5):
        assert classify_quadric(form, {"y0": val}).tag == TWO_DISTINCT_HYPERPLANES
    assert classify_quadric(form, {"y0": 0}).tag == DOUBLE_HYPERPLANE


def test_dichotomy_for_the_companion_cone():
    T = cone_ring()
    x, z, y0 = T.var("x"), T.var("z"), T.var("y0")
    form = z ** 2 + (y0 + 1) * x ** 2
    for val in (-2, 0, 1, 5):
        assert classify_quadric(form, {"y0": val}).tag == TWO_DISTINCT_HYPERPLANES
    assert classify_quadric(form, {"y0": -1}).tag == DOUBLE_HYPERPLANE


def test_squares_of_linear_forms_are_double_planes():
    rng = random.Random(55)
    T = VarTable(["x", "z", "t"])
    for _ in range(60):
        ell = T.zero()
        for v in T.names:
            ell = ell + random_coeff(rng) * T.var(v)
        if ell.is_zero():
            continue
        c = nonzero_coeff(rng)
        assert classify_quadric(c * ell ** 2).tag == DOUBLE_HYPERPLANE


def test_rank_two_in_three_variables_is_other():
    T = VarTable(["x", "z", "t"])
    x, z, t = (T.var(n) for n in ["x", "z", "t"])
    assert classify_quadric((x + z) ** 2 + t ** 2).tag == OTHER
    assert classify_quadric(x ** 2 + z ** 2 + t ** 2).tag == OTHER


def _reference_tag(form):
    """The tag by the rank of the Gram matrix, found by exact Gaussian
    elimination: the reference that classify_quadric's 2x2 minors must agree
    with."""
    table = form.table
    occurring = [i for i, v in enumerate(table.names) if form.degree_in(v) > 0]
    n = len(occurring)
    pos = {vi: k for k, vi in enumerate(occurring)}
    gram = [[Eisenstein(0)] * n for _ in range(n)]
    half = Eisenstein(1) / 2
    for exps, c in form.items():
        support = [(i, e) for i, e in enumerate(exps) if e]
        if len(support) == 1:
            i = pos[support[0][0]]
            gram[i][i] = gram[i][i] + c
        else:
            i, j = pos[support[0][0]], pos[support[1][0]]
            gram[i][j] = gram[i][j] + c * half
            gram[j][i] = gram[j][i] + c * half
    rank = 0
    rows = [row[:] for row in gram]
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [val * inv for val in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    if rank == 1:
        return DOUBLE_HYPERPLANE
    return TWO_DISTINCT_HYPERPLANES if rank == 2 and n == 2 else OTHER


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_q_w = st.builds(Eisenstein, _small, _small)


@st.composite
def quadratic_forms(draw):
    """A nonzero quadratic form over Q(w) in 1 to 4 variables: a multiple of a
    square, a product of two linear forms, a sum of two multiples of squares,
    or any form, off-diagonal terms included."""
    T = VarTable(["x", "z", "t", "u"][:draw(st.integers(1, 4))])
    v = [T.var(name) for name in T.names]

    def linear():
        return sum((draw(_q_w) * x for x in v), T.zero())

    shape = draw(st.sampled_from(["square", "product", "squares", "any"]))
    if shape == "square":
        form = draw(_q_w) * linear() ** 2
    elif shape == "product":
        form = linear() * linear()
    elif shape == "squares":
        form = draw(_q_w) * linear() ** 2 + draw(_q_w) * linear() ** 2
    else:
        form = sum((draw(_q_w) * v[i] * v[j] for i in range(len(v)) for j in range(i, len(v))),
                   T.zero())
    assume(not form.is_zero())
    return form


@settings(max_examples=300, derandomize=True, deadline=None)
@given(quadratic_forms())
def test_minors_agree_with_gaussian_elimination(form):
    assert classify_quadric(form).tag == _reference_tag(form), form


def test_non_quadratic_inputs_rejected():
    T = cone_ring()
    x, z = T.var("x"), T.var("z")
    with pytest.raises(KrError):
        classify_quadric(z ** 3)
    with pytest.raises(KrError):
        classify_quadric(z ** 2 + x)
    with pytest.raises(KrError):
        classify_quadric(T.zero())
    with pytest.raises(KrError):
        classify_quadric(z ** 2 + T.var("y0") * x ** 2)  # parameter left free
    L = VarTable(["x", "t"], laurent=["t"])
    with pytest.raises(KrError, match="not quadratic"):
        classify_quadric(L.var("x") ** 3 * L.var("t") ** -1)  # weighted degree 2


def test_cones_multiply():
    rng = random.Random(56)
    T = VarTable(["x", "z", "t"])
    from conftest import random_nonzero_poly
    for _ in range(30):
        f = random_nonzero_poly(rng, T, max_terms=3, max_deg=2)
        g = random_nonzero_poly(rng, T, max_terms=3, max_deg=2)
        f = f - f.substitute({v: T.zero() for v in T.names})  # force vanishing at 0
        g = g - g.substitute({v: T.zero() for v in T.names})
        if f.is_zero() or g.is_zero():
            continue
        origin = {v: 0 for v in T.names}
        lhs = tangent_cone(f * g, origin)
        assert lhs == tangent_cone(f, origin) * tangent_cone(g, origin)


def test_graph_variable_detection():
    T = cone_ring()
    c, y = T.var("c"), T.var("y")
    P = cubic_poly(T)
    at = lambda a: (P - c).substitute({"x": T.constant(a)})
    for a in (1, 2, -3):
        assert graph_variable_check(at(a), "y"), a
    assert not graph_variable_check(at(0), "y")


def test_graph_variable_needs_unit_coefficient():
    T = cone_ring()
    x, y, z = T.var("x"), T.var("y"), T.var("z")
    assert not graph_variable_check(x ** 2 * y + z ** 2, "y")
    assert not graph_variable_check(z ** 2, "y")
    assert graph_variable_check(4 * y + z ** 2 + 2, "y")
    assert not graph_variable_check(4 * y ** 2 + y + z, "y")
    # a parameter times y is not a unit
    assert not graph_variable_check(T.var("c") * y + z, "y")
    # a negative power of the graph variable is not a graph
    L = VarTable(["z", "t"], laurent=["t"])
    t = L.var("t")
    assert not graph_variable_check(2 * t + t ** -1 + L.var("z"), "t")
    assert graph_variable_check(2 * t + L.var("z"), "t")
