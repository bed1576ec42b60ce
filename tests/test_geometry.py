"""Tangent cones, quadric classification, graph-variable detection."""

import random

import pytest

from krcubic.errors import KrError
from krcubic.geometry import (DOUBLE_HYPERPLANE, OTHER,
                              TWO_DISTINCT_HYPERPLANES, classify_quadric,
                              graph_variable_check, tangent_cone)
from krcubic.poly import VarTable

from conftest import cubic_poly, companion_poly, nonzero_coeff, random_coeff


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
