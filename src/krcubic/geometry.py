"""Tangent cones at (possibly parametric) points and quadric classification.

The inequivalence argument needs exactly one dichotomy: whether the degree-2
part of a defining equation at a singular point is a double hyperplane
(a scalar times the square of a linear form) or a pair of distinct
hyperplanes (a rank-2 binary quadratic that is not a perfect square).
Classification asks whether the Gram matrix has rank one, that is, whether
every 2x2 minor of the doubled Gram matrix vanishes; that needs no division
and no square roots outside Q(w).
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations

from .errors import EmptyConeError, KrError, NonUnitError, Record
from .poly import Polynomial, VarTable

DOUBLE_HYPERPLANE = "double_hyperplane"
TWO_DISTINCT_HYPERPLANES = "two_distinct_hyperplanes"
OTHER = "other"

CONE_TAGS = (DOUBLE_HYPERPLANE, TWO_DISTINCT_HYPERPLANES, OTHER)


class ConeClass(Record):
    """A quadratic tangent cone's tag (one of CONE_TAGS) and its form."""

    __slots__ = ("tag", "form")


def _center(table: VarTable, point: Mapping[str, "Polynomial | int"]) -> dict[str, Polynomial]:
    """The point's coordinates over table.  Every non-parameter variable
    needs one, a constant or an expression in parameters only; parameters
    take none, since they stay symbolic."""
    for v in table.non_params():
        if v not in point:
            raise KrError(f"point does not assign variable {v!r}")
    center = {}
    for v, c in point.items():
        if table.is_param(v):
            raise KrError(f"point assigns parameter {v!r}, which stays symbolic")
        center[v] = table.coerce(c)
        if not all(map(table.is_param, center[v].variables_used())):
            raise KrError(f"point coordinate for {v!r} must be constant or parametric")
    return center


def tangent_cone(f: Polynomial, point: Mapping[str, "Polynomial | int"]) -> Polynomial:
    """Lowest homogeneous part of f after translating the point to the origin.

    The point is checked by _center.  f must vanish at the point; for a
    parametric point that means vanishing identically in the parameters.
    One substitution, v -> v + c, moves the point to the origin:
    f vanishes there iff no term of the result has degree 0 (parameters weigh
    0), and the terms of least degree are the cone.  A negative power of a
    point variable raises NonUnitError, naming the first such variable in
    table order, since v + c is a unit monomial only at c = 0, where f has no
    value; at unit coordinates f must still vanish first.
    """
    table = f.table
    center = _center(table, point)
    negative = [v for v in table.names if v in center and f.min_exponent(v) < 0]
    if negative:
        # f has a value at the point only if each such coordinate is a unit;
        # then v + c is not one, so the translation fails
        stuck = [v for v in negative if not center[v].is_unit_monomial()]
        if not stuck and f.substitute(center):
            raise KrError("polynomial does not vanish at the given point")
        raise NonUnitError(f"image of {(stuck or negative)[0]!r} must be a unit "
                           f"monomial to carry negative exponents")
    g = f.substitute({v: table.var(v) + c for v, c in center.items()})
    terms = [(g.weighted_degree_of_term(exps), exps, c) for exps, c in g.items()]
    low = min((degree for degree, _, _ in terms), default=None)
    if low == 0:
        raise KrError("polynomial does not vanish at the given point")
    if low is None:
        raise EmptyConeError("polynomial vanishes identically after translation")
    return Polynomial(table, {exps: c for degree, exps, c in terms if degree == low})


def _rank_one(form: Polynomial, names: tuple[str, ...]) -> bool:
    """Whether a nonzero quadratic form in names has Gram rank one, that is,
    every 2x2 minor of its doubled Gram matrix vanishes: twice the
    coefficient of v^2 on the diagonal, the coefficient of u*v off it."""
    table = form.table

    def entry(i: int, j: int):
        exps = [0] * table.arity
        exps[i] += 1
        exps[j] += 1
        c = form.coeff(tuple(exps))
        return 2 * c if i == j else c

    at = [table.index(v) for v in names]
    gram = [[entry(i, j) for j in at] for i in at]
    pairs = list(combinations(range(len(at)), 2))
    return not any(gram[i][k] * gram[j][l] - gram[i][l] * gram[j][k]
                   for i, j in pairs for k, l in pairs)


def classify_quadric(form: Polynomial,
                     specialization: Mapping[str, "Polynomial | int"] | None = None) -> ConeClass:
    """Classify a quadratic form, optionally after substituting parameter values.

    double_hyperplane: a nonzero scalar times the square of a linear form
    (Gram rank 1).  two_distinct_hyperplanes: a rank-2 form in exactly two
    variables.  Anything else is 'other'.  Each specialization value is read
    over the form's table and must be a constant, or KrError is raised: a
    claim's values arrive here unevaluated and unchecked.
    """
    table = form.table
    if specialization:
        images = {}
        for v, val in specialization.items():
            if not table.is_param(v):
                raise KrError(f"can only specialize parameters, not {v!r}")
            images[v] = table.coerce(val)
            if not images[v].is_constant():
                raise KrError("specialization values must be constants")
        form = form.substitute(images)
    if form.is_zero():
        raise KrError("cannot classify the zero form")
    if not form.is_weighted_homogeneous(dict(zip(table.names, table.weights)), 2):
        raise KrError("form is not homogeneous of degree 2 in its variables")
    names = form.variables_used()
    for v in names:
        if table.is_param(v):
            raise KrError(f"parameter {v!r} left unspecialized")
    if any(form.min_exponent(v) < 0 for v in names):
        raise KrError("form is not quadratic in its non-parameter variables")
    # homogeneous of degree 2, parameter-free and without negative exponents:
    # every term is c*v^2 or c*u*v
    if _rank_one(form, names):
        return ConeClass(DOUBLE_HYPERPLANE, form)
    # a nonzero 2x2 symmetric matrix that is not of rank one has rank two
    return ConeClass(TWO_DISTINCT_HYPERPLANES if len(names) == 2 else OTHER, form)


def graph_variable_check(f: Polynomial, v: str) -> bool:
    """True iff f = u*v + g with u a nonzero constant and g free of v.

    Then V(f) is the graph of a function of the other variables, hence
    isomorphic to an affine space.
    """
    u = f.coefficient_in(v, 1)
    return f.degree_in(v) == 1 and f.min_exponent(v) >= 0 and u.is_constant()
