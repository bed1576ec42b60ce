"""Tangent cones at (possibly parametric) points and quadric classification.

The inequivalence argument needs exactly one dichotomy: whether the degree-2
part of a defining equation at a singular point is a double hyperplane
(a scalar times the square of a linear form) or a pair of distinct
hyperplanes (a rank-2 binary quadratic that is not a perfect square).
Classification is by the rank of the symmetric Gram matrix, which avoids
square roots outside Q(w).
"""

from __future__ import annotations

from collections.abc import Mapping

from .coeff import Eisenstein
from .errors import KrError
from .poly import Polynomial

DOUBLE_HYPERPLANE = "double_hyperplane"
TWO_DISTINCT_HYPERPLANES = "two_distinct_hyperplanes"
OTHER = "other"

CONE_TAGS = (DOUBLE_HYPERPLANE, TWO_DISTINCT_HYPERPLANES, OTHER)


class ConeClass:
    """A quadratic tangent cone's tag (one of CONE_TAGS) and its form."""

    __slots__ = ("tag", "form")

    def __init__(self, tag: str, form: Polynomial):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "form", form)

    def __setattr__(self, name, value):
        raise AttributeError("ConeClass is immutable")


def tangent_cone(f: Polynomial, point: Mapping[str, "Polynomial | int"]) -> Polynomial:
    """Lowest homogeneous part of f after translating the point to the origin.

    Every non-parameter variable needs a coordinate (a constant or an
    expression in parameters only).  f must vanish at the point; for a
    parametric point that means vanishing identically in the parameters.
    """
    table = f.table
    center: dict[str, Polynomial] = {}
    for v in table.non_params():
        if v not in point:
            raise KrError(f"point does not assign variable {v!r}")
    for v, c in point.items():
        cv = c if isinstance(c, Polynomial) else table.constant(c)
        cv = cv.transport(table)
        for name in cv.variables_used():
            if not table.is_param(name):
                raise KrError(f"point coordinate for {v!r} must be constant or parametric")
        center[v] = cv
    if not f.substitute(center).is_zero():
        raise KrError("polynomial does not vanish at the given point")
    return f.lowest_homogeneous_part(center)


def _gram_rank(form: Polynomial) -> tuple[int, int]:
    """(rank, number of occurring non-parameter variables) of a quadratic form."""
    table = form.table
    occurring = [i for i, v in enumerate(table.names)
                 if not table.is_param(v) and form.degree_in(v) > 0]
    n = len(occurring)
    pos = {vi: k for k, vi in enumerate(occurring)}
    gram = [[Eisenstein(0)] * n for _ in range(n)]
    half = Eisenstein(1) / 2
    for exps, c in form.terms.items():
        support = [(i, e) for i, e in enumerate(exps) if e and not table.is_param(table.names[i])]
        if len(support) == 1 and support[0][1] == 2:
            i = pos[support[0][0]]
            gram[i][i] = gram[i][i] + c
        elif len(support) == 2 and support[0][1] == 1 and support[1][1] == 1:
            i, j = pos[support[0][0]], pos[support[1][0]]
            gram[i][j] = gram[i][j] + c * half
            gram[j][i] = gram[j][i] + c * half
        else:
            raise KrError("form is not quadratic in its non-parameter variables")
    # exact Gaussian elimination
    rank = 0
    rows = [row[:] for row in gram]
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if rows[r][col]:
                pivot = r
                break
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
    return rank, n


def classify_quadric(form: Polynomial,
                     specialization: Mapping[str, "Eisenstein | int"] | None = None) -> ConeClass:
    """Classify a quadratic form, optionally after substituting parameter values.

    double_hyperplane: a nonzero scalar times the square of a linear form
    (Gram rank 1).  two_distinct_hyperplanes: a rank-2 form in exactly two
    variables.  Anything else is 'other'.
    """
    table = form.table
    if specialization:
        images = {}
        for v, val in specialization.items():
            if not table.is_param(v):
                raise KrError(f"can only specialize parameters, not {v!r}")
            images[v] = table.constant(val)
        form = form.substitute(images)
    if form.is_zero():
        raise KrError("cannot classify the zero form")
    for exps in form.terms:
        if form.weighted_degree_of_term(exps) != 2:
            raise KrError("form is not homogeneous of degree 2 in its variables")
    for v in form.variables_used():
        if table.is_param(v):
            raise KrError(f"parameter {v!r} left unspecialized")
    rank, nvars = _gram_rank(form)
    if rank == 1:
        return ConeClass(DOUBLE_HYPERPLANE, form)
    if rank == 2 and nvars == 2:
        return ConeClass(TWO_DISTINCT_HYPERPLANES, form)
    return ConeClass(OTHER, form)


def graph_variable_check(f: Polynomial, v: str) -> bool:
    """True iff f = u*v + g with u a nonzero constant and g free of v.

    Then V(f) is the graph of a function of the other variables, hence
    isomorphic to an affine space.
    """
    table = f.table
    i = table.index(v)
    if f.degree_in(v) != 1:
        return False
    linear = {}
    for exps, c in f.terms.items():
        if exps[i] == 1:
            stub = list(exps)
            stub[i] = 0
            linear[tuple(stub)] = c
        elif exps[i] != 0:
            return False
    u = Polynomial(table, linear)
    return u.is_constant() and not u.is_zero()
