"""Exact symbolic verification of the cubic threefold x^2*y + z^2 + x + t^3 = 0.

A small computer-algebra kernel over the Eisenstein rationals Q(w): sparse
Laurent polynomials, ring endomorphisms, Groebner bases, tangent cones and
locally nilpotent derivations, plus a declarative claim language (.krv files)
and a batch CLI that replays the algebraic identities behind the cubic's
inequivalent embeddings and its cylinder.
"""

from .coeff import Eisenstein, OMEGA
from .poly import Polynomial, VarTable, render
from .groebner import (GroebnerBasis, buchberger, member, reduce,
                       smooth_everywhere, singular_at)
from .morphism import (Extension, QuotientRelation, RingMap, compose,
                       exact_divide, extend_to_quotient_automorphism, jacobian,
                       normal_form, verify_inverse_pair)
from .geometry import (ConeClass, DOUBLE_HYPERPLANE, OTHER,
                       TWO_DISTINCT_HYPERPLANES, classify_quadric,
                       graph_variable_check, tangent_cone)
from .derivation import (Derivation, NilpotencyCertificate, conjugate,
                         nilpotency_certificate, substitute_parameter,
                         theta_extract)
from .parser import SourceUnit, format_unit, parse_unit
from .claims import Report, run_file, run_text, run_unit

__version__ = "0.1.0"

__all__ = [
    "Eisenstein", "OMEGA",
    "Polynomial", "VarTable", "render",
    "GroebnerBasis", "buchberger", "member", "reduce",
    "smooth_everywhere", "singular_at",
    "Extension", "QuotientRelation", "RingMap", "compose", "exact_divide",
    "extend_to_quotient_automorphism", "jacobian", "normal_form",
    "verify_inverse_pair",
    "ConeClass", "DOUBLE_HYPERPLANE", "OTHER", "TWO_DISTINCT_HYPERPLANES",
    "classify_quadric", "graph_variable_check", "tangent_cone",
    "Derivation", "NilpotencyCertificate", "conjugate",
    "nilpotency_certificate", "substitute_parameter", "theta_extract",
    "SourceUnit", "format_unit", "parse_unit",
    "Report", "run_file", "run_text", "run_unit",
]
