"""Grammar, diagnostics, canonical rendering and round-trips."""

import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from krcubic.claims import run_text
from krcubic.coeff import OMEGA
from krcubic.errors import KrError, ParseError
from krcubic.parser import (BUILTINS, CLAIMS, CONSTRUCTORS, KEYWORDS, BinOp,
                            InverseDecl, Lit, eval_node, format_unit,
                            parse_polynomial, parse_ring_spec, parse_unit,
                            tokenize)
from krcubic.poly import Polynomial, VarTable, render

from conftest import random_poly, random_table


def test_ring_and_binding():
    unit = parse_unit("ring R = vars(x, y, z, t);\n"
                      "let P = x^2*y + z^2 + x + t^3;")
    decl = unit.env["P"]
    assert decl.kind == "poly" and decl.ring == "R"
    T = unit.rings["R"]
    x, y, z, t = (T.var(n) for n in "xyzt")
    assert decl.value == x ** 2 * y + z ** 2 + x + t ** 3


def test_expansion_has_six_terms():
    unit = parse_unit("ring R = vars(x, y, z, t);\n"
                      "let u = (1 + x)*(z^2 + x + t^3);")
    value = unit.env["u"].value
    assert len(value.terms) == 6


def test_negative_exponent_needs_laurent_flag():
    with pytest.raises(ParseError) as info:
        parse_unit("ring R = vars(x, t);\nlet bad = t^-1;")
    assert "t" in str(info.value)
    assert info.value.line == 2
    parse_unit("ring R = vars(x, t ; laurent t);\nlet ok = t^-1;")


def test_use_before_declaration():
    with pytest.raises(ParseError) as info:
        parse_unit("ring R = vars(x);\nlet a = b + 1;")
    assert "undeclared" in str(info.value)


def test_duplicate_name_rejected():
    with pytest.raises(ParseError):
        parse_unit("ring R = vars(x);\nlet a = x;\nlet a = x + 1;")


def test_variable_shadowing_rejected():
    with pytest.raises(ParseError):
        parse_unit("ring R = vars(x);\nlet x = 1;")


def test_w_is_reserved():
    with pytest.raises(ParseError):
        parse_unit("ring R = vars(w);")
    unit = parse_unit("ring R = vars(t);\nlet a = (1 + w)*t;")
    value = unit.env["a"].value
    assert value == (1 + OMEGA) * unit.rings["R"].var("t")


def test_diagnostics_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_unit("ring R = vars(x);\nlet a = x +;")
    err = info.value
    assert err.line == 2 and err.col == 12


def test_rational_literals():
    T = VarTable(["t"])
    p = parse_polynomial("1/2*t + 3", T)
    assert p == T.var("t") * Fraction(1, 2) + 3


def test_render_zero_and_canonical_order():
    T = VarTable(["x", "y", "z", "t"])
    assert render(T.zero()) == "0"
    P = T.var("x") ** 2 * T.var("y") + T.var("z") ** 2 + T.var("x") + T.var("t") ** 3
    assert render(P) == "x^2*y + t^3 + z^2 + x"


def test_render_omega_coefficient():
    T = VarTable(["t"])
    assert render((1 + OMEGA) * T.var("t")) == "(1 + w)*t"
    assert render(-(1 + OMEGA) * T.var("t")) == "-(1 + w)*t"
    assert render(OMEGA * T.var("t")) == "w*t"


def test_map_and_claim_round_trip_through_fmt():
    text = """ring R = vars(x, y, z, t);
let P = x^2*y + z^2 + x + t^3;
map M : R { y -> (1 + x)*y; }
derivation D : R { y -> 2*z; z -> -x^2; }
claim "sample" eq(M(P), M(P)) anchor "self" expect true;
narrative "agg" requires("sample");
"""
    unit = parse_unit(text)
    once = format_unit(unit)
    twice = format_unit(parse_unit(once))
    assert once == twice


def test_fmt_idempotent_on_shipped_manifests():
    from krcubic.claims import SHIPPED_MANIFESTS, manifest_path
    for name in SHIPPED_MANIFESTS:
        text = manifest_path(name).read_text(encoding="utf-8")
        once = format_unit(parse_unit(text))
        twice = format_unit(parse_unit(once))
        assert once == twice, name


def test_ring_spec_parser():
    T = parse_ring_spec("vars(x, y, z, t, c0 ; laurent t ; param c0)")
    assert T.names == ("x", "y", "z", "t", "c0")
    assert T.is_laurent("t") and T.is_param("c0")
    with pytest.raises(ParseError):
        parse_ring_spec("vars(x, x)")
    with pytest.raises(ParseError):
        # flagged variables must be declared in the vars(...) list
        parse_ring_spec("vars(x ; param c0)")


def test_round_trip_random_polynomials():
    rng = random.Random(2024)
    for _ in range(300):
        T = random_table(rng)
        p = random_poly(rng, T, max_terms=5, max_deg=4)
        assert parse_polynomial(render(p), T) == p


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.text(alphabet="xyzt0123456789+-*^()/ w;=", max_size=40))
def test_parser_is_total_on_junk(text):
    T = VarTable(["x", "y", "z", "t"])
    try:
        parse_polynomial(text, T)
    except (ParseError, KrError):
        pass  # positioned failure is the contract; no other exception may escape


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.text(max_size=60))
def test_unit_parser_is_total_on_arbitrary_text(text):
    try:
        parse_unit(text)
    except (ParseError, KrError):
        pass


def test_unit_parser_is_total_on_corrupted_manifests():
    # Corruptions that reach expressions, which arbitrary text rarely does: a
    # deleted or inserted character (the alphabet holds a non-decimal digit
    # and a non-ASCII letter), two adjacent words swapped, or a keyword put in.
    from krcubic.claims import SHIPPED_MANIFESTS, manifest_path
    texts = [manifest_path(name).read_text(encoding="utf-8") for name in SHIPPED_MANIFESTS]
    keywords = sorted(KEYWORDS)
    rng = random.Random(8)
    for _ in range(300):
        text = rng.choice(texts)
        i = rng.randrange(len(text))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + text[i + 1:]
        elif op == 1:
            text = text[:i] + rng.choice("xz19(){},;:^*+-/=\"#\n _²é") + text[i:]
        elif op == 2:
            words = list(re.finditer(r"\S+", text))
            k = rng.randrange(len(words) - 1)
            a, b = words[k], words[k + 1]
            text = text[:a.start()] + b[0] + text[a.end():b.start()] + a[0] + text[b.end():]
        else:
            text = text[:i] + f" {rng.choice(keywords)} " + text[i:]
        try:
            parse_unit(text)
        except KrError:
            pass


def test_tokenize_pins_kinds_and_positions():
    # (kind, text, line, col, pos); a tab and a '\r' take one column each, and
    # eof after a final comment sits at the '#'
    text = 'map m_2 :\tR { # note\r\n  y -> "s t" 12;\n} # end'
    assert [(tok.kind, tok.text, tok.line, tok.col, tok.pos) for tok in tokenize(text)] == [
        ("ident", "map", 1, 1, 0),
        ("ident", "m_2", 1, 5, 4),
        ("punct", ":", 1, 9, 8),
        ("ident", "R", 1, 11, 10),
        ("punct", "{", 1, 13, 12),
        ("ident", "y", 2, 3, 24),
        ("punct", "->", 2, 5, 26),
        ("string", "s t", 2, 8, 29),
        ("int", "12", 2, 14, 35),
        ("punct", ";", 2, 16, 37),
        ("punct", "}", 3, 1, 39),
        ("eof", "", 3, 3, 46),
    ]


@pytest.mark.parametrize("text, message, col", [
    ('let a = "open;\n', "unterminated string", 9),
    ("let a = x @ 1;", "unexpected character '@'", 11),
    ("let a = x^²;", "unexpected character '²'", 11),  # int tokens are [0-9]+
])
def test_tokenize_lexical_errors_are_positioned(text, message, col):
    with pytest.raises(ParseError) as info:
        tokenize("# line 1\n" + text)
    assert (info.value.message, info.value.line, info.value.col) == (message, 2, col)
    assert info.value.offset == 9 + col - 1


def test_expected_name_is_printed_once():
    with pytest.raises(ParseError) as info:
        parse_unit("ring R = vars(x);\nlet = x;")
    assert str(info.value) == "2:5: expected name"


def test_trailing_input_rejected():
    T = VarTable(["x"])
    with pytest.raises(ParseError):
        parse_polynomial("x + 1; junk", T)


def test_comment_and_whitespace_handling():
    unit = parse_unit("# leading comment\nring R = vars(x);  # trailing\nlet a = x; # done\n")
    assert "a" in unit.env


def test_unterminated_string():
    with pytest.raises(ParseError):
        parse_unit('ring R = vars(x);\nclaim "open eq(x, x) expect true;')


def test_inverse_declaration_records_the_pair():
    unit = parse_unit("""
ring R = vars(x, y, z, t);
let P = x^2*y + z^2 + x + t^3;
let Q = x^2*y + (1 + x)*(z^2 + x + t^3);
map fwd : R { y -> (1 + x)*y; }
map bwd : R { y -> (1 - x)*y - x - z^2 - t^3; }
inverse(fwd, bwd) mod {P}, {Q};
""")
    P, Q = unit.env["P"].value, unit.env["Q"].value
    pair = unit.items[-1]
    assert isinstance(pair, InverseDecl)
    assert (pair.first, pair.second, pair.mod_first, pair.mod_second) == ("fwd", "bwd", [P], [Q])


def test_inverse_declaration_rejects_non_inverses():
    with pytest.raises(ParseError) as info:
        parse_unit("""
ring R = vars(x, y);
map a : R { y -> y + x; }
map b : R { y -> y + x; }
inverse(a, b);
""")
    assert "not inverse" in str(info.value)


def test_inverse_declaration_exact_pair():
    unit = parse_unit("""
ring R = vars(x, y);
map a : R { y -> y + x; }
map b : R { y -> y - x; }
inverse(a, b);
""")
    once = format_unit(unit)
    assert "inverse(a, b);" in once
    assert format_unit(parse_unit(once)) == once


def test_derivation_with_relation_block():
    unit = parse_unit("""
ring R = vars(x, y, z, t);
let P = x^2*y + z^2 + x + t^3;
derivation d : R { y -> 2*z; z -> -x^2; } mod {P}
claim "nilpotent on the quotient" nilpotent(d, 8) expect true;
""")
    d = unit.env["d"].value
    assert d.relation is not None
    assert d.relation.relation == unit.env["P"].value
    once = format_unit(unit)
    assert "mod {" in once
    assert format_unit(parse_unit(once)) == once


def test_derivation_relation_must_descend():
    with pytest.raises(ParseError):
        parse_unit("""
ring R = vars(x, y, z, t);
derivation d : R { z -> 1; } mod {x^2*y + z^2 + x + t^3}
""")


def test_point_arity_checked():
    with pytest.raises(ParseError) as info:
        parse_unit('ring R = vars(x, y);\n'
                    'claim "c" singular_at(x, point(0)) expect true;')
    assert "coordinates" in str(info.value)


def test_sum_and_difference_build_no_product(monkeypatch):
    def no_product(self, other):
        raise RuntimeError("a product was computed for a sum or difference")

    monkeypatch.setattr(Polynomial, "__mul__", no_product)
    parse_unit("ring R = vars(x);\nlet a = x + 1;")
    T = VarTable(["x"])
    x, one = T.var("x"), T.one()
    assert eval_node(BinOp("+", Lit(x), Lit(one)), {}, T) == x + one
    assert eval_node(BinOp("-", Lit(x), Lit(one)), {}, T) == x - one


R4 = "ring R = vars(x, y, z, t);\n"

# One unit per kernel call the parser makes: the kernel's KrError must come
# out as a ParseError with the kernel's message, at the declaration's token.
KERNEL_ERROR_SITES = {
    "power": ("ring R = vars(x, t);\nlet bad = t^-1;",
              "negative exponent on non-Laurent variable 't'", 2, 11),
    "let transport": ("ring R = vars(x, y);\nlet a = y;\nring S = vars(x, z);\nlet b = a + 1;",
                      "variable 'y' does not exist in target table", 4, 9),
    "nf relation": (R4 + "let a = nf(x, z);",
                    "relation must have x^2*y with coefficient 1", 2, 9),
    "image evaluation": (R4 + "map M : R { x -> x; z -> quot(z, z + 1); }",
                         "quot(): not exactly divisible", 2, 21),
    "map block": ("ring R = vars(x, t ; laurent t);\nmap M : R { t -> t + 1; }",
                  "image of Laurent variable 't' must be a unit monomial", 2, 7),
    "extend": (R4 + "map M : R { y -> y + 1; }\n"
               "map E = extend(M, x^2*y + z^2 + x + t^3, 1);",
               "base map must not move y", 3, 9),
    "extend outside the group": (R4 + "map M : R { z -> z + 1; }\n"
                                 "map E = extend(M, x^2*y + z^2 + x + t^3, 1);",
                                 "map does not preserve the ideal (tail, x^2); "
                                 "not in the structure group", 3, 9),
    "compose": ("ring R = vars(x);\nmap A : R { x -> x + 1; }\n"
                "ring S = vars(x, y);\nmap B : S { x -> x; }\nmap C = compose(A, B);",
                "cannot compose maps over different tables", 5, 9),
    "subst_param": ("ring R = vars(x, c ; param c);\nmap M : R { x -> x + c; }\n"
                    "map N = subst_param(M, x, 1);",
                    "'x' is not a parameter", 3, 9),
    "conjugate": ("ring R = vars(x, y);\nderivation D : R { y -> 1; }\n"
                  "map A : R { y -> y + x; }\n"
                  "derivation E = conjugate(D, A, A, {y}, {y});",
                  "maps are not a verified inverse pair", 4, 16),
    "derivation relation": (R4 + "derivation D : R { z -> 1; } mod {z}",
                            "relation must have x^2*y with coefficient 1", 2, 14),
    "derivation descent": (R4 + "derivation D : R { z -> 1; } mod {x^2*y + z^2 + x + t^3}",
                           "derivation does not descend: image of the relation "
                           "is not a multiple", 2, 14),
    "inverse": ("ring R = vars(x);\nmap A : R { x -> x; }\n"
                "ring S = vars(x, y);\nmap B : S { x -> x; }\ninverse(A, B);",
                "cannot compose maps over different tables", 5, 8),
    "nilpotent relation": (R4 + "derivation D : R { z -> 1; }\n"
                           'claim "c" nilpotent(D, 4, z) expect true;',
                           "relation must have x^2*y with coefficient 1", 3, 21),
}


@pytest.mark.parametrize("site", sorted(KERNEL_ERROR_SITES))
def test_kernel_errors_are_positioned(site):
    text, message, line, col = KERNEL_ERROR_SITES[site]
    with pytest.raises(ParseError) as info:
        parse_unit(text)
    assert (info.value.message, info.value.line, info.value.col) == (message, line, col)


R2 = "ring R = vars(x, y);\n"
AB = "map A : R { y -> y + x; }\nmap B : R { y -> y - x; }\n"
AB_FMT = "map A : R {\n  y -> x + y;\n}\nmap B : R {\n  y -> -x + y;\n}\n"
S = "map S : R { y -> y + x; }\n"
S_FMT = "map S : R {\n  y -> x + y;\n}\n"
P4 = "ring R = vars(x, y, z, t);\nlet P = x^2*y + z^2 + x + t^3;\n"
P4_FMT = "ring R = vars(x, y, z, t);\nlet P = x^2*y + t^3 + z^2 + x;\n"
CP = "ring R = vars(x, y, c ; param c);\nmap M : R { y -> y + c*x; }\n"
CP_FMT = "ring R = vars(x, y, c ; param c);\nmap M : R {\n  y -> x*c + y;\n}\n"
LT = "ring R = vars(x, t ; laurent t);\n"


def _claim(body: str, expect: str = "true") -> str:
    return f'claim "c"\n  {body}\n  expect {expect};\n'


# Case id (its first word names the form) -> (unit, exact `fmt` output).  Every
# claim kind, constructor, built-in and inverse declaration, each optional group
# both absent and present; every unit's claims pass.
FMT_CASES = {
    "eq": (R2 + 'claim "c" eq((1 + x)^2, 1 + 2*x + x^2) expect true;',
           R2 + _claim("eq(x^2 + 2*x + 1, x^2 + 2*x + 1)")),
    "divides": (R2 + 'claim "c" divides(x^2 - 1, x + 1) expect true;',
                R2 + _claim("divides(x^2 - 1, x + 1)")),
    "member": (R2 + 'claim "c" member(x*y, {x}) anchor "x*y is in (x)" expect true;',
               R2 + 'claim "c"\n  member(x*y, {x})\n  anchor "x*y is in (x)"\n  expect true;\n'),
    "nilpotent": (R2 + 'derivation D : R { y -> x; }\nclaim "c" nilpotent(D, 3) expect true;',
                  R2 + "derivation D : R {\n  y -> x;\n}\n" + _claim("nilpotent(D, 3)")),
    "nilpotent relation": (
        P4 + 'derivation D : R { y -> 2*z; z -> -x^2; }\n'
        'claim "c" nilpotent(D, 8, P) expect true;',
        P4_FMT + "derivation D : R {\n  y -> 2*z;\n  z -> -x^2;\n}\n"
        + _claim("nilpotent(D, 8, x^2*y + t^3 + z^2 + x)")),
    "cone_class": (
        R2 + 'claim "c" cone_class(x^2 + y^3, point(0, 0), double_hyperplane) expect true;',
        R2 + _claim("cone_class(y^3 + x^2, point(0, 0), double_hyperplane)")),
    "cone_class two specs": (
        "ring R = vars(x, y, a, b ; param a, b);\n"
        'claim "c" cone_class(a*x^2 + b*y^2, point(0, 0), two_distinct_hyperplanes, '
        "a -> 1, b -> -1) expect true;",
        "ring R = vars(x, y, a, b ; param a, b);\n"
        + _claim("cone_class(x^2*a + y^2*b, point(0, 0), two_distinct_hyperplanes, "
                 "a -> 1, b -> -1)")),
    "smooth_at_all": (R2 + 'claim "c" smooth_at_all(x + y^2) expect true;',
                      R2 + _claim("smooth_at_all(y^2 + x)")),
    "singular_at": (R2 + 'claim "c" singular_at(x^2 + y^3, point(0, 0)) expect true;',
                    R2 + _claim("singular_at(y^3 + x^2, point(0, 0))")),
    "inverse_pair": (R2 + AB + 'claim "c" inverse_pair(A, B) expect true;',
                     R2 + AB_FMT + _claim("inverse_pair(A, B)")),
    "inverse_pair ideals": (R2 + S + 'claim "c" inverse_pair(S, S, {x}, {x}) expect true;',
                            R2 + S_FMT + _claim("inverse_pair(S, S, {x}, {x})")),
    "quasi_homogeneous": (
        R2 + 'claim "c" quasi_homogeneous(x^2 + y^3, weights(x -> 3, y -> 2), 6) expect true;',
        R2 + _claim("quasi_homogeneous(y^3 + x^2, weights(x -> 3, y -> 2), 6)")),
    "graph_variable": (R2 + 'claim "c" graph_variable(2*y + x^2, y) expect true;',
                       R2 + _claim("graph_variable(x^2 + 2*y, y)")),
    "laurent_free map": (LT + 'map M : R { x -> x*t; }\nclaim "c" laurent_free(M, t) expect true;',
                         LT + "map M : R {\n  x -> x*t;\n}\n" + _claim("laurent_free(M, t)")),
    "laurent_free derivation": (
        LT + 'derivation D : R { x -> t^-1; }\nclaim "c" laurent_free(D, t) expect false;',
        LT + "derivation D : R {\n  x -> t^-1;\n}\n" + _claim("laurent_free(D, t)", "false")),
    "extend": (P4 + 'map M : R { z -> -z; }\nmap E = extend(M, P, 1);\n'
               'claim "c" eq(E(y), y) expect true;',
               P4_FMT + "map M : R {\n  z -> -z;\n}\n"
               "map E = extend(M, x^2*y + t^3 + z^2 + x, 1);\n" + _claim("eq(E(y), y)")),
    "compose": (R2 + AB + 'map C = compose(A, A);\nclaim "c" eq(C(y), y + 2*x) expect true;',
                R2 + AB_FMT + "map C = compose(A, A);\n" + _claim("eq(C(y), 2*x + y)")),
    "subst_param": (CP + 'map N = subst_param(M, c, 2);\nclaim "c" eq(N(y), y + 2*x) expect true;',
                    CP_FMT + "map N = subst_param(M, c, 2);\n" + _claim("eq(N(y), 2*x + y)")),
    "subst_param preserving": (
        CP + 'map N = subst_param(M, c, 2) preserving {x};\n'
        'claim "c" eq(N(y), y + 2*x) expect true;',
        CP_FMT + "map N = subst_param(M, c, 2) preserving {x};\n"
        + _claim("eq(N(y), 2*x + y)")),
    "conjugate": (R2 + AB + 'derivation D : R { x -> 1; }\n'
                  'derivation E = conjugate(D, A, B, {x}, {x});\n'
                  'claim "c" eq(E(y), -1) expect true;',
                  R2 + AB_FMT + "derivation D : R {\n  x -> 1;\n}\n"
                  "derivation E = conjugate(D, A, B, {x}, {x});\n" + _claim("eq(E(y), -1)")),
    "inverse": (R2 + AB + 'inverse(A, B);\nclaim "c" eq(A(B(y)), y) expect true;',
                R2 + AB_FMT + "inverse(A, B);\n" + _claim("eq(A(B(y)), y)")),
    "inverse mod": (R2 + S + 'inverse(S, S) mod {x}, {x};\n'
                    'claim "c" member(S(S(y)) - y, {x}) expect true;',
                    R2 + S_FMT + "inverse(S, S) mod {x}, {x};\n"
                    + _claim("member(S(S(y)) - y, {x})")),
    "quot": (R2 + 'claim "c" eq(quot(x^2 - y^2, x + y), x - y) expect true;',
             R2 + _claim("eq(quot(x^2 - y^2, x + y), x - y)")),
    "nf": (P4 + 'claim "c" eq(nf(x^2*y, P), -z^2 - x - t^3) expect true;',
           P4_FMT + _claim("eq(nf(x^2*y, x^2*y + t^3 + z^2 + x), -t^3 - z^2 - x)")),
    "theta": ("ring R = vars(x, z, t);\nmap M : R { t -> t - x; }\n"
              'claim "c" eq(theta(M, z), 1) expect true;',
              "ring R = vars(x, z, t);\nmap M : R {\n  t -> -x + t;\n}\n"
              + _claim("eq(theta(M, z), 1)")),
    "jacdet": (R2 + AB + 'claim "c" eq(jacdet(A, x, y), 1) expect true;',
               R2 + AB_FMT + _claim("eq(jacdet(A, x, y), 1)")),
}


@pytest.mark.parametrize("case", sorted(FMT_CASES))
def test_fmt_prints_each_form_exactly(case):
    text, expected = FMT_CASES[case]
    assert format_unit(parse_unit(text)) == expected
    assert format_unit(parse_unit(expected)) == expected
    report = run_text(text)
    assert report.results and report.all_pass, report.to_text()


def test_fmt_cases_cover_every_form():
    forms = {case.split()[0] for case in FMT_CASES}
    assert forms - set(CONSTRUCTORS) - set(BUILTINS) - {"inverse"} == set(CLAIMS)
    assert set(CONSTRUCTORS) <= forms and set(BUILTINS) <= forms and "inverse" in forms


def test_readme_lists_exactly_the_claim_kinds():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("Claim kinds:")[1].split("\n\n")[1]
    assert set(re.findall(r"`(\w+)\(", section)) == set(CLAIMS)
    section = readme.split("Polynomials use explicit")[1].split("\n\n")[0]
    assert set(re.findall(r"`(\w+)\(", section.split("built-ins")[1])) == set(BUILTINS)


# A name argument is looked up and kind-checked as soon as it is read, and the
# error points at the name; every error about one token points at that token.
NAME_DIAGNOSTICS = {
    "compose": (R2 + "let P = x;\nmap M : R { y -> y; }\nmap C = compose(P, M);",
                "compose() needs a map, 'P' is a poly", 4, 17),
    "conjugate": (R2 + AB + "let P = x;\nderivation D : R { x -> 1; }\n"
                  "derivation E = conjugate(D, P, B, {x}, {x});",
                  "conjugate() needs a map, 'P' is a poly", 6, 29),
    "conjugate derivation": (R2 + AB + "derivation D : R { x -> 1; }\n"
                             "derivation E = conjugate(A, A, B, {x}, {x});",
                             "conjugate() needs a derivation, 'A' is a map", 5, 26),
    "inverse": (R2 + AB + "let P = x;\ninverse(A, P);",
                "inverse() needs a map, 'P' is a poly", 5, 12),
    "inverse_pair": (R2 + AB + "derivation D : R { x -> 1; }\n"
                     'claim "c" inverse_pair(A, D) expect true;',
                     "inverse_pair() needs a map, 'D' is a derivation", 5, 27),
    "laurent_free": (R2 + 'let P = x;\nclaim "c" laurent_free(P, x) expect true;',
                     "laurent_free() needs a derivation or map, 'P' is a poly", 3, 24),
    "undeclared before a later syntax error": (
        R2 + AB + "map C = compose(A, q, B);", "use of undeclared name 'q'", 4, 20),
    "jacdet variable": (R2 + AB + "let J = jacdet(A, 1);", "expected variable name", 4, 19),
    "narrative requirement": (
        R2 + 'claim "c" eq(x, x) expect true;\nnarrative "n" requires("c", "missing");\n'
        "let P = x;", "narrative references unknown claim 'missing'", 3, 29),
    "point arity": (R2 + 'claim "c" singular_at(x, point(0)) expect true;',
                    "point needs 2 coordinates, got 1", 2, 26),
    "flagged variable": ("ring R = vars(x ; param c);",
                         "flagged variable 'c' is not in vars(...)", 1, 25),
    "duplicate claim label": (R2 + 'claim "c" eq(x, x) expect true;\nclaim "c" eq(y, y) expect true;',
                              "duplicate claim label 'c'", 3, 7),
}


@pytest.mark.parametrize("case", sorted(NAME_DIAGNOSTICS))
def test_name_arguments_are_checked_where_read(case):
    text, message, line, col = NAME_DIAGNOSTICS[case]
    with pytest.raises(ParseError) as info:
        parse_unit(text)
    assert (info.value.message, info.value.line, info.value.col) == (message, line, col)
