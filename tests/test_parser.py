"""Grammar, diagnostics, canonical rendering and round-trips."""

import pathlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from krcubic import claims, derivation, morphism, parser
from krcubic.claims import VERDICTS, elaborate, manifest_path, run_text, run_unit
from krcubic.coeff import OMEGA
from krcubic.derivation import Derivation
from krcubic.errors import KrError, ParseError
from krcubic.morphism import RingMap
from krcubic.parser import (BUILTINS, CLAIMS, CONSTRUCTORS, KEYWORDS, BinOp, Builtin, Decl,
                            InverseDecl, Lit, Negate, Pow, Ref, format_unit, parse_unit,
                            tokenize)
from krcubic.poly import Polynomial, VarTable, render

from conftest import SHIPPED_MANIFESTS, parse_value, random_poly, random_table


def test_ring_and_binding():
    unit = parse_unit("ring R = vars(x, y, z, t);\n"
                      "let P = x^2*y + z^2 + x + t^3;")
    decl = unit.env["P"]
    assert decl.kind == "poly" and decl.ring == "R"
    env = elaborate(unit)
    x, y, z, t = (env["R"].var(n) for n in "xyzt")
    assert env["P"] == x ** 2 * y + z ** 2 + x + t ** 3


def test_each_ring_is_one_table():
    # the Groebner memo and the `table is other.table` fast paths rely on it
    env = elaborate(parse_unit("ring R = vars(x, y);\nlet a = x + 1;\nring S = vars(z);\n"
                               "let b = 2*z;\nmap M : R { y -> a; }\nlet c = M(y) + 1/2;"))
    assert env["a"].table is env["R"] and env["c"].table is env["R"]
    assert env["M"].images["y"].table is env["R"] and env["b"].table is env["S"]


def test_expansion_has_six_terms():
    unit = parse_unit("ring R = vars(x, y, z, t);\n"
                      "let u = (1 + x)*(z^2 + x + t^3);")
    value = elaborate(unit)["u"]
    assert len(value) == 6


def test_negative_exponent_needs_laurent_flag():
    with pytest.raises(ParseError) as info:
        elaborate(parse_unit("ring R = vars(x, t);\nlet bad = t^-1;"))
    assert "t" in str(info.value)
    assert info.value.line == 2
    elaborate(parse_unit("ring R = vars(x, t ; laurent t);\nlet ok = t^-1;"))


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


def test_ring_variable_may_not_hide_a_declared_name():
    # else p would read as B's variable from here on, not as the let
    with pytest.raises(ParseError) as info:
        parse_unit("ring A = vars(x, z);\nlet p = x + 1;\nring B = vars(p, x);\n"
                   'claim "c" eq(p, x + 1) expect true;')
    assert "'p' collides with a declared name" in str(info.value)
    assert (info.value.line, info.value.col) == (3, 15)
    with pytest.raises(ParseError, match="'A' collides with a declared name"):
        parse_unit("ring A = vars(x);\nring B = vars(y, A);")


def test_w_is_reserved():
    with pytest.raises(ParseError):
        parse_unit("ring R = vars(w);")
    env = elaborate(parse_unit("ring R = vars(t);\nlet a = (1 + w)*t;"))
    assert env["a"] == (1 + OMEGA) * env["R"].var("t")


def test_diagnostics_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_unit("ring R = vars(x);\nlet a = x +;")
    err = info.value
    assert err.line == 2 and err.col == 12


def test_rational_literals():
    T = VarTable(["t"])
    p = parse_value("1/2*t + 3", T)
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
    for name in SHIPPED_MANIFESTS:
        text = manifest_path(name).read_text(encoding="utf-8")
        once = format_unit(parse_unit(text))
        twice = format_unit(parse_unit(once))
        assert once == twice, name


def test_report_survives_a_round_trip_through_fmt():
    # an empty anchor is an anchor: the report reads "" for it, not null
    text = ('ring R = vars(x);\n'
            'claim "a" eq(x, x) anchor "" expect true;\n'
            'claim "b" eq(x, x) expect true;\n'
            'claim "c" eq(x, 2*x) anchor "doubled" expect false;\n')
    masked = lambda report: re.sub(r'"millis": \d+', '"millis": 0', report.to_json())
    before = masked(run_text(text))
    assert '"anchor": ""' in before and '"anchor": null' in before
    assert masked(run_text(format_unit(parse_unit(text)))) == before
    # the negative controls too: their details print rendered polynomials
    for name in SHIPPED_MANIFESTS:
        for manifest in (name, name.replace(".krv", "_negative.krv")):
            text = manifest_path(manifest).read_text(encoding="utf-8")
            assert masked(run_text(format_unit(parse_unit(text)))) == masked(run_text(text)), manifest


def test_ring_spec_parser():
    T = elaborate(parse_unit("ring R = vars(x, y, z, t, c0 ; laurent t ; param c0);"))["R"]
    assert T.names == ("x", "y", "z", "t", "c0")
    assert T.is_laurent("t") and T.is_param("c0")
    with pytest.raises(ParseError):
        parse_unit("ring R = vars(x, x);")
    with pytest.raises(ParseError):
        # flagged variables must be declared in the vars(...) list
        parse_unit("ring R = vars(x ; param c0);")


def test_round_trip_random_polynomials():
    rng = random.Random(2024)
    for _ in range(300):
        T = random_table(rng)
        p = random_poly(rng, T, max_terms=5, max_deg=4)
        assert parse_value(render(p), T) == p


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.text(alphabet="xyzt0123456789+-*^()/ w;=", max_size=40))
def test_parser_is_total_on_junk(text):
    T = VarTable(["x", "y", "z", "t"])
    try:
        parse_value(text, T)
    except (ParseError, KrError):
        pass  # positioned failure is the contract; no other exception may escape


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.text(max_size=60))
def test_unit_parser_is_total_on_arbitrary_text(text):
    try:
        elaborate(parse_unit(text))
    except (ParseError, KrError):
        pass


def _corrupt(text, rng, ops=range(4)):
    """text with one seeded corruption, of a kind drawn from ops: 0 a deleted
    or 1 an inserted character (the alphabet holds a non-decimal digit and a
    non-ASCII letter), 2 two adjacent words swapped, 3 a keyword put in, 4 the
    text cut short, perhaps ending in a comment with no newline, 5 lines
    unindented and broken after '=', so that declarations start lines."""
    i = rng.randrange(len(text))
    op = rng.choice(ops)
    if op == 0:
        return text[:i] + text[i + 1:]
    if op == 1:
        return text[:i] + rng.choice("xz19(){},;:^*+-/=\"#\n _²é") + text[i:]
    if op == 2:
        words = list(re.finditer(r"\S+", text))
        k = rng.randrange(len(words) - 1)
        a, b = words[k], words[k + 1]
        return text[:a.start()] + b[0] + text[a.end():b.start()] + a[0] + text[b.end():]
    if op == 3:
        return text[:i] + f" {rng.choice(sorted(KEYWORDS))} " + text[i:]
    if op == 4:
        return text[:i] + rng.choice(("", " # cut"))
    return re.sub(r"\n[ \t]+", "\n", text).replace("= ", "=\n")


def test_unit_parser_is_total_on_corrupted_manifests():
    # corruptions that reach expressions, which arbitrary text rarely does
    texts = [manifest_path(name).read_text(encoding="utf-8") for name in SHIPPED_MANIFESTS]
    rng = random.Random(8)
    for _ in range(300):
        try:
            elaborate(parse_unit(_corrupt(rng.choice(texts), rng)))
        except KrError:
            pass


def _where(text, offset):
    """The line and column of offset in text, counted from 1."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def test_tokenize_pins_kinds_and_positions():
    # (kind, text, offset), shown with the line and column counted from the
    # offset; a tab and a '\r' take one column each, a string sits at its
    # opening quote, and eof after a final comment sits at the '#'
    text = 'map m_2 :\tR { # note\r\n  y -> "s t" 12;\n} # end'
    assert [(kind, value, *_where(text, offset), offset)
            for kind, value, offset in tokenize(text)] == [
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
        ("eof", "", 3, 3, 41),
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


_BLOCK = re.compile(r"\b(?:map|derivation)\s+\w+\s*(?::\s*\w+\s*)?\{([^}]*)\}")
_IMAGE = re.compile(r"(\w+)\s*->\s*([^;]*);")


def _break_declaration(text, rng):
    """text with one declaration made to fail in the kernel, the kind of
    break, and the offset the failure must be reported at: a let's body made
    quot(x, x + 1), at the body; an image made t^-1, at its variable; or an
    extend's unit made 0, at 'extend'.  A text with a Laurent t, over which
    t^-1 is a value, has no image to break."""
    sites = [("let", m.start(1), m.span(1), "quot(x, x + 1)")
             for m in re.finditer(r"\blet\s+\w+\s*=\s*([^;]*);", text)]
    if not re.search(r"laurent[^;)]*\bt\b", text):
        sites += [("image", m.start(1), m.span(2), "t^-1")
                  for block in _BLOCK.finditer(text)
                  for m in _IMAGE.finditer(text, block.start(1), block.end(1))]
    sites += [("extend", m.start(), m.span(1), "0")
              for m in re.finditer(r"\bextend\(.*, ([^,]*)\);", text)]
    kind, at, (i, j), body = rng.choice(sites)
    return text[:i] + body + text[j:], kind, at


def test_every_position_is_counted_from_its_offset(monkeypatch):
    # a diagnostic's line and column are those of its offset, over seeded
    # corruptions of the shipped manifests and a tame-qw unit: syntax breaks
    # (a keyword put in, _corrupt's op 3, adds no case of its own), then
    # declarations that parse but fail in the kernel, which must be reported
    # at the declaration's expression, the image's variable or the
    # constructor's name
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "bench"))
    from workloads import tame_qw

    texts = [manifest_path(name).read_text(encoding="utf-8") for name in SHIPPED_MANIFESTS]
    texts.append(tame_qw(7)[0])
    rng = random.Random(31)
    seen = {"error": 0, "at eof": 0}  # "at eof": at the '#' of a final comment
    for _ in range(400):
        text = _corrupt(rng.choice(texts), rng, (0, 1, 2, 4, 5))
        try:
            parse_unit(text)
        except ParseError as exc:
            assert (exc.line, exc.col) == _where(text, exc.offset), (str(exc), exc.offset)
            seen["error"] += 1
            seen["at eof"] += text.endswith("# cut") and exc.message == "unexpected end of input"
    assert seen["error"] > 100 and seen["at eof"] > 5, seen
    broken = {"let": 0, "image": 0, "extend": 0}
    for _ in range(150):
        text, kind, at = _break_declaration(rng.choice(texts), rng)
        with pytest.raises(ParseError) as info:
            run_text(text)
        exc = info.value
        assert exc.__cause__ is not None, str(exc)  # a kernel error, not a syntax one
        assert (exc.line, exc.col, exc.offset) == (*_where(text, at), at), (kind, str(exc))
        broken[kind] += 1
    assert broken["let"] > 30 and broken["image"] > 30 and broken["extend"] > 0, broken


def test_expected_name_is_printed_once():
    with pytest.raises(ParseError) as info:
        parse_unit("ring R = vars(x);\nlet = x;")
    assert str(info.value) == "2:5: expected name"


def test_comment_and_whitespace_handling():
    unit = parse_unit("# leading comment\nring R = vars(x);  # trailing\nlet a = x; # done\n")
    assert "a" in unit.env


def test_unterminated_string():
    with pytest.raises(ParseError):
        parse_unit('ring R = vars(x);\nclaim "open eq(x, x) expect true;')


def test_inverse_declaration_records_the_pair():
    unit = parse_unit("""
ring R = vars(x, y);
map fwd : R { y -> y + x; }
map bwd : R { y -> y - x; }
inverse(fwd, bwd);
""")
    pair = unit.items[-1]
    assert isinstance(pair, InverseDecl)
    assert (pair.first, pair.second, pair.ring) == ("fwd", "bwd", "R")
    assert set(elaborate(unit)) == {"R", "fwd", "bwd"}


def test_inverse_declaration_rejects_non_inverses():
    with pytest.raises(ParseError) as info:
        run_text("""
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
    # a derivation is declared on the polynomial ring; a claim names the
    # quotient: nilpotent(d, k, P) iterates d modulo P, nf(d(f), P) is d(f) there
    unit = parse_unit("""
ring R = vars(x, y, z, t);
let P = x^2*y + z^2 + x + t^3;
derivation d : R { y -> 2*z; z -> -x^2; }
claim "nilpotent on the quotient" nilpotent(d, 8, P) expect true;
claim "image in the quotient" eq(nf(d(x^2*y^2), P), -4*z^3 - 4*x*z - 4*z*t^3) expect true;
""")
    assert elaborate(unit)["d"].relation is None
    report = run_unit(unit)
    assert report.all_pass, report.to_text()
    assert report.results[0].detail == "orders x:1, y:3, z:2, t:1"
    once = format_unit(unit)
    assert "mod" not in once
    assert format_unit(parse_unit(once)) == once


def test_derivation_relation_must_descend():
    report = run_text("""
ring R = vars(x, y, z, t);
derivation d : R { z -> 1; }
claim "c" nilpotent(d, 1, x^2*y + z^2 + x + t^3) expect true;
""")
    assert [(r.status, r.detail) for r in report.results] == [
        ("error", "DerivationError: derivation does not descend: "
                  "image of the relation is not a multiple")]


def test_mod_after_a_derivation_block_is_a_syntax_error():
    with pytest.raises(ParseError) as info:
        parse_unit("ring R = vars(x, y);\nderivation D : R { y -> x; } mod {x}\n")
    assert (info.value.message, info.value.line, info.value.col) == (
        "unknown declaration 'mod'", 2, 30)


def test_point_arity_checked():
    with pytest.raises(ParseError) as info:
        parse_unit('ring R = vars(x, y);\n'
                    'claim "c" singular_at(x, point(0)) expect true;')
    assert "coordinates" in str(info.value)


def test_sum_and_difference_build_no_product(monkeypatch):
    def no_product(self, other):
        raise RuntimeError("a product was computed for a sum or difference")

    monkeypatch.setattr(Polynomial, "__mul__", no_product)
    env = elaborate(parse_unit("ring R = vars(x);\nlet a = x + 1;\nlet b = x - 1;"))
    x, one = env["R"].var("x"), env["R"].one()
    assert env["a"] == x + one and env["b"] == x - one


R4 = "ring R = vars(x, y, z, t);\n"

# One unit per kernel call a declaration makes: the kernel's KrError, or the
# ZeroDivisionError of a division by the zero polynomial, must come out of
# run_unit as a ParseError with the kernel's message, at the declaration's
# token (an image's: its variable).
KERNEL_ERROR_SITES = {
    "power": ("ring R = vars(x, t);\nlet bad = t^-1;",
              "negative exponent on non-Laurent variable 't'", 2, 11),
    "let transport": ("ring R = vars(x, y);\nlet a = y;\nring S = vars(x, z);\nlet b = a + 1;",
                      "variable 'y' does not exist in target table", 4, 9),
    "let transport in an image": (
        "ring R = vars(x, y);\nlet a = x + y;\nring S = vars(x, z);\nmap M : S { z -> a; }",
        "variable 'y' does not exist in target table", 4, 13),
    "nf relation": (R4 + "let a = nf(x, z);",
                    "relation must have x^2*y with coefficient 1", 2, 9),
    "image evaluation": (R4 + "map M : R { x -> x; z -> quot(z, z + 1); }",
                         "quot(): not exactly divisible", 2, 21),
    "let zero divisor": ("ring R = vars(x);\nlet a = quot(x, 0);",
                         "division by the zero polynomial", 2, 9),
    "image zero divisor": ("ring R = vars(x);\nmap M : R { x -> quot(x, 0); }",
                           "division by the zero polynomial", 2, 13),
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
                "tables differ: VarTable(x) vs VarTable(x,y)", 5, 9),
    "subst_param": ("ring R = vars(x, c ; param c);\nmap M : R { x -> x + c; }\n"
                    "map N = subst_param(M, x, 1);",
                    "'x' is not a parameter", 3, 9),
    "conjugate": ("ring R = vars(x, y);\nderivation D : R { y -> 1; }\n"
                  "map A : R { y -> y + x; }\n"
                  "derivation E = conjugate(D, A, A, {y}, {y});",
                  "maps are not a verified inverse pair", 4, 16),
    "inverse": ("ring R = vars(x);\nmap A : R { x -> x; }\n"
                "ring S = vars(x, y);\nmap B : S { x -> x; }\ninverse(A, B);",
                "tables differ: VarTable(x) vs VarTable(x,y)", 5, 8),
    "extend operand over another ring": (
        "ring S = vars(x, y, z, t, u);\nmap N : S { y -> y; }\n" + R4 +
        "map M : R { z -> z; }\nmap E = extend(M, jacdet(N, x, y)*(x^2*y + z^2 + x + t^3), 1);",
        "tables differ: VarTable(x,y,z,t,u) vs VarTable(x,y,z,t)", 5, 9),
    "extend relation over another ring": (
        "ring S = vars(x, y, z, t, u);\nmap N : S { y -> 1/2*x^2*y^2 + (z^2 + x + t^3)*y; }\n"
        + R4 + "map M : R { z -> z; }\nmap E = extend(M, jacdet(N, y), 1);",
        "tables differ: VarTable(x,y,z,t) vs VarTable(x,y,z,t,u)", 5, 9),
    "conjugate ideal over another ring": (
        "ring S = vars(x, y, u);\nmap N : S { y -> y; }\nring R = vars(x, y);\n"
        "derivation D : R { y -> 1; }\nmap A : R { y -> y + x; }\nmap B : R { y -> y - x; }\n"
        "derivation E = conjugate(D, A, B, {jacdet(N, x, y)}, {x});",
        "tables differ: VarTable(x,y) vs VarTable(x,y,u)", 7, 16),
    # conjugate verifies its maps as an inverse pair modulo the two ideals it is
    # given: the second ideal, and both read after a ring switch, are checked too
    "inverse ideal over another ring": (
        "ring S = vars(x, y, u);\nmap N : S { y -> y; }\nring R = vars(x, y);\n"
        "derivation D : R { y -> 1; }\nmap A : R { y -> y + x; }\nmap B : R { y -> y - x; }\n"
        "derivation E = conjugate(D, A, B, {x}, {x, jacdet(N, x, y)});",
        "tables differ: VarTable(x,y) vs VarTable(x,y,u)", 7, 16),
    "inverse ideals after a ring switch": (
        "ring S = vars(x, y, z, t, u);\nderivation D : S { z -> 1; }\n"
        "map A : S { z -> z + x; }\nmap B : S { z -> z - x; }\n"
        + R4 + "derivation E = conjugate(D, A, B, {x}, {x});",
        "tables differ: VarTable(x,y,z,t,u) vs VarTable(x,y,z,t)", 6, 16),
}


@pytest.mark.parametrize("site", sorted(KERNEL_ERROR_SITES))
def test_kernel_errors_are_positioned(site):
    text, message, line, col = KERNEL_ERROR_SITES[site]
    with pytest.raises(ParseError) as info:
        run_text(text)
    assert (info.value.message, info.value.line, info.value.col) == (message, line, col)


R2 = "ring R = vars(x, y);\n"
AB = "map A : R { y -> y + x; }\nmap B : R { y -> y - x; }\n"
AB_FMT = "map A : R {\n  y -> y + x;\n}\nmap B : R {\n  y -> y - x;\n}\n"
S = "map S : R { y -> y + x; }\n"
S_FMT = "map S : R {\n  y -> y + x;\n}\n"
P4 = "ring R = vars(x, y, z, t);\nlet P = x^2*y + z^2 + x + t^3;\n"
CP = "ring R = vars(x, y, c ; param c);\nmap M : R { y -> y + c*x; }\n"
CP_FMT = "ring R = vars(x, y, c ; param c);\nmap M : R {\n  y -> y + c*x;\n}\n"
LT = "ring R = vars(x, t ; laurent t);\n"


def _claim(body: str, expect: str = "true") -> str:
    return f'claim "c"\n  {body}\n  expect {expect};\n'


# Case id (its first word names the form) -> (unit, exact `fmt` output).  Every
# claim kind, constructor, built-in and the inverse declaration, each optional
# group both absent and present; every unit's claims pass.
FMT_CASES = {
    "eq": (R2 + 'claim "c" eq((1 + x)^2, 1 + 2*x + x^2) expect true;',
           R2 + _claim("eq((1 + x)^2, 1 + 2*x + x^2)")),
    "eq Q(w) literal product": (
        "ring R = vars(x, t);\nlet a = x + t;\nlet b = a + (1 + w)*t;\n"
        'claim "c" eq(b - a, (1 + w)*t) expect true;',
        "ring R = vars(x, t);\nlet a = x + t;\nlet b = a + (1 + w)*t;\n"
        + _claim("eq(b - a, (1 + w)*t)")),
    "eq power": (R2 + AB + 'claim "c" eq(A(x)^2 + (A(y) - x)^2, x^2 + y^2) expect true;',
                 R2 + AB_FMT + _claim("eq(A(x)^2 + (A(y) - x)^2, x^2 + y^2)")),
    "divides": (R2 + 'claim "c" divides(x^2 - 1, x + 1) expect true;',
                R2 + _claim("divides(x^2 - 1, x + 1)")),
    "member": (R2 + 'claim "c" member(x*y, {x}) anchor "x*y is in (x)" expect true;',
               R2 + 'claim "c"\n  member(x*y, {x})\n  anchor "x*y is in (x)"\n  expect true;\n'),
    "nilpotent": (R2 + 'derivation D : R { y -> x; }\nclaim "c" nilpotent(D, 3) expect true;',
                  R2 + "derivation D : R {\n  y -> x;\n}\n" + _claim("nilpotent(D, 3)")),
    "nilpotent relation": (
        P4 + 'derivation D : R { y -> 2*z; z -> -x^2; }\n'
        'claim "c" nilpotent(D, 8, P) expect true;',
        P4 + "derivation D : R {\n  y -> 2*z;\n  z -> -x^2;\n}\n"
        + _claim("nilpotent(D, 8, P)")),
    "cone_class": (
        R2 + 'claim "c" cone_class(x^2 + y^3, point(0, 0), double_hyperplane) expect true;',
        R2 + _claim("cone_class(x^2 + y^3, point(0, 0), double_hyperplane)")),
    "cone_class two specs": (
        "ring R = vars(x, y, a, b ; param a, b);\n"
        'claim "c" cone_class(a*x^2 + b*y^2, point(0, 0), two_distinct_hyperplanes, '
        "a -> 1, b -> -1) expect true;",
        "ring R = vars(x, y, a, b ; param a, b);\n"
        + _claim("cone_class(a*x^2 + b*y^2, point(0, 0), two_distinct_hyperplanes, "
                 "a -> 1, b -> -1)")),
    "cone_class comma in a coordinate": (
        "ring R = vars(x, y, z, t, y0 ; param y0);\n"
        'claim "c" cone_class(x^2*y + z^2 + t^3, point(0, quot(y0, 1), 0, 0), '
        "two_distinct_hyperplanes, y0 -> -1) expect true;",
        "ring R = vars(x, y, z, t, y0 ; param y0);\n"
        + _claim("cone_class(x^2*y + z^2 + t^3, point(0, quot(y0, 1), 0, 0), "
                 "two_distinct_hyperplanes, y0 -> -1)")),
    "smooth_at_all": (R2 + 'claim "c" smooth_at_all(x + y^2) expect true;',
                      R2 + _claim("smooth_at_all(x + y^2)")),
    "singular_at": (R2 + 'claim "c" singular_at(x^2 + y^3, point(0, 0)) expect true;',
                    R2 + _claim("singular_at(x^2 + y^3, point(0, 0))")),
    "inverse_pair": (R2 + AB + 'claim "c" inverse_pair(A, B) expect true;',
                     R2 + AB_FMT + _claim("inverse_pair(A, B)")),
    "inverse_pair ideals": (R2 + S + 'claim "c" inverse_pair(S, S, {x}, {x}) expect true;',
                            R2 + S_FMT + _claim("inverse_pair(S, S, {x}, {x})")),
    "quasi_homogeneous": (
        R2 + 'claim "c" quasi_homogeneous(x^2 + y^3, weights(x -> 3, y -> 2), 6) expect true;',
        R2 + _claim("quasi_homogeneous(x^2 + y^3, weights(x -> 3, y -> 2), 6)")),
    "graph_variable": (R2 + 'claim "c" graph_variable(2*y + x^2, y) expect true;',
                       R2 + _claim("graph_variable(2*y + x^2, y)")),
    "laurent_free map": (LT + 'map M : R { x -> x*t; }\nclaim "c" laurent_free(M, t) expect true;',
                         LT + "map M : R {\n  x -> x*t;\n}\n" + _claim("laurent_free(M, t)")),
    "laurent_free derivation": (
        LT + 'derivation D : R { x -> t^-1; }\nclaim "c" laurent_free(D, t) expect false;',
        LT + "derivation D : R {\n  x -> t^-1;\n}\n" + _claim("laurent_free(D, t)", "false")),
    "extend": (P4 + 'map M : R { z -> -z; }\nmap E = extend(M, P, 1);\n'
               'claim "c" eq(E(y), y) expect true;',
               P4 + "map M : R {\n  z -> -z;\n}\n"
               "map E = extend(M, P, 1);\n" + _claim("eq(E(y), y)")),
    "compose": (R2 + AB + 'map C = compose(A, A);\nclaim "c" eq(C(y), y + 2*x) expect true;',
                R2 + AB_FMT + "map C = compose(A, A);\n" + _claim("eq(C(y), y + 2*x)")),
    "subst_param": (CP + 'map N = subst_param(M, c, 2);\nclaim "c" eq(N(y), y + 2*x) expect true;',
                    CP_FMT + "map N = subst_param(M, c, 2);\n" + _claim("eq(N(y), y + 2*x)")),
    "conjugate": (R2 + AB + 'derivation D : R { x -> 1; }\n'
                  'derivation E = conjugate(D, A, B, {x}, {x});\n'
                  'claim "c" eq(E(y), -1) expect true;',
                  R2 + AB_FMT + "derivation D : R {\n  x -> 1;\n}\n"
                  "derivation E = conjugate(D, A, B, {x}, {x});\n" + _claim("eq(E(y), -1)")),
    "inverse": (R2 + AB + 'inverse(A, B);\nclaim "c" eq(A(B(y)), y) expect true;',
                R2 + AB_FMT + "inverse(A, B);\n" + _claim("eq(A(B(y)), y)")),
    "quot": (R2 + 'claim "c" eq(quot(x^2 - y^2, x + y), x - y) expect true;',
             R2 + _claim("eq(quot(x^2 - y^2, x + y), x - y)")),
    "nf": (P4 + 'claim "c" eq(nf(x^2*y, P), -z^2 - x - t^3) expect true;',
           P4 + _claim("eq(nf(x^2*y, P), -z^2 - x - t^3)")),
    "theta": ("ring R = vars(x, z, t);\nmap M : R { t -> t - x; }\n"
              'claim "c" eq(theta(M, z), 1) expect true;',
              "ring R = vars(x, z, t);\nmap M : R {\n  t -> t - x;\n}\n"
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
    assert set(VERDICTS) == set(CLAIMS)
    # a stored kernel function would escape the tracer, which wraps module globals
    assert {verdict.__module__ for verdict in VERDICTS.values()} == {"krcubic.claims"}


# inverse(A, B) took a 'mod {...}, {...}' tail and subst_param a 'preserving
# {...}' one; the claims inverse_pair and member make those checks, and a unit
# that still writes a tail stops where it starts rather than pass without it
RETIRED_TAILS = {
    "inverse mod": (R2 + S + "inverse(S, S) mod {x}, {x};", "found 'mod'", 3, 15),
    "subst_param preserving": (CP + "map N = subst_param(M, c, 2) preserving {x};",
                               "found 'preserving'", 3, 30),
}


@pytest.mark.parametrize("case", sorted(RETIRED_TAILS))
def test_retired_tails_are_positioned_syntax_errors(case):
    text, message, line, col = RETIRED_TAILS[case]
    with pytest.raises(ParseError) as info:
        parse_unit(text)
    assert (info.value.message, info.value.line, info.value.col) == (message, line, col)
    assert info.value.expected == (";",)


# Every declaration form of the language, by the name _forms_written gives it
DECLARATION_FORMS = {"ring laurent", "ring param", "let", "map block", "derivation block",
                     "constructor", ": RING", "inverse", "narrative", "anchor",
                     "expect false"}


def _syntax(obj):
    """Every record in a piece of syntax, expression nodes included."""
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _syntax(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _syntax(item)
    elif hasattr(obj, "__slots__"):
        yield obj
        for slot in type(obj).__slots__:
            yield from _syntax(getattr(obj, slot))


def _forms_written(text: str) -> set[str]:
    """The claim kinds, constructors, built-ins and declaration forms a unit writes."""
    unit = parse_unit(text)
    decls = [item for item in unit.items if isinstance(item, Decl)]
    seen = {
        "ring laurent": any(ring.laurent for ring in unit.rings.values()),
        "ring param": any(ring.params for ring in unit.rings.values()),
        "let": any(d.kind == "poly" for d in decls),
        "map block": any(d.kind == "map" and d.ctor is None for d in decls),
        "derivation block": any(d.kind == "derivation" and d.ctor is None for d in decls),
        "constructor": any(d.ctor is not None for d in decls),
        ": RING": any(tok[1] == ":" for tok in tokenize(text)),  # a ':' says nothing else
        "inverse": any(isinstance(item, InverseDecl) for item in unit.items),
        "narrative": bool(unit.narratives),
        "anchor": any(claim.anchor is not None for claim in unit.claims),
        "expect false": any(not claim.expect for claim in unit.claims),
    }
    return ({form for form, written in seen.items() if written}
            | {claim.kind for claim in unit.claims}
            | {d.ctor[0] for d in decls if d.ctor is not None}
            | {node.fn for node in _syntax(unit.items) if isinstance(node, Builtin)})


def test_every_form_is_written_by_a_manifest(monkeypatch):
    # the shipped manifests and the benchmark's generated tame-qw manifest are
    # what the language is for; a form none of them writes is one no claim
    # runs (only tame-qw writes an inverse declaration)
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "bench"))
    from workloads import tame_qw

    texts = [manifest_path(name).read_text(encoding="utf-8") for name in SHIPPED_MANIFESTS]
    written = set().union(*map(_forms_written, texts + [tame_qw(7)[0]]))
    every = set(CLAIMS) | set(CONSTRUCTORS) | set(BUILTINS) | DECLARATION_FORMS
    assert every - written == set()
    one = "ring R = vars(x, y);\nmap M : R { y -> x; }\ninverse(M, M);"
    assert _forms_written(one) == {"map block", ": RING", "inverse"}


def test_fmt_prints_declarations_as_written():
    # a let read stays its name, images keep their order (identity included),
    # a derivation's images are printed as written, and so is
    # every expression: terms in written order, numbers and w as spelled
    text = (P4 + "let Q = P + 1;\nlet S = - ( 1+x ) * t^3 + 2/4 - w^2*z + 03;\n"
            "map M : R { z -> Q; y -> y; }\n"
            "derivation D : R { z -> -x^2; y -> 2*z; }\n")
    assert format_unit(parse_unit(text)) == (
        P4 + "let Q = P + 1;\nlet S = -(1 + x)*t^3 + 2/4 - w^2*z + 03;\n"
        "map M : R {\n  z -> Q;\n  y -> y;\n}\n"
        "derivation D : R {\n  z -> -x^2;\n  y -> 2*z;\n}\n")


def _tree(node):
    """A node as nested tuples, so that two parses compare by structure."""
    if not hasattr(node, "render"):
        return node  # a name, a text, an operator or an exponent
    return (type(node).__name__, *(_tree(getattr(node, slot)) for slot in type(node).__slots__))


def _random_node(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Lit("2"), Lit("1/2"), Lit("w"), Ref("x"), Ref("y")])
    form = rng.randrange(5)
    if form == 0:
        return Negate(_random_node(rng, depth - 1))
    if form == 1:
        return Pow(_random_node(rng, depth - 1), rng.randint(-1, 3))
    return BinOp("+-*"[form - 2], _random_node(rng, depth - 1), _random_node(rng, depth - 1))


def test_fmt_prints_the_tree_with_the_fewest_parentheses():
    # a printed expression parses back to the same tree, and dropping any one
    # of its pairs of parentheses yields another tree or no parse, except
    # around a fraction under '^', kept because 3/2^2 would read as 3/4
    def reparse(text):
        return parse_unit(f"ring R = vars(x, y);\nlet a = {text};").env["a"].body

    rng = random.Random(26)
    for _ in range(300):
        node = _random_node(rng, 4)
        text = node.render()
        assert _tree(reparse(text)) == _tree(node), text
        for m in re.finditer(r"\(", text):
            depth, close = 0, m.start()
            while depth or close == m.start():
                depth += {"(": 1, ")": -1}.get(text[close], 0)
                close += 1
            inner = text[m.start() + 1:close - 1]
            if inner == "1/2" and text[close:close + 1] == "^":
                continue
            try:
                assert _tree(reparse(text[:m.start()] + inner + text[close:])) != _tree(node), text
            except ParseError:
                pass


# Every entry point of the kernel's evaluation that a declaration or claim
# reaches, and VarTable(), without which no table and so no polynomial is built
KERNEL = ((VarTable, "__init__"), (Polynomial, "substitute"), (RingMap, "__init__"),
          (Derivation, "__init__"),
          *((module, name) for module in (morphism, derivation, claims, parser)
            for name in ("verify_inverse_pair", "exact_divide", "normal_form",
                         "extend_to_quotient_automorphism", "compose", "conjugate",
                         "substitute_parameter", "theta_extract", "jacobian")
            if hasattr(module, name)))


def test_fmt_is_kernel_free(monkeypatch):
    def kernel_call(*args, **kwargs):
        raise RuntimeError("fmt called the kernel")

    for owner, name in KERNEL:
        monkeypatch.setattr(owner, name, kernel_call)
    for name in SHIPPED_MANIFESTS:
        for manifest in (name, name.replace(".krv", "_negative.krv")):
            format_unit(parse_unit(manifest_path(manifest).read_text(encoding="utf-8")))
    with pytest.raises(RuntimeError, match="fmt called the kernel"):
        run_text(manifest_path("stable.krv").read_text(encoding="utf-8"))


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
    "jacdet repeated variable": (R2 + AB + 'claim "c" eq(jacdet(A, x, x), 0) expect true;',
                                 "duplicate variable 'x'", 4, 27),
    "narrative requirement": (
        R2 + 'claim "c" eq(x, x) expect true;\nnarrative "n" requires("c", "missing");\n'
        "let P = x;", "narrative references unknown claim 'missing'", 3, 29),
    "point arity": (R2 + 'claim "c" singular_at(x, point(0)) expect true;',
                    "point needs 2 coordinates, got 1", 2, 26),
    "flagged variable": ("ring R = vars(x ; param c);",
                         "flagged variable 'c' is not in vars(...)", 1, 25),
    "ring variable": ("ring R = vars(x, );", "expected variable name", 1, 18),
    "duplicate claim label": (R2 + 'claim "c" eq(x, x) expect true;\nclaim "c" eq(y, y) expect true;',
                              "duplicate label 'c'", 3, 7),
    "narrative label after a claim label": (
        R2 + 'claim "c" eq(x, x) expect true;\nnarrative "c" requires("c");',
        "duplicate label 'c'", 3, 11),
    "two narratives share a label": (
        R2 + 'claim "c" eq(x, x) expect true;\nnarrative "n" requires("c");\n'
        'narrative "n" requires("c");', "duplicate label 'n'", 4, 11),
    "duplicate weight": (R2 + 'claim "c" quasi_homogeneous(x^2 + y^3, '
                         "weights(x -> 3, y -> 2, x -> 1), 6) expect true;",
                         "duplicate weight for 'x'", 2, 64),
    "duplicate specialization": (
        "ring R = vars(x, y, a ; param a);\n"
        'claim "c" cone_class(a*x^2 + y^2, point(0, 0), two_distinct_hyperplanes, '
        "a -> 1, a -> -1) expect true;", "duplicate specialization for 'a'", 2, 82),
}


@pytest.mark.parametrize("case", sorted(NAME_DIAGNOSTICS))
def test_name_arguments_are_checked_where_read(case):
    text, message, line, col = NAME_DIAGNOSTICS[case]
    with pytest.raises(ParseError) as info:
        parse_unit(text)
    assert (info.value.message, info.value.line, info.value.col) == (message, line, col)
