"""Command-line front end: subcommands, exit codes, formatting."""

import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import krcubic
from krcubic.claims import manifest_path
from krcubic.cli import main
from krcubic.errors import PostconditionError
from krcubic.geometry import CONE_TAGS
from krcubic.parser import (BUILTINS, CLAIMS, CONSTRUCTORS, MAX_DIGITS, MAX_NESTING,
                            format_unit, parse_unit)
from krcubic.poly import EXPONENT_LIMIT


PACKAGE = Path(krcubic.__file__).resolve().parent


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_shipped_manifest_passes(capsys):
    code, out, _ = run_cli(["check", "embeddings.krv"], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_check_negative_manifest_exits_one(capsys):
    code, out, _ = run_cli(["check", "embeddings_negative.krv"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_check_json_format(capsys):
    code, out, _ = run_cli(["check", "--format", "json", "stable.krv"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["all_pass"] is True


def test_check_accepts_files_on_disk(tmp_path, capsys):
    target = tmp_path / "unit.krv"
    target.write_text("ring R = vars(x);\nclaim \"c\" eq(x, x) expect true;\n")
    code, out, _ = run_cli(["check", str(target)], capsys)
    assert code == 0


def test_check_names_a_missing_path(tmp_path, capsys):
    path = str(tmp_path / "nosuch.krv")
    code, out, err = run_cli(["check", path], capsys)
    assert (code, out, err) == (2, "", f"error: no such file or shipped manifest: {path!r}\n")


def test_check_runs_every_file_and_exits_with_the_largest_code(tmp_path, capsys,
                                                               monkeypatch):
    bad = tmp_path / "bad.krv"
    bad.write_text("ring R = vars(x);\nlet p = quot(x, x + 1);\n")
    message = "2:9: quot(): not exactly divisible"
    assert run_cli(["check", str(bad)], capsys) == (2, "", f"error: {message}\n")
    # a failing file before and after a passing one: each is checked, and an
    # error names its file
    code, out, err = run_cli(["check", str(bad), "embeddings.krv", "fibers_negative.krv",
                              str(bad)], capsys)
    assert code == 2
    assert re.findall(r"^# (.*)$", out, re.M) == ["embeddings.krv", "fibers_negative.krv"]
    assert err == f"error: {bad}: {message}\n" * 2
    code, out, err = run_cli(["check", "fibers_negative.krv", "embeddings.krv"], capsys)
    assert (code, err) == (1, "") and out.count("\n# ") == 1
    from krcubic import cli as cli_mod
    run_file = cli_mod.claims_mod.run_file

    def sabotaged(name):
        if name == "whatever.krv":
            raise PostconditionError("division identity violated")
        return run_file(name)

    monkeypatch.setattr(cli_mod.claims_mod, "run_file", sabotaged)
    code, _, err = run_cli(["check", str(bad), "whatever.krv", "fibers_negative.krv"], capsys)
    assert code == 3
    assert err.splitlines()[1] == ("internal error: whatever.krv: "
                                   "PostconditionError: division identity violated")


def test_check_parallel_flag(capsys):
    # claims run on one serial path; --parallel is not an option
    code, _, err = run_cli(["check", "--parallel", "cylinder.krv"], capsys)
    assert code == 2
    assert "unrecognized arguments: --parallel" in err


def test_fmt_is_idempotent(tmp_path, capsys):
    source = manifest_path("stable.krv").read_text(encoding="utf-8")
    first = tmp_path / "first.krv"
    first.write_text(source)
    code, out1, _ = run_cli(["fmt", str(first)], capsys)
    assert code == 0
    second = tmp_path / "second.krv"
    second.write_text(out1)
    code, out2, _ = run_cli(["fmt", str(second)], capsys)
    assert code == 0
    assert out1 == out2


def test_fmt_takes_a_shipped_name(tmp_path, monkeypatch, capsys):
    code, by_path, _ = run_cli(["fmt", str(manifest_path("embeddings.krv"))], capsys)
    assert code == 0
    monkeypatch.chdir(tmp_path)
    assert run_cli(["fmt", "embeddings.krv"], capsys) == (0, by_path, "")


def test_fmt_does_not_evaluate_declarations(tmp_path, capsys):
    target = tmp_path / "unit.krv"
    target.write_text("ring R = vars(x);\nlet q = quot(x, x + 1);\n")
    code, out, _ = run_cli(["fmt", str(target)], capsys)
    assert code == 0 and out.endswith("let q = quot(x, x + 1);\n")
    code, out, err = run_cli(["check", str(target)], capsys)
    assert (code, out, err) == (2, "", "error: 2:9: quot(): not exactly divisible\n")


def test_a_failing_inverse_pair_is_that_claims_failure(tmp_path, capsys):
    # the pair check is a claim: it fails alone and the claims after it still run
    target = tmp_path / "unit.krv"
    target.write_text("ring R = vars(x, y);\nmap A : R { y -> y + x; }\n"
                      'claim "pair" inverse_pair(A, A) expect true;\n'
                      'claim "after" eq(A(y), y + x) expect true;\n')
    code, out, err = run_cli(["check", "--format", "json", str(target)], capsys)
    assert (code, err) == (1, "")
    claims = json.loads(out)["claims"]
    assert [(c["label"], c["status"]) for c in claims] == [("pair", "fail"), ("after", "pass")]
    assert claims[0]["detail"] == "evaluated false, expected true"


def test_an_exponent_past_the_limit_is_that_claims_error(tmp_path, capsys):
    # a monomial key holds exponents up to EXPONENT_LIMIT: one past it makes
    # the claim read error, and the claims after it still run
    e = EXPONENT_LIMIT
    target = tmp_path / "unit.krv"
    target.write_text("ring R = vars(x, y);\n"
                      f'claim "past" eq(x^{e}*x, x^{e + 1}) expect true;\n'
                      f'claim "at" eq(x^{e - 1}*x, x^{e}) expect true;\n')
    code, out, err = run_cli(["check", "--format", "json", str(target)], capsys)
    assert (code, err) == (1, "")
    claims = json.loads(out)["claims"]
    assert [(c["label"], c["status"]) for c in claims] == [("past", "error"), ("at", "pass")]
    assert claims[0]["detail"] == (f"ExponentOverflowError: exponent bound {e + 1} "
                                   f"exceeds the limit {e}")


def test_a_power_past_the_limit_is_refused_for_every_base(tmp_path, capsys):
    # the exponent is bounded even where the base's exponents are all zero:
    # 2^(10^12) would otherwise be computed, with about 3*10^11 digits
    big = 10 ** 12
    target = tmp_path / "unit.krv"
    target.write_text(f"ring R = vars(x);\nlet a = 2^{big};\n")
    assert run_cli(["check", str(target)], capsys) == (
        2, "", f"error: 2:9: exponent bound {big} exceeds the limit {EXPONENT_LIMIT}\n")
    target.write_text("ring R = vars(x);\n"
                      f'claim "huge" eq(2^{big}, 1) expect true;\n'
                      f'claim "at" eq(1^{EXPONENT_LIMIT}, 1) expect true;\n'
                      f'claim "past" eq(0^{EXPONENT_LIMIT + 1}, 0) expect true;\n')
    code, out, err = run_cli(["check", "--format", "json", str(target)], capsys)
    assert (code, err) == (1, "")
    claims = json.loads(out)["claims"]
    assert [c["status"] for c in claims] == ["error", "pass", "error"]
    assert claims[0]["detail"] == (f"ExponentOverflowError: exponent bound {big} "
                                   f"exceeds the limit {EXPONENT_LIMIT}")


def test_a_holding_member_claim_renders_no_detail(tmp_path, capsys):
    # f's coefficient, 4,817 digits, is past CPython's int/str limit, so
    # rendering f on a pass made the whole check an internal error
    target = tmp_path / "unit.krv"
    target.write_text('ring R = vars(x);\nclaim "big" member(2^16000*x, {x}) expect true;\n')
    code, out, err = run_cli(["check", "--format", "json", str(target)], capsys)
    assert (code, err) == (0, "")
    assert [(c["status"], c["detail"]) for c in json.loads(out)["claims"]] == [("pass", "")]


@pytest.mark.parametrize("claim, detail", [
    ("eq(2^16000, 0)", "lhs = <4817-digit integer>\nrhs = 0"),
    ("member(2^16000, {x})", "f = <4817-digit integer>"),
    ("eq(-3^10000*quot(x, 2^15000 + 1), 0)",
     "lhs = -<4772-digit integer>/<4516-digit integer>*x\nrhs = 0"),
], ids=["eq", "member", "fraction"])
def test_a_failing_claim_prints_an_integer_past_the_int_str_limit_by_its_length(
        tmp_path, capsys, claim, detail):
    # str() of such an integer raises ValueError, which once made the whole
    # check an internal error (exit 3); the failing claim is now a plain fail
    target = tmp_path / "unit.krv"
    target.write_text(f'ring R = vars(x);\nclaim "big" {claim} expect true;\n'
                      'claim "ok" eq(x, x) expect true;\n')
    code, out, err = run_cli(["check", "--format", "json", str(target)], capsys)
    assert (code, err) == (1, "")
    assert [(c["status"], c["detail"]) for c in json.loads(out)["claims"]] == [
        ("fail", detail), ("pass", "")]
    code, out, err = run_cli(["check", str(target)], capsys)
    assert (code, err) == (1, "") and out.endswith("1 passed, 1 failed, 0 errors\n")


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(["fmt", "no_such_file.krv"], capsys)
    assert code == 2
    assert err


# krv is check and fmt; the calculator subcommands (every name after the
# first) each printed a value that a claim kind decides, and are gone
@pytest.mark.parametrize("name", ["frobnicate", "eval", "tcone", "groebner", "member",
                                  "compose", "jacobian", "lnd"])
def test_unknown_subcommand_exits_two(name, capsys):
    code, _, err = run_cli([name], capsys)
    assert code == 2 and "invalid choice" in err


def test_console_script_entry_point():
    # the child imports the same package as this process, also when pytest
    # put src/ on sys.path rather than PYTHONPATH
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "krcubic.cli"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2  # no subcommand given
    assert "{check,fmt}" in proc.stderr  # the usage line lists every subcommand


def test_internal_errors_exit_three(monkeypatch, capsys):
    from krcubic import cli as cli_mod

    for exc in (RuntimeError("sabotaged"), PostconditionError("division identity violated")):
        def explode(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_mod.claims_mod, "run_file", explode)
        code, _, err = run_cli(["check", "whatever.krv"], capsys)
        assert code == 3
        assert "internal error" in err


def test_manifest_syntax_error_positions(tmp_path, capsys):
    target = tmp_path / "broken.krv"
    target.write_text("ring R = vars(x);\nlet a = x ++ 1;\n")
    code, _, err = run_cli(["check", str(target)], capsys)
    assert code == 2
    assert "2:" in err


def test_non_decimal_digit_is_a_positioned_error(tmp_path, capsys):
    target = tmp_path / "digit.krv"
    target.write_text("ring R = vars(x);\nlet P = x^²;\n", encoding="utf-8")
    code, _, err = run_cli(["check", str(target)], capsys)
    assert code == 2
    assert "2:11: unexpected character '²'" in err


# a number or w is a constant of the current ring, so it needs one; the error
# sits at the token after it
@pytest.mark.parametrize("command", ["check", "fmt"])
@pytest.mark.parametrize("text, col", [("let a = 1;", 10), ("let a = 1/2;", 12),
                                       ("let a = w;", 10),
                                       ('claim "c" eq(1, 1) expect true;', 15)])
def test_a_number_before_any_ring_exits_two(tmp_path, capsys, command, text, col):
    target = tmp_path / "ringless.krv"
    target.write_text(text + "\n", encoding="utf-8")
    assert run_cli([command, str(target)], capsys) == (2, "", f"error: 1:{col}: no ring declared yet\n")


def test_a_long_sum_checks_and_round_trips_through_fmt(tmp_path, capsys):
    # a sum or product of any length is one level of nesting: it is
    # evaluated and printed in a loop, not by one call per term
    n = 5000
    total = " + ".join(f"{i}*x" for i in range(1, n + 1))
    product = "*".join(["x"] * n)
    target = tmp_path / "long.krv"
    target.write_text("ring R = vars(x, y);\n"
                      f'claim "sum" eq({total} - y, {n * (n + 1) // 2}*x - y) expect true;\n'
                      f'claim "product" eq({product}, x^{n}) expect true;\n')
    assert run_cli(["check", str(target)], capsys)[0] == 0
    code, once, _ = run_cli(["fmt", str(target)], capsys)
    assert code == 0 and f"eq({total} - y, " in once and f"eq({product}, " in once
    again = tmp_path / "again.krv"
    again.write_text(once)
    assert run_cli(["fmt", str(again)], capsys) == (0, once, "")
    assert run_cli(["check", str(again)], capsys)[0] == 0


@pytest.mark.parametrize("command", ["check", "fmt"])
def test_nesting_past_the_limit_is_a_positioned_parse_error(tmp_path, capsys, command):
    # the deepest shape the limit allows, a quot() in each argument, still
    # evaluates and prints; 300 parentheses stop at the first one too many
    inner = "quot(" * (MAX_NESTING - 1) + "x" + ", 1)" * (MAX_NESTING - 1)
    target = tmp_path / "deep.krv"
    target.write_text(f'ring R = vars(x);\nclaim "c" eq({inner}, x) expect true;\n')
    assert run_cli([command, str(target)], capsys)[0] == 0
    target.write_text("ring R = vars(x);\nlet a = " + "(" * 300 + "x" + ")" * 300 + ";\n")
    col = len("let a = (") + MAX_NESTING
    assert run_cli([command, str(target)], capsys) == (
        2, "", f"error: 2:{col}: expressions nest deeper than {MAX_NESTING}\n")


# An integer literal longer than MAX_DIGITS is a parse error at its first
# digit, in check and fmt alike; converting it could fail by CPython's int/str
# limit, which PYTHONINTMAXSTRDIGITS may set as low as 640.
@pytest.mark.parametrize("command", ["check", "fmt"])
@pytest.mark.parametrize("template", ["let a = {}*x;", 'claim "c" eq({}, 1) expect true;',
                                      "let a = x^{};"])
def test_an_integer_past_the_digit_limit_is_a_positioned_parse_error(tmp_path, capsys,
                                                                     command, template):
    target = tmp_path / "digits.krv"
    target.write_text("ring R = vars(x);\n" + template.format("7" * 5001) + "\n")
    col = template.index("{}") + 1
    assert run_cli([command, str(target)], capsys) == (
        2, "", f"error: 2:{col}: integer longer than {MAX_DIGITS} digits\n")


def test_the_digit_limit_holds_under_the_smallest_int_str_limit(tmp_path):
    # no environment variable changes an outcome: under CPython's smallest
    # int/str limit a literal of MAX_DIGITS digits checks, and a longer one is
    # the same positioned parse error as without it
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    target = tmp_path / "digits.krv"
    for digits, code, err in ((MAX_DIGITS, 0, ""), (700, 2, f"error: 2:9: integer longer "
                                                            f"than {MAX_DIGITS} digits\n")):
        target.write_text(f'ring R = vars(x);\nlet a = {"9" * digits}*x;\n'
                          'claim "c" eq(a - a, 0) expect true;\n')
        proc = subprocess.run([sys.executable, "-m", "krcubic.cli", "check", str(target)],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (code, err)


# -- generated units -----------------------------------------------------------
# Hypothesis writes whole units from the shape tables: each argument of a claim
# kind, constructor or built-in is drawn for its shape, so every shape is read
# by the parser, printed by fmt and evaluated by claims.operands.  Numbers and
# exponents stay small, so that a unit runs in milliseconds.

class _Scope:
    """What a generated unit has declared so far."""

    def __init__(self, laurent: bool, param: bool):
        self.variables = ["x", "y", "z", "t"] + (["c"] if param else [])
        self.params = ["c"] if param else []
        self.laurent = laurent
        self.names = {"poly": ["P"], "map": [], "derivation": []}

    def named(self, shape: str) -> list:
        return [n for kind in shape.split("|") for n in self.names[kind]]


@st.composite
def _expr(draw, scope: _Scope, depth: int = 2, calls: bool = True) -> str:
    """An expression of the unit's ring, with every parenthesis written; a
    built-in, which most random operands make fail, only where calls is set."""
    choice = draw(st.integers(0, (6 + calls) if depth else 2))
    if choice == 0:
        return draw(st.sampled_from(["0", "1", "2", "1/2", "w"]))
    if choice == 1:
        return draw(st.sampled_from(scope.variables))
    if choice == 2:
        return draw(st.sampled_from(scope.names["poly"]))
    sub = _expr(scope, depth - 1, calls)
    if choice == 3:
        return f"({draw(sub)} {draw(st.sampled_from('+-*'))} {draw(sub)})"
    if choice == 4:
        return f"(-{draw(sub)})"
    if choice == 5:
        if scope.laurent and draw(st.booleans()):
            return f"t^{draw(st.sampled_from([-2, -1]))}"
        return f"({draw(sub)})^{draw(st.integers(0, 2))}"
    applied = scope.named("derivation|map")
    if choice == 6 and applied:
        return f"{draw(st.sampled_from(applied))}({draw(sub)})"
    if not calls:
        return draw(sub)
    fn = draw(st.sampled_from(list(BUILTINS)))
    return draw(_call(fn, BUILTINS[fn], scope, depth - 1))


@st.composite
def _argument(draw, shape: str, scope: _Scope, depth: int) -> str:
    """One argument written for shape, as Parser.argument reads it."""
    free = [v for v in scope.variables if v not in scope.params]
    if shape == "expr":
        return draw(_expr(scope, depth))
    if shape == "exprs":
        return "{" + ", ".join(draw(st.lists(_expr(scope, depth), min_size=1, max_size=2))) + "}"
    if shape == "ideals":
        return ", ".join(draw(_argument("exprs", scope, depth)) for _ in range(2))
    if shape == "point":  # constant or parametric coordinates
        coords = st.sampled_from(["0", "1", "-1", "w"] + scope.params)
        return "point(" + ", ".join(draw(coords) for _ in free) + ")"
    if shape in ("var", "param"):
        return draw(st.sampled_from(scope.params if shape == "param" and scope.params
                                    else scope.variables))
    if shape == "vars":
        return ", ".join(draw(st.lists(st.sampled_from(scope.variables), min_size=1,
                                       max_size=3, unique=True)))
    if shape in ("integer", "bound"):
        return str(draw(st.integers(1 if shape == "bound" else -1, 5)))
    if shape == "tag":
        return draw(st.sampled_from(CONE_TAGS))
    if shape == "weights":
        chosen = draw(st.lists(st.sampled_from(scope.variables), min_size=1, unique=True))
        return "weights(" + ", ".join(f"{v} -> {draw(st.integers(0, 3))}" for v in chosen) + ")"
    return draw(st.sampled_from(scope.named(shape)))


@st.composite
def _call(draw, fn: str, shapes: tuple, scope: _Scope, depth: int = 1) -> str:
    """fn applied to one argument per shape: an optional group drawn present or
    absent, a repeated one (specializations) once per drawn parameter."""
    parts = []
    for shape in shapes:
        if shape == "specialization*":
            for param in draw(st.lists(st.sampled_from(scope.params), unique=True)
                              if scope.params else st.just([])):
                parts.append(f"{param} -> {draw(_expr(scope, 0))}")
        elif not shape.endswith("?") or draw(st.booleans()):
            parts.append(draw(_argument(shape.rstrip("?"), scope, depth)))
    return f"{fn}({', '.join(parts)})"


@st.composite
def _unit(draw) -> tuple[list[str], list[str]]:
    """(declarations, claims) of a unit of one ring, as lines of text."""
    laurent, param = draw(st.booleans()), draw(st.booleans())
    scope = _Scope(laurent, param)
    sections = ["x, y, z, t" + (", c" if param else "")]
    sections += ["laurent t"] if laurent else []
    sections += ["param c"] if param else []
    decls = [f"ring R = vars({' ; '.join(sections)});", "let P = x^2*y + z^2 + x + t^3;"]
    # a map and a derivation first, so that every call has the names it reads
    drawn = st.sampled_from(["poly", "map", "derivation", "constructor"])
    for i, kind in enumerate(["map", "derivation"] + draw(st.lists(drawn, min_size=1,
                                                                   max_size=3))):
        name = f"n{i}"
        if kind == "poly":
            decls.append(f"let {name} = {draw(_expr(scope, calls=False))};")
        elif kind == "constructor":
            fn = draw(st.sampled_from(list(CONSTRUCTORS)))
            kind = CONSTRUCTORS[fn][0]
            decls.append(f"{kind} {name} = {draw(_call(fn, CONSTRUCTORS[fn], scope))};")
        else:
            # a map takes a Laurent t only to a unit monomial: leave t fixed
            fixed = scope.params + (["t"] if kind == "map" and laurent else [])
            moved = draw(st.lists(st.sampled_from([v for v in scope.variables
                                                   if v not in fixed]), unique=True))
            images = " ".join(f"{v} -> {draw(_expr(scope, 1, False))};" for v in moved)
            decls.append(f"{kind} {name} : R {{ {images} }}")
        scope.names[kind].append(name)
    claims = []
    for i in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(list(CLAIMS)))
        anchor = ' anchor "a"' if draw(st.booleans()) else ""
        claims.append(f'claim "c{i}" {draw(_call(kind, CLAIMS[kind], scope))}{anchor} '
                      f'expect {draw(st.sampled_from(["true", "false"]))};')
    cited = draw(st.lists(st.sampled_from([f"c{i}" for i in range(len(claims))]),
                          unique=True, max_size=2))
    if cited:
        claims.append("narrative \"n\" requires(" + ", ".join(f'"{c}"' for c in cited) + ");")
    return decls, claims


def _check(path) -> tuple[int, object]:
    """krv check's exit code and each entry's (label, kind, status, detail),
    or, for exit 2, its message without the position."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["check", "--format", "json", str(path)])
    if code == 2:
        return code, re.sub(r"^error: \d+:\d+: ", "", err.getvalue())
    return code, [(e["label"], e["kind"], e["status"], e["detail"])
                  for e in json.loads(out.getvalue())["claims"]]


# a claim that reads error wherever it stands: division by the zero polynomial
ERROR_CLAIM = 'claim "inserted" eq(quot(1, 0), 0) expect true;'


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_unit(), st.data())
def test_generated_units_exit_cleanly_round_trip_and_keep_errors_local(unit, data):
    decls, claims = unit
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "unit.krv"
        path.write_text("\n".join(decls + claims) + "\n")
        code, outcome = _check(path)
        assert code in (0, 1, 2), outcome
        # fmt only parses, so it prints every generated unit; what it prints
        # parses back to itself and checks the same
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["fmt", str(path)]) == 0
        formatted = out.getvalue()
        assert format_unit(parse_unit(formatted)) == formatted
        path.write_text(formatted)
        assert _check(path) == (code, outcome)
        if code == 2:  # a declaration failed: no claim ran
            return
        # a claim that reads error, put between two claims, moves no other status
        at = data.draw(st.integers(1, sum(line.startswith("claim") for line in claims) - 1))
        path.write_text("\n".join(decls + claims[:at] + [ERROR_CLAIM] + claims[at:]) + "\n")
        code_with, entries = _check(path)
        assert code_with == 1
        assert entries.pop(at)[:3] == ("inserted", "eq", "error")
        assert entries == outcome
