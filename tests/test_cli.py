"""Command-line front end: subcommands, exit codes, formatting."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import krcubic
from krcubic.claims import manifest_path
from krcubic.cli import main
from krcubic.errors import PostconditionError


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
    import json
    payload = json.loads(out)
    assert payload["summary"]["all_pass"] is True


def test_check_accepts_files_on_disk(tmp_path, capsys):
    target = tmp_path / "unit.krv"
    target.write_text("ring R = vars(x);\nclaim \"c\" eq(x, x) expect true;\n")
    code, out, _ = run_cli(["check", str(target)], capsys)
    assert code == 0


def test_check_parallel_flag(capsys):
    # claims run on one serial path; --parallel is not an option
    code, _, err = run_cli(["check", "--parallel", "cylinder.krv"], capsys)
    assert code == 2
    assert "unrecognized arguments: --parallel" in err


def test_eval_prints_canonical_form(capsys):
    expr = "(1+x)*(x^2*y+z^2+x+t^3) - (x^2*y+(1+x)*(z^2+x+t^3))"
    code, out, _ = run_cli(["eval", expr], capsys)
    assert code == 0
    assert out.strip() == "x^3*y"


def test_eval_parse_error_exits_two(capsys):
    code, _, err = run_cli(["eval", "t^-1"], capsys)
    assert code == 2
    assert "1:" in err


def test_eval_custom_ring(capsys):
    code, out, _ = run_cli(
        ["eval", "--ring", "vars(a, b ; laurent b)", "a*b^-2"], capsys)
    assert code == 0
    assert out.strip() == "a*b^-2"


def test_tcone_subcommand(capsys):
    code, out, _ = run_cli(
        ["tcone", "--poly", "x^2*y+z^2+t^3", "--point", "0,y0,0,0",
         "--ring", "vars(x, y, z, t, y0 ; param y0)"], capsys)
    assert code == 0
    assert out.strip() == "x^2*y0 + z^2"
    # the ring spec declares parameters; there is no --param option
    code, _, _ = run_cli(
        ["tcone", "--poly", "x^2*y+z^2+t^3", "--point", "0,y0,0,0",
         "--param", "y0"], capsys)
    assert code == 2


def test_groebner_subcommand(capsys):
    code, out, _ = run_cli(
        ["groebner", "--ring", "vars(x,z,t)", "x^2", "z^2+t^3+x"], capsys)
    assert code == 0
    assert out.splitlines() == ["x^2", "t^3 + z^2 + x"]


def test_member_subcommand(capsys):
    code, out, _ = run_cli(
        ["member", "--ring", "vars(x,z,t)", "x^2*z", "x^2", "z^2+t^3+x"], capsys)
    assert code == 0 and out.strip() == "member"
    code, out, _ = run_cli(
        ["member", "--ring", "vars(x,z,t)", "z", "x^2", "z^2+t^3+x"], capsys)
    assert code == 1 and out.strip() == "not a member"


def test_compose_subcommand(tmp_path, capsys):
    target = tmp_path / "maps.krv"
    target.write_text("""ring R = vars(x, y, z, t);
map fwd : R { y -> (1 + x)*y; }
map bwd : R { y -> (1 - x)*y - x - z^2 - t^3; }
""")
    code, out, _ = run_cli(["compose", str(target), "fwd", "bwd"], capsys)
    assert code == 0
    assert "y -> " in out
    assert "-x^2*y" in out  # y - P


def test_jacobian_subcommand(tmp_path, capsys):
    target = tmp_path / "maps.krv"
    target.write_text("""ring R = vars(x, z, t);
map m : R { z -> z + 3*x*t^5; t -> t + 2*x*(z + 3*x*t^5)^3; }
""")
    code, out, _ = run_cli(["jacobian", str(target), "m", "--vars", "z,t"], capsys)
    assert code == 0
    assert out.strip().endswith("det = 1")


def test_cli_lists_are_read_by_the_parser(tmp_path, capsys):
    # spaces after the commas, and a comma inside a coordinate
    target = tmp_path / "maps.krv"
    target.write_text("ring R = vars(x, z, t);\nmap m : R { z -> z + x; t -> t + x*z; }\n")
    code, out, _ = run_cli(["jacobian", str(target), "m", "--vars", "z, t"], capsys)
    assert code == 0 and out.strip().endswith("det = 1")
    tcone = ["tcone", "--poly", "x^2*y+z^2+t^3",
             "--ring", "vars(x, y, z, t, y0 ; param y0)", "--point"]
    code, out, _ = run_cli(tcone + ["0,quot(y0, 1),0,0"], capsys)
    assert (code, out.strip()) == (0, "x^2*y0 + z^2")
    code, _, err = run_cli(tcone + ["0, y0, 0"], capsys)
    assert (code, err.strip()) == (2, "error: 1:1: point needs 4 coordinates, got 3")
    code, _, err = run_cli(["jacobian", str(target), "m", "--vars", "z, z"], capsys)
    assert (code, err.strip()) == (2, "error: 1:4: duplicate variable 'z'")


def test_lnd_subcommand(tmp_path, capsys):
    target = tmp_path / "deriv.krv"
    target.write_text("""ring L = vars(x, y, z, t, v ; laurent t);
derivation flow : L { x -> -2*t^6*z; z -> t^6*(y + 1); }
""")
    code, out, _ = run_cli(["lnd", str(target), "flow", "--bound", "8"], capsys)
    assert code == 0
    assert "x: 3" in out and "locally nilpotent" in out


def test_lnd_bound_exceeded(tmp_path, capsys):
    target = tmp_path / "deriv.krv"
    target.write_text("ring R = vars(x);\nderivation grow : R { x -> x; }\n")
    code, _, err = run_cli(["lnd", str(target), "grow", "--bound", "4"], capsys)
    assert code == 1
    assert "exceeded" in err


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


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(["fmt", "no_such_file.krv"], capsys)
    assert code == 2
    assert err


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


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


@pytest.mark.parametrize("spec, diagnostic", [
    ("vars(x, )", "1:9: expected variable name\n"),
    ("vars(x ; param c)", "1:16: flagged variable 'c' is not in vars(...)"),
])
def test_ring_spec_errors_are_positioned_in_the_spec(spec, diagnostic, capsys):
    code, _, err = run_cli(["eval", "x", "--ring", spec], capsys)
    assert code == 2
    assert diagnostic in err
