"""Command-line front end.

Exit codes: 0 success / all claims pass; 1 at least one claim failed;
2 usage or parse error; 3 internal invariant violation.  No environment
variables affect semantics; reports are reproducible from the flags alone.
"""

from __future__ import annotations

import argparse
import sys

from .errors import KrError, PostconditionError
from .groebner import GREVLEX, LEX, buchberger, member
from .morphism import compose as compose_maps
from .morphism import jacobian
from .derivation import nilpotency_certificate
from .geometry import tangent_cone
from .parser import (format_unit, parse_over, parse_polynomial, parse_ring_spec,
                     parse_unit)
from .poly import render
from . import claims as claims_mod

DEFAULT_RING = "vars(x, y, z, t)"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="krv",
        description="Exact verification of polynomial identities on the cubic threefold x^2*y + z^2 + x + t^3 = 0 and friends.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run claim manifests and report pass/fail")
    p.add_argument("files", nargs="+", help=".krv manifest paths, or shipped manifest names")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("eval", help="evaluate a polynomial expression")
    p.add_argument("expr")
    p.add_argument("--ring", default=DEFAULT_RING,
                   help=f"ring spec, default {DEFAULT_RING!r}")

    p = sub.add_parser("fmt", help="reprint a .krv file canonically")
    p.add_argument("file")

    p = sub.add_parser("tcone", help="tangent cone of a hypersurface at a point")
    p.add_argument("--poly", required=True)
    p.add_argument("--point", required=True,
                   help="comma-separated coordinates for the non-parameter variables")
    p.add_argument("--ring", default=DEFAULT_RING,
                   help="ring spec; declare parameters in it, as 'vars(x, y0 ; param y0)'")

    p = sub.add_parser("groebner", help="reduced Groebner basis of an ideal")
    p.add_argument("gens", nargs="+")
    p.add_argument("--ring", default=DEFAULT_RING)
    p.add_argument("--order", choices=("grevlex", "lex"), default="grevlex")

    p = sub.add_parser("member", help="ideal membership test")
    p.add_argument("poly")
    p.add_argument("gens", nargs="+")
    p.add_argument("--ring", default=DEFAULT_RING)

    p = sub.add_parser("compose", help="compose two maps declared in a .krv file")
    p.add_argument("file")
    p.add_argument("outer")
    p.add_argument("inner")

    p = sub.add_parser("jacobian", help="Jacobian matrix and determinant of a declared map")
    p.add_argument("file")
    p.add_argument("map")
    p.add_argument("--vars", default=None,
                   help="comma-separated variable subset (default: all non-parameters)")

    p = sub.add_parser("lnd", help="nilpotency certificate for a declared derivation")
    p.add_argument("file")
    p.add_argument("derivation")
    p.add_argument("--bound", type=int, default=64)
    return ap


def _load_unit(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_unit(handle.read())


def _named(unit, name: str, kind: str):
    decl = unit.env.get(name)
    if decl is None or decl.kind != kind:
        raise KrError(f"file does not declare a {kind} named {name!r}")
    return decl.value


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.command == "check":
            all_pass = True
            for name in args.files:
                try:
                    report = claims_mod.run_file(name)
                except FileNotFoundError:
                    report = claims_mod.run_shipped(name)
                print(report.to_json() if args.format == "json" else report.to_text())
                all_pass = all_pass and report.all_pass
            return 0 if all_pass else 1

        if args.command == "eval":
            table = parse_ring_spec(args.ring)
            print(render(parse_polynomial(args.expr, table)))
            return 0

        if args.command == "fmt":
            print(format_unit(_load_unit(args.file)), end="")
            return 0

        if args.command == "tcone":
            table = parse_ring_spec(args.ring)
            f = parse_polynomial(args.poly, table)
            point = parse_over(args.point, table,
                               lambda p: p.coordinates(p.peek(), p.parse_poly))
            print(render(tangent_cone(f, point)))
            return 0

        if args.command == "groebner":
            table = parse_ring_spec(args.ring)
            order = GREVLEX if args.order == "grevlex" else LEX
            basis = buchberger([parse_polynomial(g, table) for g in args.gens], order)
            for g in basis.generators:
                print(render(g))
            return 0

        if args.command == "member":
            table = parse_ring_spec(args.ring)
            f = parse_polynomial(args.poly, table)
            gens = [parse_polynomial(g, table) for g in args.gens]
            inside = member(f, gens)
            print("member" if inside else "not a member")
            return 0 if inside else 1

        if args.command == "compose":
            unit = _load_unit(args.file)
            outer = _named(unit, args.outer, "map")
            inner = _named(unit, args.inner, "map")
            composed = compose_maps(outer, inner)
            for v in composed.table.non_params():
                print(f"{v} -> {render(composed.images[v])}")
            return 0

        if args.command == "jacobian":
            unit = _load_unit(args.file)
            mp = _named(unit, args.map, "map")
            names = (parse_over(args.vars, mp.table, lambda p: p.argument("jacobian", "vars"))
                     if args.vars else list(mp.table.non_params()))
            matrix, det = jacobian(mp, names)
            for row in matrix:
                print("[ " + " | ".join(render(e) for e in row) + " ]")
            print("det =", render(det))
            return 0

        if args.command == "lnd":
            unit = _load_unit(args.file)
            d = _named(unit, args.derivation, "derivation")
            cert = nilpotency_certificate(d, args.bound)
            for v, k in cert.orders.items():
                print(f"{v}: {k}")
            if cert.complete:
                print(f"locally nilpotent within bound {args.bound}")
                return 0
            print(f"bound {args.bound} exceeded at generator {cert.failed_generator}",
                  file=sys.stderr)
            return 1

        raise AssertionError(args.command)
    except PostconditionError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (KrError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - invariant violations
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
