"""Command-line front end: `krv check` runs claim manifests and `krv fmt`
reprints one canonically; every computation is a claim kind of a manifest.

Exit codes: 0 success / all claims pass; 1 at least one claim failed;
2 usage or parse error; 3 internal invariant violation.  `check` runs every
file it is given and exits with the largest of their codes.  No environment
variables affect semantics; reports are reproducible from the flags alone.
"""

from __future__ import annotations

import argparse
import sys

from .errors import KrError, PostconditionError
from .parser import format_unit, parse_unit
from . import claims as claims_mod


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="krv",
        description="Exact verification of polynomial identities on the cubic threefold x^2*y + z^2 + x + t^3 = 0 and friends.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run claim manifests and report pass/fail")
    p.add_argument("files", nargs="+", help=".krv manifest paths, or shipped manifest names")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("fmt", help="reprint a .krv file canonically")
    p.add_argument("file", help=".krv manifest path, or shipped manifest name")
    return ap


def _exit_code(prefix: str, work, *args) -> int:
    """work(*args)'s exit code, or 2 or 3 for an error it raises, printed to
    stderr after prefix."""
    try:
        return work(*args)
    except PostconditionError as exc:
        print(f"internal error: {prefix}{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (KrError, OSError, ZeroDivisionError) as exc:
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - invariant violations
        print(f"internal error: {prefix}{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _check(name: str, fmt: str) -> int:
    report = claims_mod.run_file(name)
    print(report.to_json() if fmt == "json" else report.to_text())
    return 0 if report.all_pass else 1


def _fmt(name: str) -> int:
    print(format_unit(parse_unit(claims_mod.read_manifest(name))), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "check":  # every file, each error naming its file when there are more
        prefix = "{}: " if len(args.files) > 1 else ""
        return max([_exit_code(prefix.format(name), _check, name, args.format)
                    for name in args.files])
    return _exit_code("", _fmt, args.file)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
