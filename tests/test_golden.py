"""Pinned outputs: `krv check --format json` (every millis set to 0) and
`krv fmt` on each shipped manifest, byte for byte.

A change that means to alter a report or the canonical text regenerates the
files with `python tests/test_golden.py [report|fmt]` and says so in its
change log.  The two halves of each file are split once and compared, and
regenerated, each on its own.
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from krcubic.cli import main
from conftest import SHIPPED_MANIFESTS

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFESTS = sorted(SHIPPED_MANIFESTS + tuple(name.replace(".krv", "_negative.krv")
                                             for name in SHIPPED_MANIFESTS))


def _stdout(args) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(args)
    return buf.getvalue()


def outputs(name: str) -> str:
    """The JSON report with every millis set to 0, then the fmt output."""
    report = re.sub(r'"millis": \d+', '"millis": 0',
                    _stdout(["check", "--format", "json", name]))
    return report + _stdout(["fmt", name])


def golden_path(name: str) -> Path:
    return GOLDEN / name.replace(".krv", ".golden")


def halves(text: str) -> dict[str, str]:
    """The report and the fmt output, split after the report's closing brace."""
    report, _, fmt = text.partition("\n}\n")
    return {"report": report + "\n}\n", "fmt": fmt}


@pytest.mark.parametrize("name", MANIFESTS)
def test_outputs_match_the_golden_file(name):
    got, want = halves(outputs(name)), halves(golden_path(name).read_text(encoding="utf-8"))
    assert got["report"] == want["report"], "report half"
    assert got["fmt"] == want["fmt"], "fmt half"


if __name__ == "__main__":
    # `python tests/test_golden.py fmt` rewrites the fmt halves only, so a
    # regenerated fmt half cannot carry a report change; `report` likewise
    which = sys.argv[1:] or ["report", "fmt"]
    GOLDEN.mkdir(exist_ok=True)
    for name in MANIFESTS:
        path = golden_path(name)
        parts = halves(path.read_text(encoding="utf-8")) if path.exists() else {}
        parts.update((half, text) for half, text in halves(outputs(name)).items() if half in which)
        path.write_text(parts["report"] + parts["fmt"], encoding="utf-8")
        print(f"wrote the {' and '.join(which)} half of {path}", file=sys.stderr)
