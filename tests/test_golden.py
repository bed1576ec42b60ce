"""Pinned outputs: `krv check --format json` (every millis set to 0) and
`krv fmt` on each shipped manifest, byte for byte.

A change that means to alter a report or the canonical text regenerates the
files with `python tests/test_golden.py` and says so in its change log.
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


@pytest.mark.parametrize("name", MANIFESTS)
def test_outputs_match_the_golden_file(name):
    assert outputs(name) == golden_path(name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in MANIFESTS:
        golden_path(name).write_text(outputs(name), encoding="utf-8")
        print(f"wrote {golden_path(name)}", file=sys.stderr)
