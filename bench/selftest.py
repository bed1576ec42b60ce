"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks, at a tiny size and with no wall-time gate, that:

* tame-qw generation is deterministic and its key covers every claim;
* every workload prints each metric named in BENCHMARK.json with its unit,
  untraced and traced, and reads zero verdict mismatches;
* every per-layer metric is nonzero on at least one workload, so no traced
  layer silently lost its spans;
* the verdict check is not vacuous: swapping any shipped manifest for its
  ``*_negative.krv`` control reads exactly one mismatch;
* in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile

import run
import workloads


def check(cond: bool, message: str):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def tame_generation():
    a, key = workloads.tame_qw(7)
    b, _ = workloads.tame_qw(7)
    check(a == b, "tame-qw text differs between two runs of one seed")
    check(a != workloads.tame_qw(8)[0], "tame-qw ignores its seed")
    check("seed 7" in a, "tame-qw manifest does not record its seed")
    check(len(key) == 9 * workloads.TAME_PAIRS and a.count("\nclaim ") == len(key),
          "tame-qw key does not cover every claim")
    check(set(key.values()) == {"pass", "fail"}, "tame-qw key lacks a failing verdict")


def metrics_printed(spec: dict) -> None:
    expected = {False: spec["end_to_end"], True: spec["per_layer"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    seen = dict.fromkeys(per_layer, 0)
    for name in workloads.NAMES:
        manifests, key = workloads.load(name, seed=1, pairs=2)
        for trace in (False, True):
            result = run.measure(manifests, key, 0, trace)
            check(result["correct"] and result["failed"] == 0,
                  f"{name}: {result['failed']} verdict mismatches")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in expected[trace]}
            check(got == want, f"{name} trace={trace}: printed {got}, expected {want}")
            for k, v in result["metrics"].items():
                if k in per_layer:
                    seen[k] = max(seen[k], v["value"])
        print(f"ok  {name}: metrics and verdicts")
    dead = [k for k, v in seen.items() if not v > 0]
    check(not dead, f"per-layer metrics zero on every workload: {dead}")
    print("ok  every per-layer metric is nonzero on some workload")


LABEL = re.compile(r'^claim\s+"([^"]+)"', re.M)


def relabelled_control(manifest: str) -> str:
    """The manifest's negative control, with the corrupted claim given back its
    shipped label, so that only its reported status can differ from the key."""
    shipped = workloads.shipped_text(manifest)
    control = workloads.shipped_text(manifest.replace(".krv", "_negative.krv"))
    gone = set(LABEL.findall(shipped)) - set(LABEL.findall(control))
    added = set(LABEL.findall(control)) - set(LABEL.findall(shipped))
    check(len(gone) == len(added) == 1, f"{manifest}: control does not rename one claim")
    return control.replace(f'"{added.pop()}"', f'"{gone.pop()}"')


def negative_controls():
    for name, files in workloads.SHIPPED.items():
        for manifest in files:
            manifests, key = workloads.load(name, seed=1)
            control = relabelled_control(manifest)
            swapped = [(src, control if src == manifest else text)
                       for src, text in manifests]
            failed = run.measure(swapped, key, 0, False)["failed"]
            check(failed == 1, f"{manifest} control read {failed} mismatches, expected 1")
            print(f"ok  {manifest} negative control: exactly one mismatch")


def bare_directory():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, f"{tmp}/bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "breadth", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  without the sources the benchmark fails and prints no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tame_generation()
    print("ok  tame-qw generation is deterministic")
    metrics_printed(spec)
    negative_controls()
    bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
