"""The krcubic benchmark: time from manifest text to a trusted verdict.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole verification passes of one workload (see workloads.py and
README.md), each in a fresh interpreter, one at a time, for about S seconds,
and checks every claim's reported status against the workload's answer key.
The last line of stdout is one JSON object:

    {"correct": bool, "attempted": claims checked, "failed": claims whose
     status differed from the key (missing and errored claims included),
     "metrics": {name: {"value": number, "unit": text}}}

With --trace 0 the metrics are the end-to-end ones, from untraced passes:
verify_s (median pass wall time, manifest text to finished JSON report),
setup_s (median time from process start to ``import krcubic`` finished) and
peak_rss_mb (median peak resident memory of a pass process).  Both times are
corrected for host speed (see REF_SQUARE_S and reference.py); the raw
verify_s median is printed on the line before.  With --trace 1 untraced and
traced passes alternate; the metrics are the per-layer medians of the traced
passes (see tracer.py), their times corrected the same way, and
trace.overhead, the ratio of traced to untraced verify_s.

The program under test is the checkout's own ``src/krcubic``, imported from
source; the benchmark fails without printing a result if it is absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference.py"
# Every metric's unit, as BENCHMARK.json lists it.
UNITS = {m["name"]: m["unit"]
         for kind in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]}

# A traced autgroup pass takes about five seconds on a 2-vCPU host.
PASS_TIMEOUT_S = 120
# setup_s is a median over at least this many process starts per run.
SETUP_SAMPLES = 15
# Host speed.  On a shared host the same code runs up to 1.6 times slower,
# switching between fast and slow every few tenths of a second; CPU time
# slows with the wall clock.  So every SAMPLE_EVERY_S of a pass, the worker
# is stopped and reference.py, in a process of its own on the same CPU, times
# one fixed square; also once before and once after.  Pass times, less the
# stops, are multiplied by REF_SQUARE_S / (the mean of the pass's squares):
# REF_SQUARE_S is a square's time on an unloaded 2-vCPU host with Python
# 3.11, so corrected times read as seconds on such a host.
SAMPLE_EVERY_S = 0.05
REF_SQUARE_S = 0.0013


class BenchError(RuntimeError):
    pass


def _pin_to_one_cpu():
    """Run this process, and so every process it starts, on one CPU: the
    reference then measures the CPU that the passes run on, and while it runs
    the stopped worker cannot."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Reference:
    """reference.py, kept running for the whole measurement."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(REFERENCE)], cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if self.proc.stdout.readline() != "ready\n":
            self.close()
            raise BenchError("reference.py failed to start")

    def square(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.kill()
        self.proc.wait()


def _spawn(job: dict, ref: Reference) -> dict:
    """Run one job in a fresh worker, sampling host speed around and during
    it.  Returns the worker's result plus setup_s, verify_s (pass wall time
    less stops), wall_s (with them) and scale (REF_SQUARE_S / mean square)."""
    before = ref.square()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    stops: list[tuple[float, float]] = []
    try:
        ready = proc.stdout.readline()
        setup_s = time.monotonic() - start
        if ready != b"ready\n":
            proc.kill()
            output = ready + proc.stdout.read() + proc.stderr.read()
            raise BenchError(f"worker failed to start:\n{output.decode()}")
        squares = [ref.square()]
        proc.stdin.write(json.dumps(job).encode() + b"\n")
        proc.stdin.close()
        while not select.select([proc.stdout], [], [], SAMPLE_EVERY_S)[0]:
            if time.monotonic() - start > PASS_TIMEOUT_S:
                raise BenchError(f"pass took over {PASS_TIMEOUT_S} s")
            os.kill(proc.pid, signal.SIGSTOP)
            stopped = time.monotonic()
            squares.append(ref.square())
            stops.append((stopped, time.monotonic()))
            os.kill(proc.pid, signal.SIGCONT)
        out = proc.stdout.read().decode()
        err = proc.stderr.read().decode()
        proc.wait(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{out}{err}")
    res = json.loads(out.splitlines()[-1])
    squares.append(ref.square())
    wall_s = res["end"] - res["start"]
    paused = sum(max(0.0, min(b, res["end"]) - max(a, res["start"])) for a, b in stops)
    res.update(setup_s=setup_s * 2 * REF_SQUARE_S / (before + squares[0]),
               verify_s=wall_s - paused, wall_s=wall_s,
               scale=REF_SQUARE_S / statistics.fmean(squares))
    return res


def measure(manifests, key: dict[str, str], seconds: float, trace: bool) -> dict:
    """Run passes until the next one would overrun `seconds` (at least one of
    each kind), checking every pass's verdicts against the key."""
    _pin_to_one_cpu()
    ref = Reference()
    try:
        kinds = (False, True) if trace else (False,)
        passes: dict[bool, list[dict]] = {False: [], True: []}
        last_s = {False: 0.0, True: 0.0}
        attempted = failed = unexpected = 0
        start = time.monotonic()
        i = 0
        while True:
            traced = kinds[i % len(kinds)]
            if i >= len(kinds) and time.monotonic() - start + last_s[traced] > seconds:
                break
            began = time.monotonic()
            res = _spawn({"manifests": manifests, "trace": traced}, ref)
            last_s[traced] = time.monotonic() - began
            passes[traced].append(res)
            statuses = res["statuses"]
            attempted += len(key)
            failed += sum(statuses.get(label) != want for label, want in key.items())
            unexpected += sum(label not in key for label in statuses)
            i += 1
        setups = [p["setup_s"] for p in passes[False] + passes[True]]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(_spawn({"manifests": [], "trace": False}, ref)["setup_s"])
    finally:
        ref.close()

    plain = passes[False]
    verify_s = statistics.median(p["verify_s"] * p["scale"] for p in plain)
    summary = {
        "passes": len(plain), "traced_passes": len(passes[True]),
        "verify_wall_s": statistics.median(p["verify_s"] for p in plain),
        "reference_square_s": statistics.median(REF_SQUARE_S / p["scale"] for p in plain),
        "setup_samples": len(setups),
        "verdict_mismatch": failed / attempted, "unexpected_labels": unexpected,
    }
    if trace:
        traced = passes[True]
        # Span times include the stops; take them out in proportion.
        metrics = {name: statistics.median(
                       p["layers"][name] * (p["verify_s"] / p["wall_s"] * p["scale"]
                                            if UNITS[name] == "s" else 1)
                       for p in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead"] = statistics.median(
            p["verify_s"] * p["scale"] for p in traced) / verify_s
    else:
        metrics = {
            "verify_s": verify_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()},
            "summary": summary}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "krcubic" / "__init__.py").is_file():
        print(f"error: no krcubic sources under {SRC}", file=sys.stderr)
        return 2
    manifests, key = workloads.load(args.workload, args.seed)
    digest = hashlib.sha256("".join(t for _, t in manifests).encode()).hexdigest()
    try:
        result = measure(manifests, key, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = result.pop("summary")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "manifest_sha256": digest, "claims": len(key), **summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
