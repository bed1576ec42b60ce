"""One benchmark pass in a fresh interpreter.

The parent starts this script and waits for the line ``ready``, printed as
soon as ``import krcubic`` has finished (that interval is ``setup_s``); the
worker's own imports come after it.  The parent then sends one JSON job on
stdin: ``{"manifests": [[source, text], ...], "trace": bool}``.  The script
verifies each manifest the way ``krv check --format json`` does, and prints
one JSON result line.  An empty manifest list times set-up alone.  The pass's
start and end are given on the system-wide monotonic clock, so that the
parent can take out the times it held the process stopped (see run.py).

Each pass runs in its own process because users run one ``krv check`` per
process: nothing built or cached by an earlier pass may help a later one.
"""

import krcubic  # noqa: F401

print("ready", flush=True)

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from krcubic.claims import run_text  # noqa: E402


def main() -> int:
    job = json.loads(sys.stdin.readline())
    tracer = None
    if job["trace"]:
        import tracer as tracing
        tracer = tracing.install()
    start = time.monotonic()
    outputs = [run_text(text, source).to_json() for source, text in job["manifests"]]
    end = time.monotonic()
    statuses = {}
    for out in outputs:
        for claim in json.loads(out)["claims"]:
            if claim["kind"] != "narrative":
                statuses[claim["label"]] = claim["status"]
    result = {
        "start": start,
        "end": end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "statuses": statuses,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
