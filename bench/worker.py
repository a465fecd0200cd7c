"""Run one pass of CLI invocations in a fresh interpreter and time each one.

Reads a JSON spec on stdin: {"src": ..., "outdir": ..., "argvs": [...],
"trace": bool}. Each argv goes to ``normdesign.cli.run`` with
``--output <outdir>/<i>.out`` appended, one after another. Prints one JSON
object on stdout: the per-call exit code, error and seconds, the process's
peak resident memory, the median time of the calibration loop run beside
the calls, the imported ``normdesign.__file__`` and, when tracing, the
per-layer span totals.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

from calibration import calibrate


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    import normdesign
    import normdesign.cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(normdesign.__file__).startswith(src + os.sep):
        print(f"normdesign imported from {normdesign.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    calls = []
    # The host's speed right now: the loop before the pass and after each call.
    cal = [calibrate() for _ in range(9)]
    # The CLI writes to --output; anything it prints goes to stderr so that
    # stdout carries only this worker's result.
    with contextlib.redirect_stdout(sys.stderr):
        for i, argv in enumerate(spec["argvs"]):
            out = os.path.join(spec["outdir"], f"{i}.out")
            error = None
            start = time.perf_counter()
            try:
                rc = normdesign.cli.run(argv + ["--output", out])
            except Exception:  # counted as a failed call, the pass goes on
                rc = None
                error = traceback.format_exc(limit=3)
            seconds = time.perf_counter() - start
            if tracer is not None and os.path.exists(out):
                tracer.counters["cli.output_bytes"] += os.path.getsize(out)
            calls.append({"rc": rc, "error": error, "seconds": seconds})
            cal.append(calibrate())
    result = {
        "normdesign_file": normdesign.__file__,
        "calls": calls,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "calibration_s": statistics.median(cal),
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
