"""One benchmark job in a fresh interpreter.

Usage: python3 perfbench/worker.py '<spec json>'

The spec is {"calls": [[argv...], ...], "trace": bool} or {"calls": []} for
a set-up probe that only imports galela.  The worker imports galela.cli
first, so the import timestamp marks the end of set-up, and times a burst of
calibration loops right after it (see calibrate.py).  Then it runs each
argv through galela.cli.main with stdout captured, untraced jobs with the
calibration loop interleaved, and writes one JSON object to its own stdout:

    {"imported": t, "setup_loops": [s...], "ready": t, "done": t,
     "job_loops": [s...], "exit_codes": [...], "stdout": "...",
     "error": null | "...", "trace": null | {...}}

Timestamps are time.perf_counter() values, which on Linux read the
system-wide monotonic clock, so the parent can subtract its own spawn time.
"""

import time

import galela.cli

IMPORTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402

SETUP_LOOPS = calibrate.burst()


def run(spec) -> dict:
    tracer = sampler = None
    if spec.get("trace"):
        import trace_layers

        tracer = trace_layers.Tracer()
        tracer.install()
    elif spec["calls"]:
        sampler = calibrate.Sampler()
    out = io.StringIO()
    codes = []
    error = None
    ready = time.perf_counter()
    if sampler is not None:
        sampler.start()
    try:
        with contextlib.redirect_stdout(out):
            for argv in spec["calls"]:
                codes.append(galela.cli.main(argv))
    except SystemExit as exc:  # argparse rejects the argv
        codes.append(exc.code)
        error = f"SystemExit({exc.code!r})"
    except Exception:  # any crash is a failed job, reported to the parent
        error = traceback.format_exc()
    done = time.perf_counter()
    if sampler is not None:
        sampler.stop()
    result = {"imported": IMPORTED, "setup_loops": SETUP_LOOPS, "ready": ready, "done": done,
              "job_loops": sampler.durations if sampler is not None else [],
              "exit_codes": codes, "stdout": out.getvalue(), "error": error,
              "trace": None}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report()
    return result


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run(json.loads(sys.argv[1]))))
