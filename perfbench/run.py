"""galela benchmark: real CLI jobs, one fresh worker process at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --record

Each job runs galela.cli.main(argv) in a fresh interpreter (perfbench/
worker.py), so no in-process memo or cache carries over from one job to the
next.  The load is a closed loop with one client: the next job starts when
the previous one has been reaped, and no job starts that would not be
expected to end within --seconds (at least one always runs).

With --trace 0 the run reports the end-to-end metrics: job_s (job time,
worker ready to JSON written, rescaled to a reference interpreter speed by
calibration loops interleaved with the job, see calibrate.py; median over
the run's jobs), setup_s (worker spawn to galela imported, rescaled the same
way; median over every spawn of the run, including set-up probes that only
import), peak_rss_mb (worker peak RSS from os.wait4).  The human line also
gives the measured wall_s and setup seconds before rescaling.  With
--trace 1 it alternates untraced and traced jobs and reports per-layer
metrics from the traced ones (see trace_layers.py), and writes the spans to
.perfbench/spans-<workload>-<seed>.json.

Every job's stdout is checked against perfbench/reference.json; a job that
exits non-zero, raises or prints something else counts as failed.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
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

from calibrate import rescale

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".perfbench"

RUN_DEADLINE_S = 170.0  # a run never outlives this, whatever --seconds says
SETUP_PROBES = 12  # import-only spawns per untraced run, after one warm-up
RECORDED_STAR_SEEDS = range(10)
WARM_UP_CALL = ["field", "--p", "2", "--h", "1", "--json"]

WORKLOADS = ("census", "classify", "lemma1", "star")


def job_calls(workload: str, seed: int) -> list[list[str]]:
    """The CLI argv lists one job of the workload runs in a single worker.

    Only star samples its input (256 of the 37,128 line pairs of PG(2,16));
    the other workloads are exhaustive and ignore the seed.
    """
    if workload == "census":
        return [["census", "--s", "8", "--t", "4", "--q", "2", "--json"]]
    if workload == "classify":
        return [["classify", "--p", "3", "--h", "6", "--m", str(m), "--json"]
                for m in range(1, 7)]
    if workload == "lemma1":
        return [["verify", "lemma1", "--r", "3", "--p", "2", "--h", "2", "--json"]]
    if workload == "star":
        return [["verify", "bruckbose", "--r", "3", "--p", "2", "--h", "4", "--n", "1",
                 "--seed", str(seed), "--json"]]
    raise ValueError(f"unknown workload {workload!r}")


# -- one worker -----------------------------------------------------------------

def spawn(calls, trace: bool, deadline: float) -> dict:
    """Run one worker to completion and return its result with spawn time and peak RSS."""
    # Imports use a bytecode cache inside the checkout, as an installed
    # package would, whatever the caller's PYTHONDONTWRITEBYTECODE says.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(OUT_DIR / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spec = json.dumps({"calls": calls, "trace": trace})
    spawned = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), spec], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE)
    chunks = []
    timed_out = False
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    except BaseException:
        proc.kill()  # interrupted: leave no worker behind
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"returncode": proc.returncode, "timed_out": timed_out,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}  # ru_maxrss is in KiB on Linux
    if not timed_out and proc.returncode == 0:
        result.update(json.loads(b"".join(chunks)))
        result["raw_setup_s"] = result["imported"] - spawned
        result["setup_s"] = rescale(result["raw_setup_s"], result["setup_loops"])
        # wall_s: the job as measured, less the calibration loops run inside it
        result["wall_s"] = result["done"] - result["ready"] - sum(result["job_loops"])
        if result["job_loops"]:
            result["job_s"] = rescale(result["wall_s"], result["job_loops"])
    return result


# -- correctness ----------------------------------------------------------------

def seed_free(stdout: str) -> str:
    """The star report without its seed, as canonical JSON."""
    report = json.loads(stdout)
    report["sample"].pop("seed")
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def check(result: dict, workload: str, seed: int, reference: dict) -> str | None:
    """None when the job's output is the reference output, else why not."""
    if result["timed_out"]:
        return "worker timed out"
    if result["returncode"] != 0:
        return f"worker exited with {result['returncode']}"
    if result["error"] is not None:
        return result["error"]
    if any(code != 0 for code in result["exit_codes"]):
        return f"cli exit codes {result['exit_codes']}"
    stdout = result["stdout"]
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    ref = reference[workload]
    if workload != "star":
        return None if digest == ref["sha256"] else f"stdout digest {digest} differs"
    recorded = ref["sha256_by_seed"].get(str(seed))
    if recorded is not None:
        return None if digest == recorded else f"stdout digest {digest} differs"
    try:
        report = json.loads(stdout)
        if report.get("ok") is not True or report["sample"]["seed"] != seed:
            return "star report is not ok or carries another seed"
        if seed_free(stdout) != ref["seed_free"]:
            return "star report differs in a seed-independent field"
    except (ValueError, KeyError, TypeError) as exc:
        return f"star report unreadable: {exc!r}"
    return None


# -- runs -----------------------------------------------------------------------

def closed_loop(seconds: float, deadline: float, one_job):
    """Call one_job() back to back until the next would overrun the run."""
    start = time.perf_counter()
    jobs = 0
    while True:
        one_job()
        jobs += 1
        elapsed = time.perf_counter() - start
        if elapsed * (jobs + 1) / jobs > seconds or time.perf_counter() >= deadline:
            return


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    calls = job_calls(workload, seed)
    setups, raw_setups, jobs, traced, failures = [], [], [], [], []

    def job(traced_job: bool):
        result = spawn(calls, traced_job, deadline)
        why = check(result, workload, seed, reference)
        if why is not None:
            failures.append(why)
            print(f"{workload}: job failed: {why}", file=sys.stderr)
        if "setup_s" in result:
            setups.append(result["setup_s"])
            raw_setups.append(result["raw_setup_s"])
        (traced if traced_job else jobs).append(result)

    if trace:
        closed_loop(seconds, deadline, lambda: (job(False), job(True)))
    else:
        # warm-up: on a fresh checkout, compiles the bytecode of galela and of
        # what a CLI call imports lazily (argparse pulls in locale)
        spawn([WARM_UP_CALL], False, deadline)
        for _ in range(SETUP_PROBES):
            probe = spawn([], False, deadline)
            if "setup_s" in probe:
                setups.append(probe["setup_s"])
                raw_setups.append(probe["raw_setup_s"])
        closed_loop(seconds, deadline, lambda: job(False))

    attempted = len(jobs) + len(traced)
    jobs = [r for r in jobs if "job_s" in r]
    traced = [r for r in traced if "wall_s" in r]
    measured = {}
    if trace:
        metrics = trace_metrics(workload, seed, jobs, traced) if jobs and traced else {}
    else:
        metrics = {
            "job_s": {"value": statistics.median(r["job_s"] for r in jobs), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in jobs),
                            "unit": "MB"},
        } if jobs else {}
        if jobs:
            measured = {"wall_s": statistics.median(r["wall_s"] for r in jobs),
                        "raw_setup_s": statistics.median(raw_setups)}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "measured": measured}


def trace_metrics(workload: str, seed: int, untraced: list, traced: list) -> dict:
    per_job = [r["trace"]["metrics"] for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = traced_wall
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["untraced.wall_s"] = untraced_wall
    metrics["untraced.job_s"] = statistics.median(r["job_s"] for r in untraced)
    metrics["calib.loop_s"] = statistics.median(
        sum(r["job_loops"]) / len(r["job_loops"]) for r in untraced)
    OUT_DIR.mkdir(exist_ok=True)
    spans = [r["trace"]["spans"] for r in traced]
    (OUT_DIR / f"spans-{workload}-{seed}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "jobs": spans}))
    return {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


# -- output ---------------------------------------------------------------------

def summary(workload: str, result: dict, with_metrics: bool) -> str:
    fail_frac = result["failed"] / result["attempted"]
    parts = [f"{name} {m['value']:.6g} {m['unit']}"
             for name, m in result["metrics"].items() if with_metrics]
    parts += [f"{name} {value:.6g} s" for name, value in result["measured"].items()]
    parts.append(f"fail_frac {fail_frac:g} ({result['failed']}/{result['attempted']} jobs)")
    return f"{workload}: " + " | ".join(parts)


def trace_table(result: dict) -> list[str]:
    """Per-layer self time as a share of the traced job's CPU time."""
    metrics = result["metrics"]
    cpu = metrics["trace.cpu_s"]["value"]
    lines = []
    for name, m in metrics.items():
        share = f"  {m['value'] / cpu:6.1%} of cpu" if name.endswith(".self_s") and cpu else ""
        lines.append(f"  {name:36s} {m['value']:>14.6g} {m['unit']}{share}")
    return lines


def record() -> int:
    """Write reference.json from the current tree; only valid on a known-good commit."""
    deadline = time.perf_counter() + 3600
    out = {}
    for workload in WORKLOADS:
        seeds = RECORDED_STAR_SEEDS if workload == "star" else [0]
        for seed in seeds:
            result = spawn(job_calls(workload, seed), False, deadline)
            if result["returncode"] != 0 or result["error"] or any(result["exit_codes"]):
                print(f"{workload} seed {seed}: job failed", file=sys.stderr)
                return 1
            digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
            if workload == "star":
                entry = out.setdefault("star", {"sha256_by_seed": {},
                                                "seed_free": seed_free(result["stdout"])})
                entry["sha256_by_seed"][str(seed)] = digest
            else:
                out[workload] = {"sha256": digest}
            print(f"{workload} seed {seed}: {result['wall_s']:.2f} s "
                  f"{result['peak_rss_mb']:.0f} MB {digest}")
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from this tree's outputs")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() kills the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "galela" / "cli.py").is_file():
        print(f"galela sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    reference = json.loads(REFERENCE.read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), reference)
        print(summary(workload, result, with_metrics=not args.trace))
        if args.trace and result["metrics"]:
            print("\n".join(trace_table(result)))
        result.pop("measured")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
