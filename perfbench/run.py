#!/usr/bin/env python3
"""Benchmark of the hurwitz CLI: fixed job lists, timed end to end and per module.

    python3 perfbench/run.py --workload census14 --seed 1 --seconds 36 --trace 0

Runs the workload's jobs in this process through `cli.main(argv)`, with stdout
captured, in whole rounds until --seconds is used up.  With --trace 0 it
reports the end-to-end metrics (median round wall time, set-up time, peak
RSS); with --trace 1 it alternates untraced and traced rounds and reports the
per-layer metrics and the tracing overhead.  The first round's reports are
checked against independent expectations (checks.py); every later round must
print byte-identical reports.  The last stdout line is the JSON result; the
run's record, with the machine and git revision, goes to perfbench/out/.

The job lists are fixed and use no randomness: --seed is recorded only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {
    # The census (hurwitz_census) to genus 14, then the stage of the genus-17 census
    # that builds its two order-1344 groups through the homology pipeline,
    # where every permutation product has degree 1344.
    "census14": [
        ("census", "--max-genus", "14"),
        ("homology", "--group", "psl2:7", "--ell", "2", "--invariant-dim", "3",
         "--extensions"),
    ],
    # Large order, small degree: candidate scans, dedup, characters and the
    # kernel-homology linear algebra on the Hurwitz PSL(2,q) below order 9828.
    "psl2-family": [
        *(("dessins", "--group", f"psl2:{q}", "--characters") for q in (7, 8, 13)),
        *(("homology", "--group", f"psl2:{q}", "--ell", str(ell))
          for q in (7, 8) for ell in (2, 3, 7)),
        ("homology", "--group", "psl2:13", "--ell", "7"),
        ("homology", "--group", "psl2:7", "--ell", "2", "--invariant-dim", "3"),
    ],
    # Many small groups (orders 4-68), each built and searched once: per-call
    # and per-group set-up costs dominate.
    "origami18": [("origami", "--genus", str(g)) for g in range(1, 19)],
}

# Exit codes the CLI contract requires where it is not 0.  Genus 1 is a usage
# error; today a ValueError escapes cli.main instead, which counts as failed.
EXPECTED_EXIT = {("origami", "--genus", "1"): 1}

SETUP_RUNS = 5
SETUP_CODE = ("import sys, time\n"
              "t = time.perf_counter()\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "from hurwitz import cli\n"
              "cli.build_parser()\n"
              "print(time.perf_counter() - t)\n")


@dataclass
class JobRun:
    argv: tuple
    seconds: float
    code: int | None      # None when an exception escaped cli.main
    stdout: str
    error: str | None

    def outcome(self):
        return self.code, self.stdout, self.error


def run_job(cli, argv) -> JobRun:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        error = None
    except Exception as exc:  # an escaping traceback is the failure being counted
        code, error = None, f"{type(exc).__name__}: {exc}"
    return JobRun(tuple(argv), perf_counter() - t0, code, out.getvalue(), error)


def run_round(cli, jobs, tracer=None):
    """Run every job once; returns (wall seconds, [JobRun])."""
    if tracer is None:
        t0 = perf_counter()
        runs = [run_job(cli, argv) for argv in jobs]
        return perf_counter() - t0, runs
    tracer.install()
    try:
        t0 = perf_counter()
        runs = [tracer.job(lambda argv=argv: run_job(cli, argv)) for argv in jobs]
        return perf_counter() - t0, runs
    finally:
        tracer.uninstall()


def measure_setup(runs: int):
    """Seconds for a fresh interpreter to import hurwitz.cli and build its parser."""
    times = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout))
    return times


def revision() -> str:
    # stop git at the checkout's root: a copy without .git has no revision
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode != 0:
            return "unknown"
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, env=env, capture_output=True, text=True,
                               timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "hurwitz").glob("*.py")))


def verify(jobs, rounds):
    """(failed count, problems): checks round one, then byte-identity of the rest."""
    problems, failed = [], 0
    first = rounds[0]
    for job in first:
        if job.code == 0 and EXPECTED_EXIT.get(job.argv, 0) == 0:
            try:
                checks.check_job(job.argv, json.loads(job.stdout))
            except Exception as exc:  # a malformed report is a failed check too
                problems.append(f"{' '.join(job.argv)}: {type(exc).__name__}: {exc}")
    for runs in rounds:
        for job, ref in zip(runs, first):
            if job.code != EXPECTED_EXIT.get(job.argv, 0):
                failed += 1
            drift = f"{' '.join(job.argv)}: output differs between rounds"
            if job.outcome() != ref.outcome() and drift not in problems:
                problems.append(drift)
    return failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hurwitz" / "cli.py").is_file():
        print(f"perfbench: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    jobs = WORKLOADS[args.workload]
    setup = [] if args.trace else measure_setup(SETUP_RUNS)

    from hurwitz import cli

    plain, traced, traces = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        plain.append(run_round(cli, jobs))
        if args.trace:
            tracer = Tracer()
            traced.append(run_round(cli, jobs, tracer))
            traces.append(tracer)
        last = perf_counter() - t0
        if perf_counter() - start + last > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rounds = [runs for _, runs in plain + traced]
    failed, problems = verify(jobs, rounds)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    plain_wall = statistics.median(w for w, _ in plain)

    if args.trace:
        per_round = [layer_metrics(t.spans, t.pmul_calls()) for t in traces]
        traced_wall = statistics.median(w for w, _ in traced)
        # counts repeat exactly from round to round; median_low keeps them whole
        metrics = {name: {"value": (statistics.median_low if unit == "count"
                                    else statistics.median)(m[name][0] for m in per_round),
                          "unit": unit}
                   for name, (_, unit) in per_round[0].items()}
        metrics["src.lines"] = {"value": src_lines(), "unit": "count"}
        metrics["trace.overhead_pct"] = {
            "value": 100 * (traced_wall / plain_wall - 1), "unit": "%"}
    else:
        metrics = {
            "wall_s": {"value": plain_wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": len(jobs) * len(rounds),
              "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "revision": revision(), "machine": machine(),
        "untraced_round_s": [w for w, _ in plain],
        "traced_round_s": [w for w, _ in traced],
        "setup_runs_s": setup,
        # per job, one time per round: untraced rounds first
        "job_s": {" ".join(argv): [r[i].seconds for r in rounds]
                  for i, argv in enumerate(jobs)},
        "problems": problems,
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traces:
        t0 = traces[0].spans[0][1] if traces[0].spans else 0.0
        spans = [[n, s - t0, e - t0, p, c] for n, s, e, p, c in traces[0].spans]
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
