#!/usr/bin/env python3
"""Benchmark of the ordchain CLI, run from the root of a source checkout:

    python3 bench/run.py --workload embed|cont|tree --seed N --seconds S --trace 0|1

One process, one client, closed loop: seeded jobs go back to back through
`ordchain.cli.main(argv)` with stdout captured, sharing the library's
in-process caches as a library session would.  Jobs run in whole rounds
(see workloads.py) for about `--seconds` of job CPU time.  Jobs are timed
by the CPU time of this process, not by the wall clock: the program is
single-threaded and compute-bound, so on an idle core the two agree, and
on a shared host CPU time does not count the time other processes hold
the core.  Every job is checked
against its expected exit code and output; the last line printed is one
JSON object with the result.  With `--trace 1` the library's public
functions are wrapped (see tracing.py) and per-layer figures are reported
instead of the end-to-end ones.

Inputs, results and spans go to `.bench_run/<workload>/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_run")

TAIL_PERCENTILE = 90
MIN_ROUNDS = 2          # rounds always run, and covered by the stdout digest
SETUP_IMPORTS = 11
# The import is timed by the CPU time of its thread: numpy's thread pool,
# started by the import, spins for a varying while on its own threads.
IMPORT_PROBE = ("import time; t = time.thread_time(); import ordchain.cli; "
                "print(time.thread_time() - t)")
# A run stops starting rounds after this many times --seconds of wall time,
# whatever CPU time its jobs took, so a heavily shared host cannot stretch
# it much past --seconds.
WALL_CAP = 1.3


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> float:
    """Median CPU time for a fresh interpreter to import ordchain.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_IMPORTS + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"fresh import of ordchain.cli failed:\n{proc.stderr}")
        if i:                   # the first import writes the bytecode cache
            samples.append(float(proc.stdout))
    return statistics.median(samples)


def load_cli():
    sys.path.insert(0, str(SRC))
    import ordchain.cli
    if Path(ordchain.cli.__file__).resolve().parent != SRC / "ordchain":
        fail(f"imported {ordchain.cli.__file__}, not the checkout's copy")
    return ordchain.cli


def run_job(main, job: workloads.Job):
    """(exit code or None if it raised, stdout, CPU seconds, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(job.argv))
    except SystemExit as exc:          # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:           # a raising job fails; the run goes on
        rc, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.process_time() - start
    return rc, out.getvalue(), elapsed, error or err.getvalue()


def judge(job: workloads.Job, rc: Optional[int], stdout: str) -> Optional[str]:
    """Why the job's result is wrong, or None if it is as expected."""
    if rc != job.rc:
        return f"exit code {rc}, expected {job.rc}"
    lines = stdout.splitlines()
    for i, expected in enumerate(job.lines):
        if i >= len(lines) or lines[i] != expected:
            return f"line {i + 1} differs from the expected output"
    if not lines or not re.fullmatch(job.last, lines[-1]):
        return f"last line {lines[-1] if lines else ''!r} does not match {job.last!r}"
    return None


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "ram_gib": round(os.sysconf("SC_PAGE_SIZE")
                             * os.sysconf("SC_PHYS_PAGES") / 2 ** 30, 1),
            "python": platform.python_version(), "numpy": numpy.__version__}


class Session:
    """Runs jobs and tallies their latencies, checks and failures."""

    def __init__(self, main):
        self.main = main
        self.tracer: Optional[tracing.Tracer] = None
        self.latencies: List[float] = []
        self.failures: List[str] = []
        self.checks = 0

    def run_round(self, jobs: List[workloads.Job], digest=None) -> float:
        """Run one round; returns its job CPU seconds."""
        total = 0.0
        for job in jobs:
            if self.tracer is not None:
                self.tracer.job = len(self.latencies)
            rc, stdout, elapsed, error = run_job(self.main, job)
            self.latencies.append(elapsed)
            total += elapsed
            reason = error if rc is None else judge(job, rc, stdout)
            if reason is None:
                self.checks += workloads.parse_checked(stdout) + job.verify
            else:
                self.failures.append(f"{' '.join(job.argv)}: {reason}")
            if digest is not None:
                digest.update(f"{rc}\n{stdout}\0".encode())
        return total


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (SRC / "ordchain" / "cli.py").is_file():
        fail(f"no ordchain sources under {SRC}; run from a source checkout")

    # -- set-up, untimed -----------------------------------------------------
    setup_s = measure_setup()
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    deck = workloads.build_deck(args.workload, args.seed, str(workdir / "inputs"))
    session = Session(load_cli().main)
    if args.trace:
        # The tracer's overhead is measured on the first round, run warm
        # without and then with tracing.
        session.run_round(deck[0])
        untraced_s = session.run_round(deck[0])
        session.tracer = tracing.Tracer()
        session.tracer.install()
    skipped = len(session.latencies)

    # -- timed closed loop ---------------------------------------------------
    digest = hashlib.sha256()
    round_s: List[float] = []
    start = time.perf_counter()
    # Start a round only if it should end within --seconds of job CPU time,
    # judged by the length of the round before it.
    while len(round_s) < MIN_ROUNDS or (
            sum(round_s) + round_s[-1] <= args.seconds
            and time.perf_counter() - start < WALL_CAP * args.seconds):
        r = len(round_s)
        round_s.append(session.run_round(deck[r % len(deck)],
                                         digest if r < MIN_ROUNDS else None))
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- report ----------------------------------------------------------------
    latencies = session.latencies[skipped:]
    job_s, rounds = sum(round_s), len(round_s)
    tail = statistics.quantiles(latencies, n=100,
                                method="inclusive")[TAIL_PERCENTILE - 1]
    beyond = sum(1 for t in latencies if t > tail)
    if session.tracer is not None:
        metrics = tracing.layer_metrics(session.tracer, job_s, rounds)
        metrics["trace.overhead_ratio"] = round_s[0] / untraced_s - 1
        session.tracer.write(str(workdir / "spans.jsonl.gz"))
        units = {name: ("ratio" if name.endswith("ratio") else
                        "s/round" if name.endswith("_s") else "count/round")
                 for name in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "checks_per_s": session.checks / job_s,
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": tail,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "checks_per_s": "1/s", "job_p50_s": "s",
                 "job_tail_s": "s", "peak_rss_mb": "MiB"}
    failures = session.failures
    attempted = len(session.latencies)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": rounds, "jobs": len(latencies), "checks": session.checks,
            "job_cpu_s": job_s, "wall_s": wall_s, "tail_percentile": TAIL_PERCENTILE,
            "jobs_beyond_tail": beyond, "error_rate": len(failures) / attempted,
            "stdout_sha256": digest.hexdigest(), "digest_rounds": MIN_ROUNDS,
            "env": environment(), "failures": failures[:20], "metrics": metrics,
            "latencies": latencies}
    with open(workdir / f"result-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"env {json.dumps(info['env'])}")
    print(f"run {args.workload} seed {args.seed}: {rounds} rounds, {len(latencies)} jobs, "
          f"error_rate {info['error_rate']:.4f}, "
          f"p{TAIL_PERCENTILE} has {beyond} jobs beyond it")
    print(f"stdout sha256 {args.workload} seed {args.seed} "
          f"rounds 0-{MIN_ROUNDS - 1}: {info['stdout_sha256']}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
