"""Benchmark of the kwise command line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is taken from its
`src/` directory. The workload's inputs are generated from the seed before
timing starts (see workloads.py).

--trace 0 runs every CLI call as its own process, one after another, and
repeats the workload's call sequence for as long as the next repetition
is expected to end within S seconds of the benchmark's start, set-up
included (at least once). It reports, as medians over the repetitions,
the wall time of the sequence (`wall_s`) and the largest peak RSS of one
call (`peak_rss_mib`), plus the median wall time of the `kwise --help`
calls that start each repetition (`setup_s`).

--trace 1 makes the same calls in this process through `kwise.cli.main`,
alternating an untraced pass with a pass under the tracer (tracer.py), and
reports per-layer times and counts as medians over the traced passes.

Every call's exit code and stdout are checked. The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
line before it records the seed, the run environment and sample counts.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
HELP_CALLS_PER_PASS = 2


def git_sha() -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def passes(deadline: float):
    """Yield until the next pass would likely end after `deadline` (a
    perf_counter reading), judged by the median pass so far; always at
    least one pass."""
    last = time.perf_counter()
    took = []
    while True:
        yield
        now = time.perf_counter()
        took.append(now - last)
        last = now
        if now + statistics.median(took) > deadline:
            return


def spawn(argv, env: dict, work: Path) -> tuple[int, str, float, float]:
    """Run `python -m kwise argv` to completion; return exit code, stdout,
    wall seconds including process start, and the child's own peak RSS in
    MiB (from its rusage at reaping, not the running maximum over all
    children)."""
    out_path = work / "stdout"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "kwise", *argv], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out_path.read_text(encoding="utf-8"), wall, usage.ru_maxrss / 1024


def run_processes(calls, deadline: float, work: Path, outcomes):
    from workloads import HELP

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code, out, _, _ = spawn(HELP.argv, env, work)  # untimed: also compiles bytecode
    outcomes.record(HELP, code, out)
    setup, walls, rss = [], [], []
    for _ in passes(deadline):
        # set-up is sampled in every pass, so that its median spans the
        # whole run as the pass times do
        for _ in range(HELP_CALLS_PER_PASS):
            code, out, wall, _ = spawn(HELP.argv, env, work)
            outcomes.record(HELP, code, out)
            setup.append(wall)
        results = [spawn(c.argv, env, work) for c in calls]
        walls.append(sum(r[2] for r in results))
        rss.append(max(r[3] for r in results))
        for call, (code, out, _, _) in zip(calls, results):
            outcomes.record(call, code, out)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
    }
    return metrics, {"wall_s": walls, "setup_s": setup, "peak_rss_mib": rss}


def call_in_process(call, outcomes) -> float:
    """Run one call through kwise.cli.main; return the seconds main took."""
    from kwise import cli

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(call.argv))
    except Exception:  # a crash is a failed call, not the end of the run
        code = -1
        traceback.print_exc(limit=3)
    elapsed = time.perf_counter() - start
    outcomes.record(call, code, out.getvalue())
    return elapsed


def run_traced(calls, deadline: float, outcomes):
    from tracer import METRICS, Tracer

    untraced, traced = [], []
    for _ in passes(deadline):
        untraced.append(sum(call_in_process(call, outcomes) for call in calls))
        tracer = Tracer()
        tracer.install()
        try:
            for call in calls:
                call_in_process(call, outcomes)
        finally:
            tracer.uninstall()
        traced.append(tracer.metrics())
    # counts repeat exactly from pass to pass; times vary
    metrics = {name: ((statistics.median if unit == "s" else statistics.median_low)(
                   [t[name] for t in traced]), unit)
               for name, unit in METRICS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (
        metrics["cli.main_s"][0] - statistics.median(untraced), "s")
    return metrics, {"cli.main_s": [t["cli.main_s"] for t in traced], "untraced_main_s": untraced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cells (n <= 10), for the benchmark's own test")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.seconds
    if not (SRC / "kwise" / "cli.py").is_file():
        print(f"no kwise sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")

    env = environment()
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outcomes = workloads.Outcomes()
    try:
        calls = workloads.build(args.workload, args.seed, work, args.smoke)
        if args.trace:
            metrics, samples = run_traced(calls, deadline, outcomes)
        else:
            metrics, samples = run_processes(calls, deadline, work, outcomes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    for error in outcomes.errors[:10]:
        print(error, file=sys.stderr)
    failed = len(outcomes.errors)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "calls_per_pass": len(calls), "samples": samples,
        "ops": outcomes.attempted, "failed_frac": failed / outcomes.attempted,
        "env": env,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
