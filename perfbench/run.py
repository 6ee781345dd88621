#!/usr/bin/env python3
"""cflab benchmark: four workloads through cflab's public entry points.

Run from the root of a cflab checkout:

    python3 perfbench/run.py --workload mc --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35   # each workload in a fresh process

One process runs one workload, single-threaded. It times the set-up in fresh
child interpreters, runs one small warm-up round, then times whole rounds for
--seconds, checks every output after the timed phase, and prints the metrics.
Every timed step and set-up is bracketed by a fixed reference computation on
the same CPU, and times are reported at the reference speed (see REFERENCE).
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The traced run alternates untraced and traced rounds
on the same inputs and writes its spans under .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("mc", "events", "analytic")
SETUP_REPEATS = 9
REF_S = 0.010  # times are reported at a host speed where the reference takes this long
# Sizes of the two references, each 6-12 ms on the machine in README.md.
REF_LOOP = 60_000
REF_ARRAY = 50_000
REF_QUOTIENTS = 7_000
# numpy's OpenBLAS starts one thread per CPU unless told otherwise.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5], sys.argv[6]).round()"
)


def fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def reference_arrays() -> float:
    """Array-bound reference: an integer loop and ten numpy passes over 50 000 floats."""
    import numpy

    total = 0
    for i in range(REF_LOOP):
        total += i * i % 7
    x = numpy.linspace(0.0, 1.0, REF_ARRAY)
    for _ in range(10):
        x = numpy.sqrt(x * 1.0001 + 0.5)
    return total + float(x[-1])


class _Ledger:
    __slots__ = ("logs", "seen")

    def __init__(self):
        self.logs, self.seen = [], {}

    def push(self, a: int) -> float:
        lg = math.log(a)
        bisect.insort(self.logs, lg)
        self.seen[a] = self.seen.get(a, 0) + 1
        return lg


def _quotients(count: int):
    u = 0.37
    for _ in range(count):
        u = (u * 3.9) % 1.0 + 1e-9
        yield int(1.0 / u) + 1


def reference_objects() -> int:
    """Interpreter-bound reference: a generator feeding method calls, logs, sorted inserts."""
    ledger, big = _Ledger(), 0
    for a in _quotients(REF_QUOTIENTS):
        if ledger.push(a) > 5.0 and a * a > 10**6:
            big += 1
    return big + len(ledger.seen)


# Fixed work that does not use cflab, one per workload. The host's speed
# drifts by a third over minutes, on each CPU on its own. Each timed step
# runs between two calls of its workload's reference on the same CPU, and
# its time is scaled by REF_S over their mean time: the step's time on a
# host where the reference takes REF_S. Each workload has the reference
# whose time followed its steps' times most closely over a trace of that
# drift (README.md, "Noise").
REFERENCE = {"mc": reference_arrays, "events": reference_objects, "analytic": reference_arrays}


def time_reference(reference) -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def pin(cpus: list, k: int) -> None:
    """Run on the k-th CPU of the affinity set; children inherit it."""
    if cpus:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})


def affinity() -> list:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def setup_seconds(args, work: Path) -> list:
    """(seconds, scaled seconds) of fresh interpreters that import cflab and build round 0's inputs."""
    reference, cpus, times = REFERENCE[args.workload], affinity(), []
    reference()  # its first call imports numpy
    try:
        for k in range(SETUP_REPEATS):
            pin(cpus, k)
            argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH), args.workload,
                    str(args.seed), args.size, str(work / f"setup-{k}")]
            before = time_reference(reference)
            t0 = time.perf_counter()
            child = subprocess.Popen(argv)
            # wait() with a timeout polls every 50 ms; without one it blocks
            # until the child ends, so a timer enforces the limit instead.
            limit = threading.Timer(120, child.kill)
            limit.start()
            try:
                code = child.wait()
            finally:
                limit.cancel()
                limit.join()
            sec = time.perf_counter() - t0
            if code != 0:
                raise subprocess.CalledProcessError(code, argv)
            times.append((sec, sec * REF_S * 2 / (before + time_reference(reference))))
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    return times


def run_step(step, rec=None):
    """(seconds, output, error) of one timed step; errors are caught and reported."""
    if rec is not None:
        rec.op = step.name
    t0 = time.perf_counter()
    try:
        out, err = step.run(), None
    except Exception:  # a failed operation is counted, not fatal
        out, err = None, traceback.format_exc()
    return time.perf_counter() - t0, out, err


def run_round(workload, reference, rec=None) -> list:
    """(step, seconds, output, error, reference seconds) of each step of one round.

    The reference seconds are the mean time of the reference calls just
    before and just after the step; seconds * REF_S / reference seconds is
    the step's scaled time.
    """
    records, before = [], time_reference(reference)
    for step in workload.round():
        sec, out, err = run_step(step, rec)
        after = time_reference(reference)
        records.append((step, sec, out, err, (before + after) / 2))
        before = after
    return records


def measure(workload, seconds: float, reference, rec=None):
    """Run whole rounds until the next one would pass `seconds`; at least one.

    Successive rounds run pinned to successive CPUs of the process's
    affinity set, so a step and the reference calls around it share a CPU
    and both CPUs are sampled. Returns the step records per round (see
    run_round) and, for the traced run, the untraced records of the same
    rounds, each run just before its traced twin on the same CPU.
    """
    cpus = affinity()
    rounds, paired = [], []
    start = time.perf_counter()
    try:
        while True:
            t_round = time.perf_counter()
            pin(cpus, len(rounds))
            if rec is None:
                rounds.append(run_round(workload, reference))
            else:
                paired.append(run_round(workload, reference))
                rec.install()
                try:
                    rounds.append(run_round(workload, reference, rec))
                finally:
                    rec.uninstall()
            now = time.perf_counter()
            if now - start + (now - t_round) > seconds:
                return rounds, paired
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def check_all(records) -> tuple[int, int]:
    """(attempted, failed) over step records; problems are printed to stderr."""
    failed = 0
    for step, _, out, err, _ in records:
        problems = [err] if err else None
        if problems is None:
            try:
                problems = step.check(out)
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            failed += 1
            print(f"FAILED {step.name}: " + "; ".join(problems), file=sys.stderr)
    return len(records), failed


def run_workload(args, work: Path) -> dict:
    setup = [] if args.trace else setup_seconds(args, work)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    from spans import Recorder, layer_metrics

    env = fingerprint()
    print("# env " + json.dumps(env, sort_keys=True))
    workload = workloads.build(args.workload, args.seed, args.size, work / "timed")
    warm = workloads.build(args.workload, args.seed, "smoke", work / "warm")
    run_round(warm, REFERENCE[args.workload])

    rec = Recorder() if args.trace else None
    rounds, paired = measure(workload, args.seconds, REFERENCE[args.workload], rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = [r for rnd in rounds + paired for r in rnd]
    attempted, failed = check_all(records)

    round_s = [sum(r[1] for r in rnd) for rnd in rounds]
    print(f"# {args.workload}: {len(rounds)} rounds, round seconds min {min(round_s):.4f} "
          f"median {statistics.median(round_s):.4f} max {max(round_s):.4f}")
    print(f"# failed_frac {failed / attempted:.4f} ({failed}/{attempted} operations)")
    if args.trace:
        untraced_s = sum(r[1] for rnd in paired for r in rnd)
        metrics = layer_metrics(rec, len(rounds), sum(round_s), untraced_s)
        RUNS.mkdir(exist_ok=True)
        spans_path = RUNS / f"trace-{args.workload}-seed{args.seed}.json"
        rec.dump(spans_path, metrics)
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
    else:
        by_step = {}
        for rnd in rounds:
            for step, sec, _, _, ref in rnd:
                by_step.setdefault(step.name, []).append((sec, sec * REF_S / ref))
        # A round's steps are different operations: sum each one's median
        # scaled time over the run's rounds.
        wall_s = sum(statistics.median(s for _, s in v) for v in by_step.values())
        for name, times in by_step.items():
            print(f"# step {name}: median {statistics.median(t for t, _ in times):.4f} s, "
                  f"scaled {statistics.median(s for _, s in times):.4f} s "
                  f"over {len(times)} rounds")
        metrics = {
            "wall_s": (wall_s, "s"),
            "work_per_s": (workload.work_per_round / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(s for _, s in setup), "s"),
        }
        refs = [r[4] for rnd in rounds for r in rnd]
        print(f"# {REFERENCE[args.workload].__name__}: median {statistics.median(refs):.4f} s, "
              f"REF_S {REF_S} s")
        print(f"# work unit: {workload.work_unit}; setup runs, seconds (scaled): "
              + ", ".join(f"{t:.4f} ({s:.4f})" for t, s in setup))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own fresh process; prints their lines and a combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{name}] exited with code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every input, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "cflab" / "__init__.py").is_file():
        print(f"error: no cflab sources at {SRC}; run from a cflab checkout", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREADED)  # before numpy is imported here or in a child
    if args.workload == "all":
        return run_all(args)
    work = RUNS / f"work-{args.workload}-{os.getpid()}"
    try:
        result = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
