"""zpint benchmark: run one workload, check its results, print its metrics.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md): battery, interp_torus, interp_sphere.
Every measured process is a fresh, single-threaded interpreter started
from this file (worker.py) with the checkout's ``src`` on PYTHONPATH.
This runner itself uses only the standard library.

--trace 0 prints the end-to-end metrics; --trace 1 runs pairs of untraced
and traced processes over the same inputs and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 when every
correctness gate passed, 1 when one failed, 2 on a usage or layout error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("battery", "interp_torus", "interp_sphere")
# Nominal seconds of one measuring process on the reference box.  A run of
# --seconds starts round(seconds / nominal) of them, at least MIN_PROCESSES,
# so which inputs a run measures depends on --seconds alone, never on the
# speed being measured.
PROCESS_S = {"battery": 6.0, "interp_torus": 10.0, "interp_sphere": 4.5}
MIN_PROCESSES = 3
# Problems per interpolation process; process k takes problems
# k * n .. k * n + n - 1, so the problems of a run are all distinct.
PROBLEMS = {"interp_torus": 5, "interp_sphere": 64}
# The same for --trace 1, where a pair of processes (untraced, traced) runs
# the same problems 0 .. n - 1.
TRACE_PROBLEMS = {"interp_torus": 2, "interp_sphere": 32}
TRACE_PAIR_S = {"battery": 12.0, "interp_torus": 14.0, "interp_sphere": 5.0}
# Median time of one calibration piece (workloads.calibrate) on the reference
# box, a 2-vCPU 2.1 GHz x86-64 VM.  A process's timings are scaled by this
# over the median piece of that process: seconds at the reference box's usual
# speed (see README.md).
CALIBRATION_REF_S = 0.007
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(*args) -> dict:
    """Run worker.py with args in a fresh interpreter; its JSON result.

    The sample lines printed before the result go under its "samples" key.
    """
    argv = [sys.executable, WORKER, *map(str, args), "--t0", repr(time.time())]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                          env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(map(str, args))} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    *samples, result = map(json.loads, proc.stdout.strip().splitlines())
    result["samples"] = samples
    return result


def processes(seconds: float, nominal: float, minimum: int = 1) -> int:
    return max(minimum, round(seconds / nominal))


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def versions() -> dict:
    found = spawn("env")
    del found["samples"]
    return found


def environment(seed: int) -> dict:
    return {"seed": seed, "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions(),
            "git_commit": git_commit()}


def tail(values):
    """(P, value): the highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(values)[max(math.ceil(pct * n / 100) - 1, 0)]


def describe(name: str, values, unit: str) -> str:
    line = f"  {name:<30} median {statistics.median(values):.6g} {unit}"
    t = tail(values)
    line += f", p{t[0]} {t[1]:.6g} {unit}" if t else ", no tail percentile (n < 11)"
    return line + f", n={len(values)}"


# --- --trace 0: end-to-end metrics ---

def factor(cal_s) -> float:
    """Scale for the timings of a process whose calibration pieces took cal_s:
    it turns them into seconds at the reference box's usual speed."""
    return CALIBRATION_REF_S / statistics.median(cal_s)


def measure(workload: str, seed: int, seconds: float) -> dict:
    count = processes(seconds, PROCESS_S[workload], MIN_PROCESSES)
    if workload == "battery":
        runs = [spawn("battery", "--seed", seed) for _ in range(count)]
        digests = {run["digest"] for run in runs}
        factors = [factor(run["cal_s"]) for run in runs]
        timings = {"setup_s": [run["setup_s"] for run in runs],
                   "battery_s (op_s)": [f * run["op_s"] for f, run in zip(factors, runs)]}
        op_s = statistics.median(timings["battery_s (op_s)"])
        items_per_s = statistics.median(run["attempted"] for run in runs) / op_s
        failed = sum(run["failed"] for run in runs) + len(digests) - 1
        rss = statistics.median(run["peak_rss_mb"] for run in runs)
        notes = [f"  {len(runs)} verify-all runs, residual digests: {sorted(digests)}"]
    else:
        n = PROBLEMS[workload]
        runs = [spawn(workload, "--seed", seed, "--first", k * n, "--problems", n)
                for k in range(count)]
        if not any(run["samples"] for run in runs):
            raise ChildFailed(f"{workload}: no problem was solved")
        factors = [factor([t for p in run["samples"] for t in p["cal_s"]]) for run in runs]
        timings = {"setup_s": [run["setup_s"] for run in runs],
                   "solve_s (op_s)": [], "eval_s (1 / items_per_s)": []}
        for f, run in zip(factors, runs):
            for p in run["samples"]:
                timings["solve_s (op_s)"] += [f * t for t in p["solve_s"]]
                timings["eval_s (1 / items_per_s)"] += [f * t for t in p["eval_s"]]
        op_s = statistics.median(timings["solve_s (op_s)"])
        items_per_s = 1.0 / statistics.median(timings["eval_s (1 / items_per_s)"])
        failed = sum(run["failed"] for run in runs)
        rss = max(run["peak_rss_mb"] for run in runs)
        problems = sum(len(run["samples"]) for run in runs)
        notes = [f"  {len(runs)} processes, {problems} problems solved"]
    attempted = sum(run["attempted"] for run in runs)
    ratio = max(run["residual_ratio"] for run in runs)
    metrics = {"setup_s": statistics.median(timings["setup_s"]), "op_s": op_s,
               "items_per_s": items_per_s, "peak_rss_mb": rss}
    lines = [describe(name, values, "s") for name, values in timings.items()]
    lines += notes
    lines.append("  calibration factor per process (op_s and evaluation times are "
                 f"multiplied by it): {', '.join(f'{f:.4g}' for f in factors)}")
    lines.append(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted}), "
                 f"residual_ratio {ratio:.6g}")
    return {"metrics": metrics, "units": END_TO_END_UNITS, "attempted": attempted,
            "failed": failed, "lines": lines}


# --- --trace 1: per-layer metrics ---

def unit_args(workload: str, seed: int):
    if workload == "battery":
        return ("battery", "--seed", seed)
    return (workload, "--seed", seed, "--first", 0, "--problems", TRACE_PROBLEMS[workload])


def timed(result: dict) -> float:
    return result["op_s"] if "op_s" in result else result["timed_s"]


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}.npz")
    plain, traced = [], []
    for _ in range(processes(seconds, TRACE_PAIR_S[workload])):
        plain.append(spawn(*unit_args(workload, seed)))
        extra = ("--spans", spans) if not traced else ()
        traced.append(spawn(*unit_args(workload, seed), "--trace", *extra))
    runs = plain + traced
    digests = {run["digest"] for run in runs}
    layers = [run["layers"] for run in traced]
    metrics = {}
    unsteady = []
    for name, value in layers[0].items():
        values = [layer[name] for layer in layers]
        if isinstance(value, int):
            metrics[name] = value
            if len(set(values)) > 1:
                unsteady.append(name)
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_frac"] = (statistics.median(map(timed, traced))
                                      / statistics.median(map(timed, plain)) - 1.0)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    metrics["error_rate"] = failed / attempted
    metrics["residual_ratio"] = max(run["residual_ratio"] for run in runs)
    # Traced and untraced processes must compute bit-identical results, and
    # counts of the same inputs must repeat exactly.
    failed += len(digests) - 1 + len(unsteady)
    units = {name: unit_of(name) for name in metrics}
    lines = [f"  {len(plain)} untraced and {len(traced)} traced processes, "
             f"residual digests: {sorted(digests)}",
             f"  spans of the first traced process: {os.path.relpath(spans, ROOT)}"]
    if unsteady:
        lines.append(f"  counts that differ between traced processes: {unsteady}")
    return {"metrics": metrics, "units": units, "attempted": attempted,
            "failed": failed, "lines": lines}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name in ("genus0.solve_success_ratio", "trace.overhead_frac", "error_rate",
                "residual_ratio"):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zpint", "__init__.py")):
        print(f"perfbench: no zpint sources under {SRC}", file=sys.stderr)
        return 2
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    run = measure_traced if args.trace else measure
    try:
        print("env " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
        result = run(args.workload, args.seed, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in result["lines"]:
        print(line)
    for name, value in result["metrics"].items():
        print(f"  {name:<34} {value:.6g} {result['units'][name]}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
