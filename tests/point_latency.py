"""One-point latency of the interpolant and its build, this checkout against another.

For each of the benchmark's interpolation workloads (``interp_torus`` and
``interp_sphere`` of ``perfbench/workloads.py``, imported, not changed) a
worker process builds problems 0-9 of seed 41, times ``build_solution``
(``workloads.solve``) and then T(p) one sweep point at a time through
``workloads.evaluate_sweep``, as the benchmark's ``items_per_s`` does, for
ROUNDS rounds each.  It reports the median per-point latency of the
process and two medians of the build time: the cold build, round 0, the
first build on a fresh problem's surface, which computes that surface's
constants of tau (theta'(0), the theta plan's tables); and the warm
build, rounds 1 to ROUNDS - 1, which reads them.

The harness runs PAIRS pairs of worker processes, one for this checkout
and one for the checkout given by ``--against``, alternating which side
goes first, each in a fresh interpreter with BLAS on one thread and that
checkout's ``src`` and ``perfbench`` ahead of an installed zpint.  It
prints, per side, the median and quartiles of the process medians, the
ratio of the medians (against / this, above 1 when this checkout is
faster) and the number of pairs this checkout won, plus the count of
points that raised.  It asserts nothing about speed.

    python3 tests/point_latency.py --against ../parent --pairs 10

The file name does not match pytest's ``test_*.py`` pattern, so the
default test run does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("interp_torus", "interp_sphere")
SEED = 41
PROBLEMS = range(10)
ROUNDS = 5
TIMEOUT_S = 300.0


def worker(root: str) -> dict:
    """Time the builds and the one-point calls on root's own code."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads

    clock = time.perf_counter
    out = {}
    for name in WORKLOADS:
        make = workloads.PROBLEMS[name][0]
        cold, warm, points, errors = [], [], [], 0
        for index in PROBLEMS:
            problem = make(SEED, index)
            for round_ in range(ROUNDS):
                start = clock()
                T = workloads.solve(problem)
                (warm if round_ else cold).append(clock() - start)
                _, latencies, failed = workloads.evaluate_sweep(T, problem.sweep)
                points += latencies
                errors += failed
        out[name] = {"build_cold_us": 1e6 * statistics.median(cold),
                     "build_warm_us": 1e6 * statistics.median(warm),
                     "point_us": 1e6 * statistics.median(points), "errors": errors}
    return out


def run_side(root: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", root],
                          capture_output=True, text=True, env=env, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker on {root} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values) -> str:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return f"{median:9.2f} [{q1:.2f}, {q3:.2f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="PATH",
                        help="root of the checkout to compare with")
    parser.add_argument("--pairs", type=int, default=10, help="process pairs (default 10)")
    parser.add_argument("--worker", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(os.path.abspath(args.worker))))
        return 0
    if not args.against or args.pairs < 1:
        parser.error("give --against PATH and --pairs of at least 1")
    sides = {"this": ROOT, "against": os.path.abspath(args.against)}
    runs = {side: [] for side in sides}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(run_side(sides[side]))
    print(f"{args.pairs} pairs; this {sides['this']}, against {sides['against']}; "
          "median [quartiles] of the process medians, in us")
    for name in WORKLOADS:
        for metric in ("point_us", "build_cold_us", "build_warm_us"):
            this, other = ([run[name][metric] for run in runs[side]] for side in sides)
            wins = sum(a < b for a, b in zip(this, other))
            ratio = statistics.median(other) / statistics.median(this)
            errors = [sum(run[name]["errors"] for run in runs[side]) for side in sides]
            print(f"{name:13s} {metric:13s} this {spread(this)}  against {spread(other)}  "
                  f"ratio {ratio:.3f}  this won {wins}/{args.pairs}  "
                  f"errors {errors[0]} / {errors[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
