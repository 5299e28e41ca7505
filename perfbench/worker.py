"""One benchmark process: set up, run a workload's timed work, check it.

Started by run.py with single-threaded BLAS and ``src`` on PYTHONPATH;
prints one JSON line per solved interpolation problem (its timing samples)
and a last JSON line with the result.  ``--t0`` is the parent's clock reading
taken just before it started this process, so setup_s includes interpreter
start.  Every timed unit is followed by calibration work (``cal_s``), which
run.py uses to take the host's speed out of the timings.

    python3 worker.py battery --seed 0 --t0 <time.time()> [--trace]
    python3 worker.py interp_torus --seed 0 --t0 <t> --first 0 --problems 5
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import time

import numpy as np

import zpint
import tracer
import workloads

CHECKED_POINTS = 32
# Each problem is solved this many times, so that op_s rests on several
# samples per problem; the sweep uses the last solution.
SOLVE_REPEATS = 3
# Calibration after each timed unit: at least this many pieces, and at least
# this share of the unit's own time.
CALIBRATION_PIECES = 2
CALIBRATION_SHARE = 0.1
# Calibration before and after one verify-all, in seconds.
BATTERY_CALIBRATION_S = 0.3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Library versions and the BLAS library with its thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"numpy": np.__version__, "scipy": scipy_version,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "zpint": zpint.__version__}


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob
    import os

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def calibration(min_s: float) -> list[float]:
    """Times of calibration pieces, run until they add up to min_s seconds."""
    pieces = [workloads.calibrate() for _ in range(CALIBRATION_PIECES)]
    while sum(pieces) < min_s:
        pieces.append(workloads.calibrate())
    return pieces


def battery(args) -> dict:
    setup_s = time.time() - args.t0
    cal_s = calibration(BATTERY_CALIBRATION_S)
    trace = tracer.Tracer() if args.trace else None
    with trace or contextlib.nullcontext():
        elapsed, code, report = workloads.run_battery(args.seed)
    cal_s += calibration(BATTERY_CALIBRATION_S)
    out = {"setup_s": setup_s, "op_s": elapsed, "cal_s": cal_s,
           **workloads.battery_outcome(code, report)}
    return with_layers(out, trace, args.spans)


def interp(args) -> dict:
    """Build problems first .. first + problems - 1, then solve and sweep each once."""
    make, tol = workloads.PROBLEMS[args.workload]
    indices = range(args.first, args.first + args.problems)
    problems = [make(args.seed, i) for i in indices]
    setup_s = time.time() - args.t0
    trace = tracer.Tracer() if args.trace else None
    ratios = []
    attempted = failed = 0
    timed_s = 0.0
    digest = hashlib.sha256()
    for index, problem in zip(indices, problems):
        attempted += 1
        solve_s = []
        try:
            with trace or contextlib.nullcontext():
                for _ in range(SOLVE_REPEATS):
                    start = time.perf_counter()
                    T = workloads.solve(problem)
                    solve_s.append(time.perf_counter() - start)
                values, lat, errors = workloads.evaluate_sweep(T, problem.sweep)
        except zpint.ZpintError:
            failed += 1
            continue
        unit_s = sum(solve_s) + sum(lat)
        # Samples go to the parent as they are taken, so that this process's
        # peak memory does not grow with the number of samples.
        print(json.dumps({"solve_s": solve_s, "eval_s": lat,
                          "cal_s": calibration(CALIBRATION_SHARE * unit_s)}))
        timed_s += unit_s
        attempted += len(lat)
        failed += errors
        rows = np.random.default_rng([args.seed, index, 1]).choice(
            len(problem.sweep), CHECKED_POINTS, replace=False)
        ratios.append(workloads.check_problem(problem, values, tol, rows))
        failed += int(ratios[-1] > 1.0)
        digest.update(values.tobytes())
    out = {"setup_s": setup_s, "timed_s": timed_s, "attempted": attempted,
           "failed": failed, "residual_ratio": max(ratios, default=0.0),
           "digest": digest.hexdigest()}
    return with_layers(out, trace, args.spans)


def with_layers(out: dict, trace, spans) -> dict:
    if trace:
        out["layers"] = trace.layer_metrics()
        if spans:
            trace.write(spans)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=["battery", *workloads.PROBLEMS, "env"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the spans here")
    parser.add_argument("--first", type=int, default=0, help="index of the first problem")
    parser.add_argument("--problems", type=int, default=1)
    args = parser.parse_args()
    if args.t0 is None:
        args.t0 = time.time()
    if args.workload == "env":
        print(json.dumps(environment()))
        return
    out = battery(args) if args.workload == "battery" else interp(args)
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
