"""Bit digest of the benchmark's interpolants and of its battery.

For a perfbench interpolation workload (``perfbench/workloads.py``,
imported, not changed) it builds the problems and hashes, per problem, the
bytes of the solution's Gamma and of T at every sweep point into one
digest, those of T^-1 at every sweep point into a second, and those of
the independent reference route (``problem.reference()``, the route the
benchmark checks T against) at every sweep point into a third; each point
is evaluated alone as the benchmark does (NaN where it raises).  A build
that raises a zpint error hashes its class name instead.  Prints the
three sha256 per seed and over all seeds, so a change to one route shows
apart from the others; two commits that print the same digest build the
same bits on that route.

With ``--workload battery`` it runs ``zpint verify-all`` at each seed, as
the benchmark's battery workload does, and prints the residual digest of
``workloads.battery_outcome`` (every accuracy check's name and residual)
with the exit code and the failure count.

    python3 tests/interp_digest.py --workload interp_sphere \
        --seeds 0,41,7101 --problems 0-63
    python3 tests/interp_digest.py --workload battery --seeds 0,1,2

It imports zpint from the ``src`` of its own checkout, ahead of an
installed copy, so each checkout hashes its own code.  BLAS runs on one
thread, as in the benchmark's processes.  The file name does not match
pytest's ``test_*.py`` pattern, so the default test run does not collect
it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

# the checkout's own source and benchmark inputs, ahead of an installed zpint,
# so that each checkout hashes its own code
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py)
from zpint import absint  # noqa: E402
from zpint.errors import ZpintError  # noqa: E402


def index_range(text: str) -> range:
    """'a-b' (inclusive) or one index 'a'."""
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a range: {text!r}") from None
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"not a range: {text!r}")
    return range(lo, hi + 1)


def seed_list(text: str) -> list[int]:
    """Comma-separated seeds, e.g. '0,41,7101'."""
    try:
        return [int(seed) for seed in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed list: {text!r}") from None


def hash_problem(solution, inverse, reference, problem) -> None:
    """Feed the solution's Gamma and T over the sweep of one problem to
    solution, T^-1 over the sweep to inverse and the reference route over
    the sweep to reference."""
    args = (problem.data, problem.q, problem.Q, problem.oracle_chi, problem.oracle_tilde)
    for build, digest in ((lambda: absint.build_solution(*args), solution),
                          (lambda: absint.build_inverse(*args), inverse),
                          (problem.reference, reference)):
        try:
            T = build()
        except ZpintError as exc:
            digest.update(type(exc).__name__.encode())
            continue
        if digest is solution:
            digest.update(T.gamma.matrix.tobytes())
        digest.update(workloads.evaluate_sweep(T, problem.sweep)[0].tobytes())


def battery_digests(seeds) -> None:
    """Print the battery's residual digest, exit code and failures per seed."""
    for seed in seeds:
        _, code, report = workloads.run_battery(seed)
        outcome = workloads.battery_outcome(code, report)
        print(f"battery seed {seed}: digest {outcome['digest']} exit {code} "
              f"failed {outcome['failed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted([*workloads.PROBLEMS, "battery"]),
                        required=True)
    parser.add_argument("--seeds", type=seed_list, default=[0], help="e.g. 0,41,7101")
    parser.add_argument("--problems", type=index_range, default=index_range("0-7"),
                        help="problem indices, e.g. 0-63 (interpolation workloads)")
    args = parser.parse_args(argv)
    if args.workload == "battery":
        battery_digests(args.seeds)
        return 0
    make = workloads.PROBLEMS[args.workload][0]
    routes = ("solution", "inverse", "reference")
    totals = [hashlib.sha256() for _ in routes]
    for seed in args.seeds:
        digests = [hashlib.sha256() for _ in routes]
        for index in args.problems:
            hash_problem(*digests, make(seed, index))
        print(f"{args.workload} seed {seed} problems {args.problems.start}-"
              f"{args.problems.stop - 1}: "
              + " ".join(f"{route} {d.hexdigest()}" for route, d in zip(routes, digests)))
        for total, digest in zip(totals, digests):
            total.update(digest.digest())
    print("all: " + " ".join(f"{route} {t.hexdigest()}" for route, t in zip(routes, totals)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
