"""Bit digest of the benchmark's interpolants: Gamma, T and T^-1.

Builds the problems of a perfbench interpolation workload
(``perfbench/workloads.py``, imported, not changed) and hashes, per
problem, the bytes of the solution's Gamma and of T at every sweep point
into one digest, and those of T^-1 at every sweep point into another,
each point evaluated alone as the benchmark does (NaN where it raises).
A build that raises a zpint error hashes its class name instead.  Prints
the two sha256 per seed and over all seeds, so a change to one route
shows apart from the other; two commits that print the same digest build
the same bits on that route.

    python3 tests/interp_digest.py --workload interp_sphere \
        --seeds 0,41,7101 --problems 0-63

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


def hash_problem(solution, inverse, problem) -> None:
    """Feed the solution's Gamma and T over the sweep of one problem to
    solution, and T^-1 over the sweep to inverse."""
    args = (problem.data, problem.q, problem.Q, problem.oracle_chi, problem.oracle_tilde)
    for build, digest in ((absint.build_solution, solution), (absint.build_inverse, inverse)):
        try:
            T = build(*args)
        except ZpintError as exc:
            digest.update(type(exc).__name__.encode())
            continue
        if build is absint.build_solution:
            digest.update(T.gamma.matrix.tobytes())
        digest.update(workloads.evaluate_sweep(T, problem.sweep)[0].tobytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.PROBLEMS), required=True)
    parser.add_argument("--seeds", type=seed_list, default=[0], help="e.g. 0,41,7101")
    parser.add_argument("--problems", type=index_range, default=index_range("0-7"),
                        help="problem indices, e.g. 0-63")
    args = parser.parse_args(argv)
    make = workloads.PROBLEMS[args.workload][0]
    totals = hashlib.sha256(), hashlib.sha256()
    for seed in args.seeds:
        digests = hashlib.sha256(), hashlib.sha256()
        for index in args.problems:
            hash_problem(*digests, make(seed, index))
        print(f"{args.workload} seed {seed} problems {args.problems.start}-"
              f"{args.problems.stop - 1}: solution {digests[0].hexdigest()} "
              f"inverse {digests[1].hexdigest()}")
        for total, digest in zip(totals, digests):
            total.update(digest.digest())
    print(f"all: solution {totals[0].hexdigest()} inverse {totals[1].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
