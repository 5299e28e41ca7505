"""Seed census of the acceptance battery: which checks fail at which seeds.

Runs ``verify.run_all`` at every seed of a range and prints, for each
check, its worst residual over tolerance with the seed where it occurred,
then one line per failing (seed, check).  Rows named ``*.runtime_seconds``
compare wall time with a budget, not accuracy, and are skipped, as the
benchmark's battery metrics skip them.  Exits 1 when any check fails at
any seed.

    PYTHONPATH=src python3 tests/census.py --seeds 200-279

``--only CRITERION`` (repeatable) runs just the named criteria of
``verify.CRITERIA``, for a wide sweep of one of them:

    PYTHONPATH=src python3 tests/census.py --seeds 0-2999 --only determinantal_rep

The file name does not match pytest's ``test_*.py`` pattern, so the
default test run does not collect it.
"""

from __future__ import annotations

import argparse
import math
import sys

from zpint.verify import CRITERIA, run_all

RUNTIME_SUFFIX = ".runtime_seconds"


def seed_range(text: str) -> range:
    """'a-b' (inclusive) or one seed 'a'."""
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range: {text!r}") from None
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"not a seed range: {text!r}")
    return range(lo, hi + 1)


def census(seeds, only=None) -> tuple[dict, list]:
    """({check: (worst ratio, seed)}, [(seed, check, residual, tolerance) failing])
    over the criteria named in only (every criterion when None)."""
    worst, failures = {}, []
    for seed in seeds:
        for criterion in run_all(seed=seed, only=only)["criteria"]:
            for row in criterion["checks"]:
                name = row["name"]
                if name.endswith(RUNTIME_SUFFIX):
                    continue
                ratio = row["residual"] / row["tolerance"] if row["tolerance"] else math.inf
                if math.isnan(ratio):
                    ratio = math.inf
                if name not in worst or ratio > worst[name][0]:
                    worst[name] = (ratio, seed)
                if not row["passed"]:
                    failures.append((seed, name, row["residual"], row["tolerance"]))
    return worst, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-199"),
                        help="inclusive seed range a-b (default 0-199)")
    parser.add_argument("--only", action="append", metavar="CRITERION",
                        choices=[name for name, _, _ in CRITERIA],
                        help="run only this criterion (repeatable; default all)")
    args = parser.parse_args(argv)
    seeds = args.seeds
    worst, failures = census(seeds, args.only)
    print(f"seeds {seeds.start}-{seeds.stop - 1}: {len(worst)} checks, "
          f"{len(failures)} failing (seed, check) pairs")
    for name, (ratio, seed) in sorted(worst.items(), key=lambda item: -item[1][0]):
        print(f"{ratio:10.3g}  seed {seed:5d}  {name}")
    for seed, name, residual, tolerance in failures:
        print(f"FAIL seed {seed} {name}: residual {residual:.3e} > tolerance {tolerance:.3e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
