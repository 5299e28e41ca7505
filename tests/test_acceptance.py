"""Acceptance suite: one test per release criterion.

Each criterion runs its full check list at the stated tolerances and
prints one pass/fail line per check; the `zpint verify-all` command runs
the same battery.
"""

import pytest

from zpint.verify import CRITERIA, checks_detrep, run_all

SEED = 0


@pytest.fixture(scope="module")
def battery():
    return run_all(seed=SEED)


def _report(criterion):
    lines = []
    for check in criterion["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        lines.append(
            f'{status} {check["name"]}: residual {check["residual"]:.3e}'
            f' tolerance {check["tolerance"]:.1e}'
        )
    return "\n".join(lines)


@pytest.mark.parametrize("name", [name for name, _, _ in CRITERIA])
def test_criterion(battery, name):
    criterion = next(c for c in battery["criteria"] if c["name"] == name)
    print()
    print(_report(criterion))
    failed = [c["name"] for c in criterion["checks"] if not c["passed"]]
    assert not failed, f"failed checks: {failed}\n{_report(criterion)}"


def test_overall(battery):
    assert battery["passed"]


@pytest.mark.parametrize("seed", [84, 963])
def test_on_curve_kernel_dim_at_exact_zero_spectra(seed):
    # the determinantal-rep draws of battery seeds 77 and 956, where the
    # pencil has an exact 0.0 singular value under a roundoff-level one
    checks = {c["name"]: c for c in checks_detrep(seed=seed)}
    assert checks["detrep.on_curve_kernel_dim"]["passed"]
