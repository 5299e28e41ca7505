"""Seed sweep: the acceptance battery passes at every seed from 0 to 199.

Marked slow and deselected by default (addopts in pyproject.toml); run
it with `python -m pytest -m slow`.
"""

import pytest

from zpint.verify import run_all


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(200))
def test_battery_passes_at_seed(seed):
    report = run_all(seed=seed)
    failed = [(c["name"], c["residual"], c["tolerance"])
              for criterion in report["criteria"] for c in criterion["checks"]
              if not c["passed"]]
    assert not failed
