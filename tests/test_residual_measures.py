"""One residual path: `verify.check` folds every residual, over the
relative measures of `zpint.numutil`."""

import ast
from pathlib import Path

import numpy as np

from zpint import numutil
from zpint.numutil import EPS_GUARD, null_ratio, rel_gap
from zpint.verify import check


def test_check_folds_arrays_and_sequences():
    ragged = [np.array([1e-12, 3e-11]), np.array([[2e-11], [5e-12]]), 4e-12]
    assert check("a", np.array([[1e-12, 2e-12], [7e-13, 0.0]]), 1e-9)["residual"] == 2e-12
    assert check("a", ragged, 1e-9)["residual"] == 3e-11
    assert check("a", tuple(ragged), 1e-11) == {"name": "a", "residual": 3e-11,
                                                "tolerance": 1e-11, "passed": False}
    for empty in ([], (), np.zeros(0), [np.zeros(0), np.zeros((0, 3))]):
        row = check("a", empty, 1e-9)
        assert row["residual"] == 0.0 and row["passed"]


def test_a_nan_anywhere_fails_the_row():
    for residual in (np.array([1e-12, np.nan, 2e-12]), [np.zeros(2), np.array([[np.nan]])],
                     [np.array([np.nan]), np.array([5.0])], float("nan")):
        row = check("a", residual, 1e-9)
        assert np.isnan(row["residual"]) and not row["passed"]


def test_measures_keep_the_bits_of_their_old_spellings(rng):
    shape = (7, 3, 4)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = a + 1e-9 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    unguarded = np.abs(a - b) / (np.abs(a) + np.abs(b))
    guarded = np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-300)
    assert np.array_equal(rel_gap(a, b), unguarded)
    assert np.array_equal(rel_gap(a, b), guarded)
    assert rel_gap(0, 0) == 0.0 and rel_gap(0.0j, 0.0j) == 0.0

    right = rng.standard_normal((7, 4, 2)) + 1j * rng.standard_normal((7, 4, 2))
    norm = np.linalg.norm
    old = (norm(a @ right, axis=(1, 2))
           / (norm(a, axis=(1, 2)) * norm(right, axis=(1, 2)) + 1e-300))
    assert np.array_equal(null_ratio(a, right), old)
    assert null_ratio(a[0], right[0]) == old[0]
    assert null_ratio(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0


def test_eps_guard_is_the_one_denominator_guard():
    """No float literal 1e-300 in zpint outside the definition of EPS_GUARD."""
    sites = []
    for path in sorted(Path(numutil.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        guard_defs = {id(node.value) for node in ast.walk(tree)
                      if isinstance(node, ast.Assign) and path.stem == "numutil"
                      and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["EPS_GUARD"]}
        sites += [(path.stem, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value == 1e-300
                  and id(node) not in guard_defs]
    assert EPS_GUARD == 1e-300
    assert sites == []
