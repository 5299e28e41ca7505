"""Command-line interface: problem files, reports, exit codes."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zpint
from zpint import verify
from zpint.cli import run_command

GENUS0_PROBLEM = {
    "rank": 1,
    "zeros": [{"point": [2.0, 0.0], "x": [[1.0, 0.0]]}],
    "poles": [{"point": [3.0, 0.0], "u": [[1.0, 0.0]]}],
}

LINE_PROBLEM = {
    "tau": [0.3, 0.9],
    "chi": {"a": [0.23], "b": [0.41]},
    "chi_tilde": "auto",
    "zeros": [[0.13, 0.27], [0.61, 0.43]],
    "poles": [[0.37, 0.71], [0.83, 0.11]],
    "base_point": [0.52, 0.18],
    "base_value": [1.3, -0.4],
}


def run_json(argv, path):
    code = run_command(argv + ["--out", str(path)])
    with open(path) as handle:
        return code, json.load(handle)


def test_theta_command(tmp_path):
    code, report = run_json(["theta", "--tau", "0+1i", "--z", "0"],
                            tmp_path / "r.json")
    assert code == 0
    value = complex(*report["value"])
    assert abs(value - 1.0864348112) < 1e-9
    assert report["passed"]


def test_theta_with_characteristics_and_gradient(tmp_path):
    code, report = run_json(
        ["theta", "--tau", "0.3+0.9i", "--z", "0.2+0.1i",
         "--char", "0.5:0.5", "--grad"],
        tmp_path / "r.json",
    )
    assert code == 0
    assert "gradient" in report


@pytest.mark.parametrize("argv", [
    ["--char", "0.5"],
    ["--char", "0.5:x"],
    ["--char", "0.5,0.1:0.5,0.1"],
    ["--tau", "1j", "--z", "nan"],
    ["--z", "0,0"],
])
def test_theta_bad_input_exits_2(argv, tmp_path, capsys):
    code = run_command(["theta", *argv, "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "input"


def test_theta_overflow_exits_2(tmp_path, capsys):
    code = run_command(["theta", "--tau", "1j", "--z", "16j",
                        "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NonConvergent"
    assert not (tmp_path / "r.json").exists()


def test_solve_genus0_fixture(tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(GENUS0_PROBLEM))
    code, report = run_json(["solve-genus0", str(problem), "--seed", "3"],
                            tmp_path / "r.json")
    assert code == 0
    by_z = {tuple(e["z"]): e["value"] for e in report["evaluations"]}
    value = complex(*by_z[(10.0, 0.0)][0][0])
    assert abs(value - 8 / 7) < 1e-12
    assert report["passed"]


def test_solve_genus0_far_zero_passes_at_infinity(tmp_path):
    # T - I ~ (node scale)/z: a probe at a fixed z = 1e6 failed this problem
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(
        {**GENUS0_PROBLEM, "zeros": [{"point": [2.0, -253.0], "x": [[1.0, 0.0]]}]}))
    code, report = run_json(["solve-genus0", str(problem)], tmp_path / "r.json")
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["genus0.identity_at_infinity"]["passed"]


def test_solve_genus0_without_nodes_is_the_identity(tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"rank": 1, "zeros": [], "poles": []}))
    code, report = run_json(["solve-genus0", str(problem)], tmp_path / "r.json")
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["genus0.identity_at_infinity"]["passed"]


def test_solve_line(tmp_path):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(LINE_PROBLEM))
    code, report = run_json(["solve-line", str(problem), "--samples", "20"],
                            tmp_path / "r.json")
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["line.mult_vs_partial_fraction"]["residual"] < 1e-9


@pytest.mark.parametrize("change", [
    {"zeros": [[-4.86e16, 0.27], [0.61, 0.43]]},
    {"poles": [[0.37, 0.71], [-5.2e15, 0.11]]},
    {"chi": {"a": [0.23], "b": [5.0e7]}},
    {"zeros": [[1e308, 0.27], [0.61, 0.43]]},
], ids=["far-zero", "far-pole", "large-b", "huge-zero"])
def test_solve_line_reduces_far_representatives(change, tmp_path):
    # a point far out is the torus point of its parallelogram representative,
    # and a characteristic is read mod 1; both are reduced on load
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({**LINE_PROBLEM, **change}))
    code, report = run_json(["solve-line", str(problem), "--samples", "20"],
                            tmp_path / "r.json")
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["line.mult_vs_partial_fraction"]["residual"] < 1e-12


def test_solve_line_is_invariant_under_lattice_shifts(tmp_path):
    tau = complex(*LINE_PROBLEM["tau"])
    shifted = {**LINE_PROBLEM,
               "zeros": [[0.13 + 2 + tau.real, 0.27 + tau.imag], [0.61, 0.43]],
               "poles": [[0.37 - 1 - 3 * tau.real, 0.71 - 3 * tau.imag], [0.83, 0.11]],
               "chi": {"a": [0.23], "b": [3.41]}}
    values = []
    for payload in (LINE_PROBLEM, shifted):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(payload))
        code, report = run_json(["solve-line", str(problem), "--samples", "5"],
                                tmp_path / "r.json")
        assert code == 0
        values.append([complex(*report["evaluation"][form])
                       for form in ("multiplicative", "partial_fraction")])
    for a, b in zip(*values):
        assert abs(a - b) <= 1e-14 * abs(a)


@pytest.mark.parametrize("shift", [1, complex(*LINE_PROBLEM["tau"])], ids=["1", "tau"])
def test_solve_line_keeps_the_base_point_as_given(shift, tmp_path):
    # T is a section of Hom(chi, chi~): T(q) = Q at q and at q + shift are
    # different problems, so the base point is not reduced on load
    from zpint.absint import divisor_characteristic, scalar_multiplicative, scalar_partial_fraction
    from zpint.surface import line_bundle, torus_surface

    q = complex(*LINE_PROBLEM["base_point"]) + shift
    reports = []
    for base in (LINE_PROBLEM["base_point"], [q.real, q.imag]):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({**LINE_PROBLEM, "base_point": base}))
        code, report = run_json(["solve-line", str(problem), "--samples", "5"],
                                tmp_path / "r.json")
        assert code == 0
        reports.append(report["evaluation"])
    surf = torus_surface(complex(*LINE_PROBLEM["tau"]))
    zeros = [complex(*z) for z in LINE_PROBLEM["zeros"]]
    poles = [complex(*p) for p in LINE_PROBLEM["poles"]]
    chi = line_bundle(LINE_PROBLEM["chi"]["a"], LINE_PROBLEM["chi"]["b"])
    a_w, b_w, _ = divisor_characteristic(surf, zeros, poles)
    chit = line_bundle(chi.a + a_w, chi.b + b_w)
    p = complex(*reports[1]["p"])
    for name, form in (("multiplicative", scalar_multiplicative),
                       ("partial_fraction", scalar_partial_fraction)):
        want = form(surf, zeros, poles, chi, chit, q, complex(*LINE_PROBLEM["base_value"]))(p)
        got = complex(*reports[1][name])
        assert abs(got - want) <= 1e-12 * abs(want)
        # the shifted base point names another problem: the value moves
        assert abs(got - complex(*reports[0][name])) > 1e-3 * abs(want)


# 17 zeros and 17 poles on the torus of tau = 0.1i whose 0.05-discs cover
# it: no sample point exists, an input error rather than a traceback
DENSE_NODES = Path(__file__).parent / "data" / "dense_nodes_line.json"


def test_solve_line_without_room_for_samples_exits_2(tmp_path, capsys):
    code = run_command(["solve-line", str(DENSE_NODES), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = json.loads(err)
    assert error["error"] == "input" and "avoided set" in error["message"]


UNEQUAL_COUNTS = Path(__file__).parent / "data" / "unequal_counts_line.json"


def test_solve_line_with_unequal_counts_is_not_square(tmp_path, capsys):
    """One zero against two poles: both scalar forms refuse it as NotSquare."""
    code = run_command(["solve-line", str(UNEQUAL_COUNTS), "--out", str(tmp_path / "r.json")])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "NotSquare", "message": "1 zeros vs 2 poles", "warnings": []}


def test_fay_check(tmp_path):
    code, report = run_json(
        ["fay-check", "--tau", "0+1i", "--samples", "30", "--seed", "7"],
        tmp_path / "r.json",
    )
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["fay.random_sweep"]["residual"] < 1e-9
    # an empty sweep passes with residual 0
    code, report = run_json(["fay-check", "--samples", "0"], tmp_path / "empty.json")
    assert code == 0
    assert [c["residual"] for c in report["checks"]] == [0.0, 0.0]


def test_reports_are_reproducible(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_command(["fay-check", "--samples", "10", "--seed", "11", "--out", str(a)])
    run_command(["fay-check", "--samples", "10", "--seed", "11", "--out", str(b)])
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    ra.pop("elapsed_s")
    rb.pop("elapsed_s")
    assert ra == rb


def test_exit_code_2_on_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_command(["solve-genus0", str(bad)]) == 2
    ok_syntax = tmp_path / "empty.json"
    ok_syntax.write_text(json.dumps({"rank": 1, "zeros": []}))
    assert run_command(["solve-genus0", str(ok_syntax)]) == 2
    assert run_command(["theta", "--tau", "huh"]) == 2
    assert run_command(["fay-check", "--samples", "-1"]) == 2
    undecodable = tmp_path / "binary.json"
    undecodable.write_bytes(b"\xff\xfe\x00")
    assert run_command(["solve-genus0", str(undecodable)]) == 2


@pytest.mark.parametrize("argv", [
    ["theta", "--samples", "5"],
    ["theta", "--seed", "1"],
    ["matrix-fay", "--samples", "5"],
    ["kernel-check", "--samples", "5"],
    ["detrep", "--samples", "5"],
    ["verify-all", "--samples", "5"],
])
def test_a_command_refuses_an_option_it_does_not_read(argv, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_command([*argv, "--out", str(out)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_report_has_null_seed_and_samples_where_the_command_lacks_them(tmp_path):
    code, report = run_json(["theta", "--z", "0.1"], tmp_path / "r.json")
    assert code == 0
    assert report["seed"] is None and report["samples"] is None
    assert report["schema_version"] == 1
    code, report = run_json(["matrix-fay", "--seed", "4"], tmp_path / "r.json")
    assert code == 0
    assert report["seed"] == 4 and report["samples"] is None
    code, report = run_json(["fay-check", "--samples", "3"], tmp_path / "r.json")
    assert code == 0
    assert report["seed"] == 0 and report["samples"] == 3


def test_exit_code_1_on_check_failure(tmp_path):
    # shrinking every tolerance by 1e-16 makes honest residuals fail
    code = run_command(["fay-check", "--samples", "5", "--seed", "1",
                        "--tol-scale", "1e-16", "--out",
                        str(tmp_path / "r.json")])
    assert code == 1


# rank 1 on tau = 0.3 + 0.9i, chi_tilde - chi matching the divisor class
# of the two zeros and two poles
CONINT_PROBLEM = Path(__file__).parent / "data" / "conint_problem.json"
ABSINT_PROBLEM = json.loads(CONINT_PROBLEM.read_text())


def test_conint_problem_file(tmp_path):
    code, report = run_json(["conint", str(CONINT_PROBLEM), "--samples", "20"],
                            tmp_path / "r.json")
    assert code == 0
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["conint.gamma_equality"]["residual"] < 1e-8
    assert checks["conint.intertwining"]["residual"] < 1e-7
    assert "gamma" in report


def test_conint_singular_base_value_names_its_condition(tmp_path, capsys):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({**ABSINT_PROBLEM, "base_value": [[[0.0, 0.0]]]}))
    code = run_command(["conint", str(problem), "--out", str(tmp_path / "r.json")])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "SingularMatrix"
    assert error["message"] == "base value Q condition inf"


@pytest.mark.parametrize("command, payload", [
    ("solve-line", {**LINE_PROBLEM, "chi": {"a": ["x"], "b": [0.41]}}),
    ("solve-genus0", {**GENUS0_PROBLEM, "zeros": [{"point": ["x", 0.0], "x": [[1.0, 0.0]]}]}),
    ("conint", {**ABSINT_PROBLEM, "chi": {"blocks": [{"a": ["x"], "b": [0.41]}]}}),
    ("conint", {**ABSINT_PROBLEM, "embedding": [["x", 0.0], [0.55, 0.66], [0.79, 0.16]]}),
    ("conint", {**ABSINT_PROBLEM, "embedding": [[0.16, 0.23], [0.55, 0.66]]}),
    ("conint", {**ABSINT_PROBLEM, "embedding": 5}),
    # a zero equal to a pole, and a base point on a zero, both mod the lattice
    ("solve-line", {**LINE_PROBLEM, "zeros": [[0.13, 0.27]], "poles": [[1.13, 0.27]]}),
    ("solve-line", {**LINE_PROBLEM, "base_point": [1.13, 0.27]}),
    # a zero base value: no invertible map takes it
    ("solve-line", {**LINE_PROBLEM, "base_value": [0.0, 0.0]}),
    # numbers beyond float range, and data that overflows in the solve
    ("solve-genus0", {**GENUS0_PROBLEM, "rank": float("inf")}),
    ("solve-line", {**LINE_PROBLEM, "chi": {"a": [10**400], "b": [0.41]}}),
    ("solve-line", {**LINE_PROBLEM, "tau": [0.3, 3509.0]}),
    ("conint", {**ABSINT_PROBLEM, "base_value": [[]]}),
    ("conint", {**ABSINT_PROBLEM, "zeros": [
        {"point": [0.13, 0.27], "vectors": [[[1.0, 1.7976931348623157e308]]]},
        ABSINT_PROBLEM["zeros"][1]]}),
], ids=["line-chi", "genus0-point", "conint-block", "conint-embedding",
        "conint-embedding-count", "conint-embedding-scalar", "line-zero-on-pole",
        "line-base-on-zero", "line-zero-base-value", "genus0-rank-inf", "line-huge-int", "line-tall-tau",
        "conint-base-shape", "conint-huge-vector"])
def test_bad_problem_exits_2(command, payload, tmp_path, capsys):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(payload))
    code = run_command([command, str(problem), "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err)["error"]


@pytest.mark.parametrize("command, payload", [
    # Im / Im(tau) overflows, so the zero has no representative on the lattice
    ("solve-line", {**LINE_PROBLEM, "zeros": [[0.13, 1.7e308], [0.61, 0.43]]}),
    ("conint", {**ABSINT_PROBLEM, "zeros": [
        {"point": [0.13, 0.27], "vectors": [[[1.0, 1.7976931348623157e308]]]},
        ABSINT_PROBLEM["zeros"][1]]}),
], ids=["line-huge-zero", "conint-huge-vector"])
def test_stderr_is_one_json_object(command, payload, tmp_path):
    # a fresh interpreter, because pytest captures warnings in-process
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(payload))
    src = str(Path(zpint.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "zpint.cli", command, str(problem)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    error = json.loads(proc.stderr)
    assert error["error"] and error["warnings"]
    assert all(w.startswith("RuntimeWarning: ") for w in error["warnings"])
    assert len(set(error["warnings"])) == len(error["warnings"])


def test_theta_omega_alias(tmp_path):
    code, report = run_json(["theta", "--omega", "i", "--z", "0"],
                            tmp_path / "r.json")
    assert code == 0
    assert abs(complex(*report["value"]) - 1.0864348112) < 1e-9


def test_theta_omega_file_genus2(tmp_path):
    omega_file = tmp_path / "omega.json"
    omega_file.write_text(json.dumps({
        "genus": 2,
        "omega": [[[0.3, 1.1], [0.1, 0.2]], [[0.1, 0.2], [-0.2, 0.9]]],
    }))
    code, report = run_json(
        ["theta", "--omega-file", str(omega_file), "--z", "0.2+0.1i,-0.3+0.05i"],
        tmp_path / "r.json",
    )
    assert code == 0
    import oracles

    ref = oracles.theta_char_direct(
        [0, 0], [0, 0], [0.2 + 0.1j, -0.3 + 0.05j],
        [[0.3 + 1.1j, 0.1 + 0.2j], [0.1 + 0.2j, -0.2 + 0.9j]], radius=20,
    )
    assert abs(complex(*report["value"]) - complex(ref)) < 1e-11


def test_detrep_export(tmp_path):
    """detrep --export writes the rank-1 pencil of the checks' own surface
    and kernel: bit for bit build_pencil(k1, emb) on the criterion's torus."""
    out = tmp_path / "pencil.json"
    code = run_command(["detrep", "--export", str(out), "--out",
                        str(tmp_path / "r.json")])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["M"] == 3
    from zpint.detrep import PencilRep, build_pencil
    from zpint.surface import build_embedding_functions

    pencil = PencilRep.from_json(out.read_text())
    assert pencil.size == 3
    surf, k1, _ = verify._torus_kernels()
    expected = build_pencil(k1, build_embedding_functions(surf, *verify.DETREP_EMBEDDING))
    for name in ("sigma1", "sigma2", "gamma"):
        assert getattr(pencil, name).tobytes() == getattr(expected, name).tobytes(), name


def test_detrep_takes_no_tau(tmp_path):
    """The detrep checks and their pencil are those of one fixed torus:
    --tau is no option of detrep."""
    assert run_command(["detrep", "--tau", "1i", "--out", str(tmp_path / "r.json")]) == 2


# --- fuzz: mutated problem files exit 0, 1 or 2, never with a traceback ---

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _nodes(tree, path=()):
    yield path, tree
    items = tree.items() if isinstance(tree, dict) else (
        enumerate(tree) if isinstance(tree, list) else ())
    for key, child in items:
        yield from _nodes(child, (*path, key))


@st.composite
def mutated(draw, payload):
    """The payload with one key dropped, one leaf replaced or one list shortened."""
    tree = copy.deepcopy(payload)
    nodes = list(_nodes(tree))[1:]
    path, node = draw(st.sampled_from(nodes))
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    kinds = ["drop"] if isinstance(parent, dict) else []
    if not isinstance(node, (dict, list)):
        kinds.append("replace")
    if isinstance(node, list) and node:
        kinds.append("shorten")
    kind = draw(st.sampled_from(kinds or ["replace"]))
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "shorten":
        del node[draw(st.integers(0, len(node) - 1)):]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return tree


@pytest.mark.parametrize("command, payload, examples", [
    ("solve-genus0", GENUS0_PROBLEM, 200),
    ("solve-line", LINE_PROBLEM, 150),
    ("conint", ABSINT_PROBLEM, 100),
], ids=["solve-genus0", "solve-line", "conint"])
def test_mutated_problems_exit_cleanly(command, payload, examples, tmp_path):
    problem = tmp_path / "p.json"

    @settings(max_examples=examples, derandomize=True, deadline=None, database=None)
    @given(mutated(payload))
    def run(case):
        problem.write_text(json.dumps(case))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_command([command, str(problem), "--samples", "2",
                                "--out", str(tmp_path / "r.json")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert json.loads(err.getvalue())["error"]

    run()
