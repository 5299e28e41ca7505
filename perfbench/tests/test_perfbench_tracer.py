"""Self-tests of the benchmark's tracer.

    python3 -m pytest perfbench/tests -q
"""

import cProfile
import pstats

import numpy as np
import pytest

import zpint.kernels
import zpint.surface
import zpint.theta

import tracer
import workloads


@pytest.fixture(scope="module")
def battery_seed0():
    """verify-all --seed 0 traced and profiled in one run, then untraced."""
    trace = tracer.Tracer()
    profile = cProfile.Profile()
    with trace:
        profile.enable()
        try:
            _, code, traced_report = workloads.run_battery(0)
        finally:
            profile.disable()
    _, plain_code, plain_report = workloads.run_battery(0)
    return trace, pstats.Stats(profile), (code, traced_report), (plain_code, plain_report)


def test_theta_calls_match_cprofile(battery_seed0):
    trace, stats, (code, _), _ = battery_seed0
    assert code == 0
    char_sum = [calls for (path, _, fn), (_, calls, *_) in stats.stats.items()
                if fn == "_char_sum" and path.endswith("theta.py")]
    assert len(char_sum) == 1
    assert trace.layer_metrics()["theta.calls"] == char_sum[0] > 0


def test_battery_residuals_identical_traced_and_untraced(battery_seed0):
    _, _, (code, traced), (plain_code, plain) = battery_seed0
    assert code == plain_code == 0
    traced, plain = (workloads.battery_outcome(0, report) for report in (traced, plain))
    assert traced["failed"] == plain["failed"] == 0
    assert traced["digest"] == plain["digest"]
    assert traced["residual_ratio"] == plain["residual_ratio"]


def _sweep(problem, trace=None):
    if trace:
        trace.install()
    try:
        T = workloads.solve(problem)
        values, _, errors = workloads.evaluate_sweep(T, problem.sweep[:20])
    finally:
        if trace:
            trace.uninstall()
    assert errors == 0
    return values


def test_no_theta_calls_on_sphere():
    trace = tracer.Tracer()
    _sweep(workloads.sphere_problem(0, 0), trace)
    layers = trace.layer_metrics()
    assert layers["theta.calls"] == 0
    assert layers["theta.period_matrix_builds"] == 0
    assert layers["kernels.calls"] > 0
    assert layers["absint.evals"] == 20


@pytest.mark.parametrize("make", [workloads.torus_problem, workloads.sphere_problem])
def test_interp_values_identical_traced_and_untraced(make):
    plain = _sweep(make(3, 0))
    traced = _sweep(make(3, 0), tracer.Tracer())
    assert plain.tobytes() == traced.tobytes()


def test_uninstall_restores_every_namespace():
    original = zpint.theta.theta_with_char
    call = zpint.kernels.CauchyKernelOracle.__call__
    with tracer.Tracer():
        assert zpint.surface.theta_with_char is not original
        assert zpint.kernels.theta_with_char is zpint.surface.theta_with_char
        assert zpint.theta.theta_with_char is zpint.surface.theta_with_char
    assert zpint.theta.theta_with_char is original
    assert zpint.surface.theta_with_char is original
    assert zpint.kernels.CauchyKernelOracle.__call__ is call


@pytest.mark.parametrize("owner, attr", [
    (zpint.theta, "theta_gradient"),
    (zpint.kernels.CauchyKernelOracle, "__call__"),
])
def test_missing_target_fails_loudly(monkeypatch, owner, attr):
    monkeypatch.delattr(owner, attr)
    kept = zpint.surface.prime_form
    with pytest.raises(tracer.TargetMissing):
        tracer.Tracer().install()
    assert zpint.surface.prime_form is kept


def test_missing_criterion_fails_loudly(monkeypatch):
    import zpint.verify

    monkeypatch.setattr(zpint.verify, "CRITERIA", zpint.verify.CRITERIA[1:])
    with pytest.raises(tracer.TargetMissing):
        tracer.Tracer().install()


def test_self_time_excludes_children():
    trace = tracer.Tracer()
    _sweep(workloads.torus_problem(5, 0), trace)
    layers = trace.layer_metrics()
    total = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    roots = [i for i in range(len(trace.name)) if trace.parent[i] < 0]
    covered = sum(trace.end[i] - trace.start[i] for i in roots)
    assert total == pytest.approx(covered, rel=1e-9)
    assert layers["theta.calls"] > 0
    assert np.isclose(layers["theta.us_per_call"],
                      1e6 * layers["theta.self_s"] / layers["theta.calls"])


def test_benchmark_json_names_every_reported_metric():
    import json
    import os

    import run

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    reported = [*tracer.Tracer().layer_metrics(), "trace.overhead_frac", "error_rate",
                "residual_ratio"]
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run.unit_of(name) for name in reported}
