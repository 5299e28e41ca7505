"""perfbench's span tracer still finds every zpint function and method it wraps.

The tracer (perfbench/tracer.py) rebinds zpint's public functions and a
few class methods from outside the package; a renamed or moved target
makes it raise TargetMissing.  This test only reads perfbench.
"""

import importlib.util
import types
from pathlib import Path

import numpy as np

import zpint.absint
import zpint.kernels
import zpint.theta
from zpint.surface import line_bundle, torus_surface

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_targets():
    return (zpint.theta.theta_with_char, zpint.kernels.line_kernel,
            zpint.absint.build_solution, vars(zpint.kernels.CauchyKernelOracle)["__call__"],
            vars(zpint.absint.BundleMapEvaluator)["__call__"])


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer()
    originals = traced_targets()
    trace = tracer.Tracer().install()
    try:
        assert all(now is not before for now, before in zip(traced_targets(), originals))
        surf = torus_surface(0.3 + 0.9j)
        kernel = zpint.kernels.line_kernel(surf, line_bundle(0.21, 0.37))
        assert np.isfinite(kernel(0.1 + 0.2j, 0.5 + 0.3j)).all()
    finally:
        trace.uninstall()
    assert all(now is before for now, before in zip(traced_targets(), originals))
    counts = {name: trace.name.tolist().count(i) for i, name in enumerate(trace.names)}
    assert counts["kernels.line_kernel"] == 1
    assert counts["kernels.CauchyKernelOracle.__call__"] == 1


def test_interpolant_built_before_install_keeps_its_bits():
    """An interpolant built before the tracer is installed gives, traced, the
    bits it gives untraced: what it keeps from its build holds no function
    the tracer rebinds.  The functions perfbench's --trace 1 gate reads stay
    where the tracer looks for them, and each evaluation's kernel and theta
    work is a span of the public kernels.evaluate_channels and
    theta.theta_rows, so the per-layer metrics see it."""
    from zpint.absint import InterpolationDataSet, PoleNode, ZeroNode, build_solution

    assert "__call__" in vars(zpint.absint.BundleMapEvaluator)
    for module, name in ((zpint.kernels, "evaluate_channels"), (zpint.theta, "theta_many"),
                         (zpint.theta, "theta_rows")):
        assert isinstance(vars(module).get(name), types.FunctionType)
        assert not name.startswith("_")
    surf = torus_surface(0.1 + 1.05j)
    e = np.eye(2)
    zeros = (ZeroNode(0.21 + 0.33j, e[:1]), ZeroNode(0.12 + 0.82j, e[1:]))
    poles = (PoleNode(0.45 + 0.12j, e[:1]), PoleNode(0.33 + 0.55j, e[1:]))
    data = InterpolationDataSet(surf, 2, zeros, poles)
    kernels = [zpint.kernels.direct_sum_kernel([zpint.kernels.line_kernel(surf, line_bundle(a, b))
                                                for a, b in pair])
               for pair in (((0.23, 0.41), (0.67, 0.19)), ((0.58, 0.73), (0.31, 0.88)))]
    T = build_solution(data, 0.52 + 0.18j, np.diag([1.2 - 0.1j, 0.8 + 0.4j]), *kernels)
    P = [0.71 + 0.25j, 0.9 + 0.93j, 0.05 + 0.6j]
    untraced = [T(p) for p in P], T.many(P)
    trace = load_tracer().Tracer().install()
    try:
        traced = [T(p) for p in P], T.many(P)
    finally:
        trace.uninstall()
    assert all(np.array_equal(a, b) for a, b in zip(untraced[0], traced[0]))
    assert np.array_equal(untraced[1], traced[1])
    counts = {name: trace.name.tolist().count(i) for i, name in enumerate(trace.names)}
    assert counts["absint.BundleMapEvaluator.__call__"] == len(P)
    assert counts["kernels.evaluate_channels"] == counts["theta.theta_rows"] == len(P) + 1
    layers = trace.layer_metrics()
    assert layers["kernels.self_s"] > 0 and layers["theta.self_s"] > 0
