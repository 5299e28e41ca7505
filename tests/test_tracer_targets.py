"""perfbench's span tracer still finds every zpint function and method it wraps.

The tracer (perfbench/tracer.py) rebinds zpint's public functions and a
few class methods from outside the package; a renamed or moved target
makes it raise TargetMissing.  This test only reads perfbench.
"""

import importlib.util
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
