"""Span tracer for zpint's modules, installed from outside the package.

zpint's modules bind each other's functions with ``from .theta import ...``,
so patching ``zpint.theta.theta_with_char`` alone would miss the calls made
through ``zpint.surface.theta_with_char``.  ``Tracer.install`` therefore
rebinds every traced function in every ``zpint`` namespace that holds it,
patches a few class methods, and wraps the criterion functions held in
``verify.CRITERIA``.  ``uninstall`` restores every original.

A span records its name, parent span, start and end.  Spans stay in memory
(flat arrays) until the run ends; ``layer_metrics`` turns them into
per-module counts and self times, and ``write`` saves them.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time
import types

LAYERS = ("theta", "surface", "numutil", "kernels", "genus0", "absint",
          "detrep", "conint", "verify", "cli")

# Functions whose spans feed a named metric.  Every public function of a
# layer is wrapped; these must exist, so that renaming one fails loudly
# instead of silently emptying a metric.
REQUIRED = {
    "theta": ("riemann_theta", "theta_with_char", "theta_gradient", "period_from_tau"),
    "surface": ("prime_form", "build_embedding_functions"),
    "numutil": ("circle_modes",),
    "kernels": ("line_kernel", "direct_sum_kernel", "genus0_kernel"),
    "genus0": ("solve_genus0",),
    "absint": ("build_solution", "build_gamma", "fay_residual"),
    "detrep": ("build_pencil", "curve_membership", "pencil_membership"),
    "conint": ("solve_conint",),
    "verify": ("run_all",),
    "cli": ("run_command",),
}

# Class methods traced as (layer, class, method).
METHODS = (
    ("theta", "PeriodMatrix", "__post_init__"),
    ("kernels", "CauchyKernelOracle", "__call__"),
    ("surface", "EmbeddingPair", "lambda_values"),
    ("surface", "EmbeddingPair", "lambda_derivs"),
    ("genus0", "RationalMatrixFunction", "__call__"),
    ("absint", "BundleMapEvaluator", "__call__"),
)

# The nine acceptance criteria of verify.CRITERIA, by name.
CRITERIA = ("theta_engine", "genus0_interpolation", "cauchy_kernel", "fay_trisecant",
            "scalar_equivalence", "matrix_fay", "determinantal_rep",
            "concrete_interpolation", "negative_controls")


class TargetMissing(RuntimeError):
    """A function or method the tracer must wrap does not exist."""


class Tracer:
    """Records one span per call of every traced zpint function.

    Single-threaded: spans nest through one call stack.  Use as a context
    manager, or call install() and uninstall().
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.raised = array.array("b")   # 1 when the call raised a ZpintError
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---

    def _wrap(self, span_name: str, fn):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        name, parent, start, end, raised = (self.name, self.parent, self.start,
                                            self.end, self.raised)
        stack = self._stack
        clock = time.perf_counter
        zpint_error = importlib.import_module("zpint.errors").ZpintError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except zpint_error:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # --- installation ---

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"zpint.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr in REQUIRED[layer]:
                if not isinstance(vars(module).get(attr), types.FunctionType):
                    raise TargetMissing(f"zpint.{layer}.{attr}")
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrapped[id(value)] = self._wrap(f"{layer}.{attr}", value)
        try:
            for layer, cls_name, method in METHODS:
                cls = vars(modules[layer]).get(cls_name)
                if not isinstance(cls, type) or method not in vars(cls):
                    raise TargetMissing(f"zpint.{layer}.{cls_name}.{method}")
                self._patch(cls, method, self._wrap(f"{layer}.{cls_name}.{method}",
                                                    vars(cls)[method]))
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "zpint" and not mod_name.startswith("zpint."):
                    continue
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped and isinstance(value, types.FunctionType):
                        self._patch(module, attr, wrapped[id(value)])
            verify = modules["verify"]
            criteria = []
            for entry in verify.CRITERIA:
                crit, fn, *rest = entry
                criteria.append((crit, self._wrap(f"verify.{crit}", fn), *rest))
            missing = set(CRITERIA) - {entry[0] for entry in criteria}
            if missing:
                raise TargetMissing(f"zpint.verify.CRITERIA lacks {sorted(missing)}")
            self._patch(verify, "CRITERIA", tuple(criteria))
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # --- results ---

    def write(self, path: str):
        """Save every span to a .npz file: the name table and one array per field."""
        import numpy as np

        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end), raised=np.asarray(self.raised))

    def layer_metrics(self) -> dict:
        """Per-layer counts, inclusive times and self times from the spans.

        A span's self time is its duration minus the durations of its child
        spans; children nest inside their parent on one thread, so their
        durations never overlap.
        """
        n = len(self.name)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        raised = [0] * len(self.names)
        escaped = dict.fromkeys(LAYERS, 0)
        for i in range(n):
            nid = self.name[i]
            layer = layer_of[nid]
            self_s[layer] += dur[i] - child[i]
            calls[nid] += 1
            inclusive[nid] += dur[i]
            if self.raised[i]:
                raised[nid] += 1
                p = self.parent[i]
                if p < 0 or layer_of[self.name[p]] != layer:
                    escaped[layer] += 1
        by_name = {name: (calls[i], inclusive[i], raised[i])
                   for i, name in enumerate(self.names)}

        def count(*names):
            return sum(by_name.get(name, (0, 0.0, 0))[0] for name in names)

        def seconds(name):
            return by_name.get(name, (0, 0.0, 0))[1]

        theta_calls = count("theta.riemann_theta", "theta.theta_with_char",
                            "theta.theta_gradient")
        solves = count("genus0.solve_genus0")
        failed_solves = by_name.get("genus0.solve_genus0", (0, 0.0, 0))[2]
        out = {
            "theta.calls": theta_calls,
            "theta.grad_calls": count("theta.theta_gradient"),
            "theta.self_s": self_s["theta"],
            "theta.us_per_call": 1e6 * self_s["theta"] / theta_calls if theta_calls else 0.0,
            "theta.period_matrix_builds": count("theta.PeriodMatrix.__post_init__"),
            "surface.prime_form_calls": count("surface.prime_form"),
            "surface.lambda_calls": count("surface.EmbeddingPair.lambda_values",
                                          "surface.EmbeddingPair.lambda_derivs"),
            "surface.embedding_build_s": seconds("surface.build_embedding_functions"),
            "surface.self_s": self_s["surface"],
            "numutil.circle_modes_calls": count("numutil.circle_modes"),
            "numutil.self_s": self_s["numutil"],
            "kernels.calls": count("kernels.CauchyKernelOracle.__call__"),
            "kernels.self_s": self_s["kernels"],
            "genus0.solves": solves,
            "genus0.solve_success_ratio": (solves - failed_solves) / solves if solves else 1.0,
            "genus0.self_s": self_s["genus0"],
            "absint.gamma_build_s": seconds("absint.build_gamma"),
            "absint.evals": count("absint.BundleMapEvaluator.__call__"),
            "absint.fay_calls": count("absint.fay_residual"),
            "absint.errors": escaped["absint"],
            "absint.self_s": self_s["absint"],
            "detrep.pencil_builds": count("detrep.build_pencil"),
            "detrep.membership_calls": count("detrep.curve_membership",
                                             "detrep.pencil_membership"),
            "detrep.self_s": self_s["detrep"],
            "conint.solves": count("conint.solve_conint"),
            "conint.self_s": self_s["conint"],
        }
        for crit in CRITERIA:
            out[f"verify.{crit}_s"] = seconds(f"verify.{crit}")
        out["verify.self_s"] = self_s["verify"]
        out["cli.self_s"] = self_s["cli"]
        return out
