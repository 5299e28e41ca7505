"""Command-line front end.

Subcommands:

    theta         evaluate theta / theta[a; b] / gradient
    solve-genus0  rational matrix interpolation from a problem file
    solve-line    scalar torus interpolation, both forms plus equivalence
    fay-check     randomized trisecant-identity sweep
    matrix-fay    single zero/pole matrix identity sweep
    kernel-check  residue / connection / duality / collection invariants
    detrep        pencil construction, identities and membership sweeps
    conint        concrete interpolation round trip
    verify-all    the full acceptance battery

Every command writes a JSON report (stdout by default, --out otherwise)
and exits 0 when all checks pass, 1 on a check failure and 2 on bad
input.  Complex numbers are written as [re, im] pairs in files and
accepted as "a+bi" or "a+bj" strings on the command line.  Sweeps are
seeded and reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import verify
from .absint import (
    InterpolationDataSet,
    PoleNode,
    ZeroNode,
    build_solution,
    divisor_characteristic,
    fay_residual,
    scalar_multiplicative,
    scalar_partial_fraction,
)
from .conint import (
    check_condition_I3,
    check_gamma_equality,
    check_intertwining,
    convert_absint_to_conint,
    solve_conint,
)
from .detrep import build_pencil, curve_membership
from .errors import InputError, ZpintError
from .genus0 import Genus0Problem, scalar_product_form, solve_genus0, sylvester_coefficients
from .kernels import direct_sum_kernel, line_kernel
from .surface import build_embedding_functions, line_bundle, torus_surface
from .theta import (
    PeriodMatrix,
    ThetaCharacteristic,
    period_from_tau,
    riemann_theta,
    theta_gradient,
    theta_with_char,
)

__all__ = ["main", "run_command"]


def _parse_complex(text: str) -> complex:
    try:
        return complex(str(text).strip().replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise InputError(f"cannot parse complex number {text!r}") from exc


def _pair(value) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError):
            pass
    raise InputError(f"expected [re, im] pair of numbers, got {value!r}")


def _enc(value):
    value = complex(value)
    return [value.real, value.imag]


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read problem file {path}: {exc}") from exc


def _echo_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Reporter:
    def __init__(self, command: str, args):
        self.report = {
            "command": command,
            "schema_version": 1,
            "seed": getattr(args, "seed", None),
            "samples": getattr(args, "samples", None),
            "tol_scale": getattr(args, "tol_scale", 1.0),
            "checks": [],
        }
        self._start = time.perf_counter()

    def check(self, name, residual, tolerance):
        entry = {
            "name": name,
            "residual": float(residual),
            "tolerance": float(tolerance),
            "passed": bool(float(residual) <= float(tolerance)),
        }
        self.report["checks"].append(entry)
        return entry["passed"]

    def extra(self, key, value):
        self.report[key] = value

    def finish(self, out_path=None) -> int:
        self.report["elapsed_s"] = time.perf_counter() - self._start
        self.report["passed"] = all(c["passed"] for c in self.report["checks"])
        text = json.dumps(self.report, indent=2, default=float)
        if out_path:
            with open(out_path, "w") as handle:
                handle.write(text + "\n")
        else:
            print(text)
        return 0 if self.report["passed"] else 1


def _theta_inputs(args):
    """Period matrix, argument vector and characteristic (or None) of `theta`."""
    if args.omega_file:
        payload = _load_json(args.omega_file)
        try:
            g = int(payload["genus"])
            rows = [[_pair(v) for v in row] for row in payload["omega"]]
            pm = PeriodMatrix(g, np.array(rows, dtype=complex))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad omega file: {exc}") from exc
    else:
        pm = period_from_tau(_parse_complex(args.tau))
    z = np.array([_parse_complex(part) for part in args.z.split(",")])
    if z.size != pm.genus:
        raise InputError(f"--z has {z.size} entries, expected genus {pm.genus}")
    if not np.isfinite(z).all():
        raise InputError("--z entries must be finite")
    if not args.char:
        return pm, z, None
    try:
        a_text, b_text = args.char.split(":")
        chi = ThetaCharacteristic(
            np.array([float(v) for v in a_text.split(",")]),
            np.array([float(v) for v in b_text.split(",")]),
        )
    except ValueError as exc:
        raise InputError(f"--char must be 'a1,..:b1,..' with finite entries: {exc}") from exc
    if chi.genus != pm.genus:
        raise InputError(f"--char has genus {chi.genus}, expected {pm.genus}")
    return pm, z, chi


def _cmd_theta(args) -> int:
    rep = Reporter("theta", args)
    pm, z, chi = _theta_inputs(args)
    tol = 1e-9 * args.tol_scale
    if chi is not None:
        value = theta_with_char(chi, z, pm)
        rep.extra("value", _enc(value))
        if args.grad:
            rep.extra("gradient", [_enc(v) for v in theta_gradient(chi, z, pm)])
    else:
        value = riemann_theta(z, pm)
        rep.extra("value", _enc(value))
        if args.grad:
            zero = np.zeros(pm.genus)
            chi = ThetaCharacteristic(zero, zero)
            rep.extra("gradient", [_enc(v) for v in theta_gradient(chi, z, pm)])
    # determinism check doubles as a smoke check
    again = riemann_theta(z, pm) if not args.char else theta_with_char(chi, z, pm)
    rep.check("theta.deterministic", abs(value - again), tol)
    return rep.finish(args.out)


def _load_genus0_problem(payload) -> Genus0Problem:
    try:
        rank = int(payload["rank"])
        zeros = tuple(
            (_pair(z["point"]), [_pair(v) for v in z["x"]]) for z in payload["zeros"]
        )
        poles = tuple(
            (_pair(p["point"]), [_pair(v) for v in p["u"]]) for p in payload["poles"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad genus-0 problem payload: {exc}") from exc
    try:
        return Genus0Problem(rank=rank, zeros=zeros, poles=poles)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _cmd_solve_genus0(args) -> int:
    payload = _load_json(args.problem)
    rep = Reporter("solve-genus0", args)
    rep.extra("input_sha256", _echo_hash(payload))
    problem = _load_genus0_problem(payload)
    tol = 1e-10 * args.tol_scale
    T = solve_genus0(problem)
    Ti = T.inverse()
    rep.extra("gamma_condition", T.gamma_cond)
    scale = max(float(np.abs(T(3.7 + 1.1j)).max()), 1.0)
    worst = 0.0
    for lam, x in problem.zeros:
        worst = max(worst, float(np.abs(x @ T(lam)).max()) / scale)
    rep.check("zero_conditions", worst, tol)
    worst = 0.0
    for mu, u in problem.poles:
        worst = max(worst, float(np.abs(Ti(mu) @ u).max()) / scale)
    rep.check("pole_conditions", worst, tol)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        z = rng.uniform(-5, 5) + 1j * rng.uniform(-5, 5)
        if any(abs(z - mu) < 0.1 for mu, _ in problem.poles):
            continue
        if any(abs(z - lam) < 0.1 for lam, _ in problem.zeros):
            continue
        worst = max(worst, float(np.abs(T(z) @ Ti(z) - np.eye(problem.rank)).max()))
    rep.check("inverse_identity", worst, tol)
    rep.check("identity_at_infinity",
              float(np.abs(T(1e6) - np.eye(problem.rank)).max()), 1e-5)
    eval_points = [10.0, 1 + 2j, -3 + 0.5j]
    rep.extra("evaluations", [
        {"z": _enc(z), "value": [[_enc(v) for v in row] for row in T(z)]}
        for z in eval_points
        if all(abs(z - mu) > 1e-9 for mu, _ in problem.poles)
    ])
    if problem.rank == 1:
        lams = [lam for lam, _ in problem.zeros]
        mus = [mu for mu, _ in problem.poles]
        prod = scalar_product_form(lams, mus)
        coeffs = sylvester_coefficients(lams, mus)
        worst = 0.0
        for _ in range(args.samples):
            z = rng.uniform(-5, 5) + 1j * rng.uniform(-5, 5)
            if any(abs(z - mu) < 0.1 for mu in mus):
                continue
            pf = 1.0 + sum(c / (z - m) for c, m in zip(coeffs, mus))
            worst = max(worst, abs(pf - prod(z)) / (abs(pf) + abs(prod(z))))
        rep.check("product_vs_partial_fraction", worst, tol)
    return rep.finish(args.out)


def _cmd_solve_line(args) -> int:
    payload = _load_json(args.problem)
    rep = Reporter("solve-line", args)
    rep.extra("input_sha256", _echo_hash(payload))
    try:
        tau = _pair(payload["tau"])
        surf = torus_surface(tau)
        zeros = [_pair(z) for z in payload["zeros"]]
        poles = [_pair(p) for p in payload["poles"]]
        chi = line_bundle(payload["chi"]["a"], payload["chi"]["b"])
        q = _pair(payload["base_point"])
        base_value = _pair(payload["base_value"])
        if payload.get("chi_tilde") in (None, "auto"):
            a_w, b_w, _ = divisor_characteristic(surf, zeros, poles)
            chit = line_bundle(chi.a + a_w, chi.b + b_w)
        else:
            chit = line_bundle(payload["chi_tilde"]["a"], payload["chi_tilde"]["b"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad line problem payload: {exc}") from exc
    t_mult = scalar_multiplicative(surf, zeros, poles, chi, chit, q, base_value)
    t_pf = scalar_partial_fraction(surf, zeros, poles, chi, chit, q, base_value)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    avoid = zeros + poles + [q]
    for _ in range(args.samples):
        p = verify._torus_point(rng, tau, avoid=avoid)
        a, b = t_mult(p), t_pf(p)
        worst = max(worst, abs(a - b) / (abs(a) + abs(b)))
    rep.check("mult_vs_partial_fraction", worst, 1e-9 * args.tol_scale)
    sample = verify._torus_point(rng, tau, avoid=avoid)
    rep.extra("evaluation", {"p": _enc(sample), "multiplicative": _enc(t_mult(sample)),
                             "partial_fraction": _enc(t_pf(sample))})
    return rep.finish(args.out)


def _cmd_fay_check(args) -> int:
    rep = Reporter("fay-check", args)
    tau = _parse_complex(args.tau)
    surf = torus_surface(tau)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        z = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.4, 0.4)
        pts = [verify._torus_point(rng, tau) for _ in range(4)]
        worst = max(worst, fay_residual(surf, z, *pts))
    rep.check("fay.random_sweep", worst, 1e-9 * args.tol_scale)
    z = 0.1 + 0.2j
    p, qq, lam = (verify._torus_point(rng, tau) for _ in range(3))
    rep.check("fay.lambda_equals_mu", fay_residual(surf, z, p, qq, lam, lam),
              1e-10 * args.tol_scale)
    rep.check("fay.p_equals_lambda", fay_residual(surf, z, lam, qq, lam, p),
              1e-10 * args.tol_scale)
    return rep.finish(args.out)


def _cmd_matrix_fay(args) -> int:
    rep = Reporter("matrix-fay", args)
    for check in verify.checks_matrix_fay(seed=args.seed, tol_scale=args.tol_scale):
        rep.report["checks"].append(check)
    return rep.finish(args.out)


def _cmd_kernel_check(args) -> int:
    rep = Reporter("kernel-check", args)
    for check in verify.checks_kernel(seed=args.seed, tol_scale=args.tol_scale):
        rep.report["checks"].append(check)
    return rep.finish(args.out)


def _cmd_detrep(args) -> int:
    rep = Reporter("detrep", args)
    for check in verify.checks_detrep(seed=args.seed, tol_scale=args.tol_scale):
        rep.report["checks"].append(check)
    if args.export:
        tau = _parse_complex(args.tau)
        surf = torus_surface(tau)
        emb = build_embedding_functions(surf, 0.13 + 0.21j, 0.52 + 0.64j, 0.77 + 0.18j)
        oracle = line_kernel(surf, line_bundle(0.21, 0.37))
        pencil = build_pencil(oracle, emb)
        with open(args.export, "w") as handle:
            handle.write(pencil.to_json() + "\n")
        rep.extra("exported_pencil", args.export)
    return rep.finish(args.out)


def _load_bundle_oracle(payload, surf):
    blocks = payload["blocks"] if isinstance(payload, dict) else payload
    oracles = [line_kernel(surf, line_bundle(b["a"], b["b"])) for b in blocks]
    if len(oracles) == 1:
        return oracles[0]
    return direct_sum_kernel(oracles)


def load_absint_problem(payload):
    """Problem file -> (data set, input oracle, output oracle, q, Q).

    Bundles are direct sums of flat line bundles given by characteristic
    blocks; vectors are nested [re, im] pairs; couplings are listed per
    coincident (zero, pole) index pair.
    """
    try:
        tau = _pair(payload["tau"])
        surf = torus_surface(tau)
        rank = int(payload["rank"])
        oracle_chi = _load_bundle_oracle(payload["chi"], surf)
        oracle_tilde = _load_bundle_oracle(payload["chi_tilde"], surf)
        zeros = tuple(
            ZeroNode(_pair(z["point"]),
                     np.array([[_pair(v) for v in vec] for vec in z["vectors"]]))
            for z in payload["zeros"]
        )
        poles = tuple(
            PoleNode(_pair(p["point"]),
                     np.array([[_pair(v) for v in vec] for vec in p["vectors"]]))
            for p in payload["poles"]
        )
        couplings = {
            (int(c["zero"]), int(c["pole"])):
                np.array([[_pair(v) for v in row] for row in c["rho"]])
            for c in payload.get("couplings", [])
        }
        q = _pair(payload["base_point"])
        base = np.array([[_pair(v) for v in row] for row in payload["base_value"]])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise InputError(f"bad interpolation problem payload: {exc}") from exc
    if oracle_chi.rank != rank or oracle_tilde.rank != rank:
        raise InputError("bundle rank does not match the declared rank")
    try:
        data = InterpolationDataSet(surface=surf, rank=rank, zeros=zeros,
                                    poles=poles, couplings=couplings)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return data, oracle_chi, oracle_tilde, q, base


def _cmd_conint(args) -> int:
    rep = Reporter("conint", args)
    if not args.problem:
        for check in verify.checks_conint(seed=args.seed, tol_scale=args.tol_scale):
            rep.report["checks"].append(check)
        return rep.finish(args.out)

    payload = _load_json(args.problem)
    rep.extra("input_sha256", _echo_hash(payload))
    data, oracle_chi, oracle_tilde, q, base = load_absint_problem(payload)
    emb_pts = [_pair(x) for x in payload.get(
        "embedding", [[0.16, 0.23], [0.55, 0.66], [0.79, 0.16]]
    )]
    surf = data.surface
    emb = build_embedding_functions(surf, *emb_pts)
    T = build_solution(data, q, base, oracle_chi, oracle_tilde)
    converted = convert_absint_to_conint(data, oracle_tilde, emb)
    solution = solve_conint(converted)
    scale = args.tol_scale
    rep.check("gamma0_xi_independence", solution.xi_consistency, 1e-8 * scale)
    rep.check("gamma_equality",
              check_gamma_equality(data, oracle_tilde, converted), 1e-8 * scale)
    rng = np.random.default_rng(args.seed)
    tau = surf.tau
    avoid = [x.coordinate for x in emb.pole_points] + [q]
    avoid += [n.point.coordinate for n in (*data.zeros, *data.poles)]
    worst_int = 0.0
    worst_mem = 0.0
    for _ in range(max(args.samples // 5, 4)):
        p = verify._torus_point(rng, tau, avoid=avoid)
        worst_int = max(worst_int, check_intertwining(
            solution, T, oracle_chi, oracle_tilde, emb, p))
        det_rel, _ = curve_membership(solution.pencil_new, emb, p)
        worst_mem = max(worst_mem, det_rel)
    rep.check("intertwining", worst_int, 1e-7 * scale)
    rep.check("gamma_update_membership", worst_mem, 1e-7 * scale)
    for pair in converted.coincident_pairs():
        res = check_condition_I3(solution, emb, pair)
        rep.check(f"coupling_condition_{pair[0]}_{pair[1]}",
                  float(res.max()), 1e-5 * scale)
    rep.extra("gamma", [[_enc(v) for v in row] for row in solution.gamma])
    return rep.finish(args.out)


def _cmd_verify_all(args) -> int:
    rep = Reporter("verify-all", args)
    battery = verify.run_all(seed=args.seed, tol_scale=args.tol_scale)
    rep.extra("criteria", battery["criteria"])
    for criterion in battery["criteria"]:
        for check in criterion["checks"]:
            rep.report["checks"].append(check)
    return rep.finish(args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpint",
        description="Zero-pole interpolation on compact Riemann surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed for sweeps")
        p.add_argument("--samples", type=int, default=50, help="sweep sample count")
        p.add_argument("--tol-scale", dest="tol_scale", type=float, default=1.0,
                       help="multiply every tolerance by this factor")
        p.add_argument("--out", default=None, help="report path (default stdout)")

    p = sub.add_parser("theta", help="evaluate theta functions")
    p.add_argument("--tau", "--omega", dest="tau", default="1i",
                   help="genus-1 modulus, e.g. 0.3+0.8i")
    p.add_argument("--omega-file", default=None, help="JSON with genus and omega")
    p.add_argument("--z", default="0", help="argument, comma-separated per genus")
    p.add_argument("--char", default=None, help="characteristics 'a1,..:b1,..'")
    p.add_argument("--grad", action="store_true", help="also return the gradient")
    common(p)
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("solve-genus0", help="rational matrix interpolation")
    p.add_argument("problem", help="problem JSON path")
    common(p)
    p.set_defaults(fn=_cmd_solve_genus0)

    p = sub.add_parser("solve-line", help="scalar torus interpolation, both forms")
    p.add_argument("problem", help="problem JSON path")
    common(p)
    p.set_defaults(fn=_cmd_solve_line)

    p = sub.add_parser("fay-check", help="randomized trisecant-identity sweep")
    p.add_argument("--tau", default="0.3+0.9i")
    common(p)
    p.set_defaults(fn=_cmd_fay_check)

    p = sub.add_parser("matrix-fay", help="single zero/pole matrix identity sweep")
    common(p)
    p.set_defaults(fn=_cmd_matrix_fay)

    p = sub.add_parser("kernel-check", help="kernel invariants sweep")
    common(p)
    p.set_defaults(fn=_cmd_kernel_check)

    p = sub.add_parser("detrep", help="determinantal representation sweep")
    p.add_argument("--tau", default="0.3+0.9i")
    p.add_argument("--export", default=None, help="write the pencil JSON here")
    common(p)
    p.set_defaults(fn=_cmd_detrep)

    p = sub.add_parser("conint", help="concrete interpolation round trip")
    p.add_argument("problem", nargs="?", default=None,
                   help="optional interpolation problem JSON; fixtures otherwise")
    common(p)
    p.set_defaults(fn=_cmd_conint)

    p = sub.add_parser("verify-all", help="full acceptance battery")
    common(p)
    p.set_defaults(fn=_cmd_verify_all)
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InputError as exc:
        print(json.dumps({"error": "input", "message": str(exc)}), file=sys.stderr)
        return 2
    except ZpintError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
