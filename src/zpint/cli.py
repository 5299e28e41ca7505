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

A command loads its data and returns (checks, extras): the checks come
from the check table in `zpint.verify`, the same functions the battery
runs, so a command reports the battery's names and tolerances; only
`theta.deterministic` and `genus0.identity_at_infinity` are CLI-only rows.
run_command times the command and writes the one JSON report (stdout by
default, --out otherwise), or one JSON error object on stderr; either
carries the warnings the command raised as a "warnings" list, and none
is printed beside it.  It exits 0 when all checks pass, 1 on a check
failure and 2 on bad input.  Complex numbers are written as [re, im]
pairs in files and accepted as "a+bi" or "a+bj" strings on the command
line.  Sweeps are seeded and reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import warnings

import numpy as np

from . import verify
from .absint import (
    InterpolationDataSet,
    PoleNode,
    ZeroNode,
    build_solution,
    divisor_characteristic,
    scalar_multiplicative,
    scalar_partial_fraction,
)
from .detrep import build_pencil
from .errors import InputError, ZpintError
from .genus0 import Genus0Problem, solve_genus0
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

# what reading a malformed JSON payload raises: missing keys, wrong types,
# bad strings, short lists, numbers beyond float range
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, OverflowError)


def _parse_complex(text: str) -> complex:
    try:
        return complex(str(text).strip().replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise InputError(f"cannot parse complex number {text!r}") from exc


def _pair(value) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            z = complex(float(value[0]), float(value[1]))
        except _MALFORMED:
            pass
        else:
            if np.isfinite(z):
                return z
    raise InputError(f"expected [re, im] pair of finite numbers, got {value!r}")


def _enc(value):
    value = complex(value)
    return [value.real, value.imag]


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise InputError(f"cannot read problem file {path}: {exc}") from exc


def _echo_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _theta_inputs(args):
    """Period matrix, argument vector and characteristic (or None) of `theta`."""
    if args.omega_file:
        payload = _load_json(args.omega_file)
        try:
            g = int(payload["genus"])
            rows = [[_pair(v) for v in row] for row in payload["omega"]]
            pm = PeriodMatrix(g, np.array(rows, dtype=complex))
        except _MALFORMED as exc:
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


def _cmd_theta(args):
    pm, z, chi = _theta_inputs(args)

    def theta():
        return riemann_theta(z, pm) if chi is None else theta_with_char(chi, z, pm)

    value = theta()
    extras = {"value": _enc(value)}
    if args.grad:
        zero = np.zeros(pm.genus)
        grad = theta_gradient(ThetaCharacteristic(zero, zero) if chi is None else chi, z, pm)
        extras["gradient"] = [_enc(v) for v in grad]
    # determinism check doubles as a smoke check
    checks = [verify.check("theta.deterministic", abs(value - theta()), 1e-9 * args.tol_scale)]
    return checks, extras


def _load_genus0_problem(payload) -> Genus0Problem:
    try:
        rank = int(payload["rank"])
        zeros = tuple(
            (_pair(z["point"]), [_pair(v) for v in z["x"]]) for z in payload["zeros"]
        )
        poles = tuple(
            (_pair(p["point"]), [_pair(v) for v in p["u"]]) for p in payload["poles"]
        )
    except _MALFORMED as exc:
        raise InputError(f"bad genus-0 problem payload: {exc}") from exc
    return Genus0Problem(rank=rank, zeros=zeros, poles=poles)


def _cmd_solve_genus0(args):
    payload = _load_json(args.problem)
    problem = _load_genus0_problem(payload)
    T = solve_genus0(problem)
    rng = np.random.default_rng(args.seed)
    checks = verify.genus0_checks(problem, T, rng, args.samples, args.tol_scale)
    # T - I decays like (node scale)/z, so probe far out on the nodes' own scale
    far = 1e6 * max([1.0, *(abs(z) for z, _ in (*problem.zeros, *problem.poles))])
    checks.append(verify.check("genus0.identity_at_infinity",
                               float(np.abs(T(far) - np.eye(problem.rank)).max()), 1e-5))
    if problem.rank == 1:
        lams = [lam for lam, _ in problem.zeros]
        mus = [mu for mu, _ in problem.poles]
        checks.append(verify.genus0_product_check(lams, mus, rng, args.samples,
                                                  args.tol_scale))
    extras = {
        "input_sha256": _echo_hash(payload),
        "gamma_condition": T.gamma_cond,
        "evaluations": [
            {"z": _enc(z), "value": [[_enc(v) for v in row] for row in T(z)]}
            for z in (10.0, 1 + 2j, -3 + 0.5j)
            if all(abs(z - mu) > 1e-9 for mu, _ in problem.poles)
        ],
    }
    return checks, extras


def _cmd_solve_line(args):
    payload = _load_json(args.problem)
    try:
        surf = torus_surface(_pair(payload["tau"]))
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
    except _MALFORMED as exc:
        raise InputError(f"bad line problem payload: {exc}") from exc
    problem = (surf, zeros, poles, chi, chit, q, base_value)
    rng = np.random.default_rng(args.seed)
    checks = [verify.line_equivalence_check(*problem, rng, args.samples, args.tol_scale)]
    p = verify.sample_point(surf, rng, avoid=[*zeros, *poles, q])
    extras = {
        "input_sha256": _echo_hash(payload),
        "evaluation": {"p": _enc(p),
                       "multiplicative": _enc(scalar_multiplicative(*problem)(p)),
                       "partial_fraction": _enc(scalar_partial_fraction(*problem)(p))},
    }
    return checks, extras


def _cmd_fay_check(args):
    surf = torus_surface(_parse_complex(args.tau))
    rng = np.random.default_rng(args.seed)
    checks = [verify.fay_sweep_check(surf, rng, args.samples, args.tol_scale),
              verify.fay_degenerate_check(surf, rng, args.samples, args.tol_scale)]
    return checks, {}


def _cmd_criterion(args):
    """A battery criterion run on its own (matrix-fay, kernel-check)."""
    return args.criterion(seed=args.seed, tol_scale=args.tol_scale), {}


def _cmd_detrep(args):
    checks = verify.checks_detrep(seed=args.seed, tol_scale=args.tol_scale)
    if not args.export:
        return checks, {}
    surf = torus_surface(_parse_complex(args.tau))
    emb = build_embedding_functions(surf, 0.13 + 0.21j, 0.52 + 0.64j, 0.77 + 0.18j)
    pencil = build_pencil(line_kernel(surf, line_bundle(0.21, 0.37)), emb)
    with open(args.export, "w") as handle:
        handle.write(pencil.to_json() + "\n")
    return checks, {"exported_pencil": args.export}


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
    except _MALFORMED as exc:
        raise InputError(f"bad interpolation problem payload: {exc}") from exc
    if oracle_chi.rank != rank or oracle_tilde.rank != rank:
        raise InputError("bundle rank does not match the declared rank")
    if base.shape != (rank, rank):
        raise InputError(f"base_value must be a {rank} x {rank} matrix")
    data = InterpolationDataSet(surface=surf, rank=rank, zeros=zeros,
                                poles=poles, couplings=couplings)
    return data, oracle_chi, oracle_tilde, q, base


def _cmd_conint(args):
    if not args.problem:
        return verify.checks_conint(seed=args.seed, tol_scale=args.tol_scale), {}
    payload = _load_json(args.problem)
    data, oracle_chi, oracle_tilde, q, base = load_absint_problem(payload)
    emb_pts = payload.get("embedding", [[x.real, x.imag] for x in verify.CONINT_EMBEDDING])
    if not isinstance(emb_pts, list) or len(emb_pts) != 3:
        raise InputError(f"embedding must list three pole points, got {emb_pts!r}")
    emb = build_embedding_functions(data.surface, *map(_pair, emb_pts))
    T = build_solution(data, q, base, oracle_chi, oracle_tilde)
    rng = np.random.default_rng(args.seed)
    checks, solution = verify.conint_checks(data, oracle_chi, oracle_tilde, T, emb, q,
                                            rng, args.samples, args.tol_scale)
    extras = {"input_sha256": _echo_hash(payload),
              "gamma": [[_enc(v) for v in row] for row in solution.gamma]}
    return checks, extras


def _cmd_verify_all(args):
    battery = verify.run_all(seed=args.seed, tol_scale=args.tol_scale)
    checks = [c for criterion in battery["criteria"] for c in criterion["checks"]]
    return checks, {"criteria": battery["criteria"]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpint",
        description="Zero-pole interpolation on compact Riemann surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text, **defaults):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0, help="RNG seed for sweeps")
        p.add_argument("--samples", type=int, default=50, help="sweep sample count")
        p.add_argument("--tol-scale", dest="tol_scale", type=float, default=1.0,
                       help="multiply every tolerance by this factor")
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.set_defaults(fn=fn, **defaults)
        return p

    p = command("theta", _cmd_theta, "evaluate theta functions")
    p.add_argument("--tau", "--omega", dest="tau", default="1i",
                   help="genus-1 modulus, e.g. 0.3+0.8i")
    p.add_argument("--omega-file", default=None, help="JSON with genus and omega")
    p.add_argument("--z", default="0", help="argument, comma-separated per genus")
    p.add_argument("--char", default=None, help="characteristics 'a1,..:b1,..'")
    p.add_argument("--grad", action="store_true", help="also return the gradient")

    p = command("solve-genus0", _cmd_solve_genus0, "rational matrix interpolation")
    p.add_argument("problem", help="problem JSON path")
    p = command("solve-line", _cmd_solve_line, "scalar torus interpolation, both forms")
    p.add_argument("problem", help="problem JSON path")
    p = command("fay-check", _cmd_fay_check, "randomized trisecant-identity sweep")
    p.add_argument("--tau", default="0.3+0.9i")
    command("matrix-fay", _cmd_criterion, "single zero/pole matrix identity sweep",
            criterion=verify.checks_matrix_fay)
    command("kernel-check", _cmd_criterion, "kernel invariants sweep",
            criterion=verify.checks_kernel)
    p = command("detrep", _cmd_detrep, "determinantal representation sweep")
    p.add_argument("--tau", default="0.3+0.9i")
    p.add_argument("--export", default=None, help="write the pencil JSON here")
    p = command("conint", _cmd_conint, "concrete interpolation round trip")
    p.add_argument("problem", nargs="?", default=None,
                   help="optional interpolation problem JSON; fixtures otherwise")
    command("verify-all", _cmd_verify_all, "full acceptance battery")
    return parser


def _warning_texts(caught) -> list[str]:
    """The distinct warnings a command raised, as "Category: message" lines, in order."""
    return list(dict.fromkeys(f"{w.category.__name__}: {w.message}" for w in caught))


def run_command(argv) -> int:
    """Run one command and write its report; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            checks, extras = args.fn(args)
        except ZpintError as exc:
            kind = "input" if isinstance(exc, InputError) else type(exc).__name__
            print(json.dumps({"error": kind, "message": str(exc),
                              "warnings": _warning_texts(caught)}), file=sys.stderr)
            return 2
    report = {
        "command": args.command,
        "schema_version": 1,
        "seed": args.seed,
        "samples": args.samples,
        "tol_scale": args.tol_scale,
        "checks": checks,
        **extras,
        "warnings": _warning_texts(caught),
        "elapsed_s": time.perf_counter() - start,
        "passed": all(c["passed"] for c in checks),
    }
    text = json.dumps(report, indent=2, default=float)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0 if report["passed"] else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
