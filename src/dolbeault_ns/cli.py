"""Command-line entry points.

    dolbeault-ns simulate  --config cfg.json --out run/ [--u0 DIR | --initial JSON]
    dolbeault-ns verify    [--op all|dbar|adjoint|laplacian|leray|pressure|key1|frechet] --n 2 --q 1 --N 8 [--trials T]
    dolbeault-ns norms     --traj run/ --k 0 --s 1 [--lps-r 5]
    dolbeault-ns pressure  --forces F/ --out p/
    dolbeault-ns linearize --base-traj run/ --config cfg.json --out lin/ [--u0 DIR | --initial JSON]

Exit status: 0 on success / all checks passing, 1 on a failed check or a
runtime failure (blow-up, CFL rejection, inconsistent pressure source),
2 on usage or input errors.
"""

import argparse
import json
import sys

import numpy as np

from . import dolbeault, dynamics, io, norms
from .dolbeault import PressureConsistencyError, dbar, dbar_star, laplacian_q, leray_project
from .dynamics import BlowUpError, CFLError, frechet_residual, verify_key1
from .forms import BilinearSpec, FormField, l2_inner, l2_norm, random_form
from .io import FieldFormatError, InitialSpec
from .spectral import FOURIER, SpectralGrid


# default --trials of verify; key1 samples a cancellation, so it draws more:
# verify_key1's default
VERIFY_TRIALS = 20


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dolbeault-ns", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate the nonlinear problem")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    _add_initial_arguments(sim)

    ver = sub.add_parser("verify", help="run operator invariant checks")
    ver.add_argument("--op", default="all", choices=["all", *CHECKS])
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--q", type=int, required=True)
    ver.add_argument("--N", type=int, required=True)
    key1 = dynamics._KEY1_TRIALS
    ver.add_argument("--trials", type=int, default=None, help=f"trials per check (default {VERIFY_TRIALS}, key1 {key1})")
    ver.add_argument("--seed", type=int, default=0)

    nrm = sub.add_parser("norms", help="evaluate trajectory norms")
    nrm.add_argument("--traj", required=True)
    nrm.add_argument("--k", type=int, required=True)
    nrm.add_argument("--s", type=int, required=True)
    nrm.add_argument("--lps-r", type=float, default=None)

    prs = sub.add_parser("pressure", help="recover the pressure from a force field")
    prs.add_argument("--forces", required=True)
    prs.add_argument("--out", required=True)

    lin = sub.add_parser("linearize", help="solve the problem linearized around a run")
    lin.add_argument("--base-traj", required=True)
    lin.add_argument("--config", required=True)
    lin.add_argument("--out", required=True)
    _add_initial_arguments(lin)
    return parser


def _add_initial_arguments(parser):
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--u0", default=None, help="directory of a stored initial field")
    source.add_argument("--initial", default=None, help="inline initial-condition JSON")


def _initial_field(args, config, grid):
    """--u0 on the full lattice (the run dealiases it and rejects it if
    that moves it), else the --initial data (default random_solenoidal)
    on grid."""
    if args.u0 is not None:
        return io.load_field(args.u0, grid=grid.full)
    spec = InitialSpec() if args.initial is None else InitialSpec.from_json(json.loads(args.initial))
    return io.gen_initial(spec, config, grid)


# -- verify checks -------------------------------------------------------------
# Each function is one draw of a check: its residual on fresh random forms
# at bidegree p (key1: verify_key1's own draws, from --seed).


def _dbar(grid, p, rng, args):
    u = random_form(grid, p, rng)
    return l2_norm(dbar(dbar(u))) / l2_norm(u)


def _adjoint(grid, p, rng, args):
    u = random_form(grid, p, rng).to_physical()
    v = random_form(grid, p + 1, rng).to_physical()
    return abs(l2_inner(dbar(u), v) - l2_inner(u, dbar_star(v))) / (l2_norm(u) * l2_norm(v))


def _laplacian(grid, p, rng, args):
    u = random_form(grid, p, rng)
    direct = FormField(grid, p, (grid.zeta_sq / 4.0) * u.data, FOURIER)
    return l2_norm(laplacian_q(u) - direct) / l2_norm(u)


def _leray(grid, p, rng, args):
    """The worst of idempotence, self-adjointness, a solenoidal image and
    exact forms sent to zero."""
    u = random_form(grid, p, rng)
    v = random_form(grid, p, rng)
    dg = dbar(random_form(grid, p - 1, rng))
    Pu = leray_project(u)
    gap = abs(l2_inner(Pu.to_physical(), v.to_physical()) - l2_inner(u.to_physical(), leray_project(v).to_physical()))
    residuals = [
        l2_norm(leray_project(Pu) - Pu) / l2_norm(u),
        gap / (l2_norm(u) * l2_norm(v)),
        l2_norm(dbar_star(Pu)) / l2_norm(u),
    ]
    if l2_norm(dg) > 0:
        residuals.append(l2_norm(leray_project(dg)) / l2_norm(dg))
    return float(np.max(residuals))


def _pressure(grid, p, rng, args):
    F = dbar(random_form(grid, p - 1, rng))
    return l2_norm(dbar(dolbeault.pressure_recover(F)) - F) / l2_norm(F)


def _key1(grid, p, rng, args):
    trials = dynamics._KEY1_TRIALS if args.trials is None else args.trials
    report = verify_key1(BilinearSpec.lamb(), grid, p, trials=trials, seed=args.seed)
    return report["max_normalized_pairing"]


def _frechet(grid, p, rng, args):
    """Spread of ||N(w + eps v) - N(w) - eps B(w, v)|| / eps^2 over three eps."""
    spec = BilinearSpec.lamb()
    w = random_form(grid, p, rng, decay=2.0)
    v = random_form(grid, p, rng, decay=2.0)
    ratios = [frechet_residual(w, v, eps, spec) / eps**2 for eps in (1e-1, 1e-2, 1e-3)]
    return float((np.max(ratios) - np.min(ratios)) / np.max(ratios))


# verify's checks in report order: name -> (tolerance, one draw).  A check's
# residual is its worst draw: --trials draws at q, or at each bidegree below
# n - 1 in turn for dbar, and a single draw for ONE_DRAW, the checks of the
# built-in lamb table (q = 1 only).
CHECKS = {
    "dbar": (1e-12, _dbar),
    "adjoint": (1e-12, _adjoint),
    "laplacian": (1e-12, _laplacian),
    "leray": (1e-10, _leray),
    "pressure": (1e-10, _pressure),
    "key1": (dynamics._KEY1_TOL, _key1),
    "frechet": (1e-8, _frechet),
}
ONE_DRAW = ("key1", "frechet")


def _cmd_verify(args) -> int:
    if not 1 <= args.q <= args.n - 1:
        raise ValueError(f"q={args.q} outside 1..{args.n - 1}")
    if args.trials is not None and args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    names = list(CHECKS) if args.op == "all" else [args.op]
    for name in names:
        if name in ONE_DRAW and args.q != 1:
            raise ValueError(f"{name} uses the built-in lamb nonlinearity (q = 1)")
    trials = VERIFY_TRIALS if args.trials is None else args.trials
    grid = SpectralGrid(args.n, args.N)
    rng = np.random.default_rng(args.seed)
    ops = {}
    for name in names:
        tol, residual = CHECKS[name]
        bidegrees = range(args.n - 1) if name == "dbar" else [args.q]
        worst = 0.0
        for p in bidegrees:
            for _ in range(1 if name in ONE_DRAW else trials):
                # np.maximum, unlike max, keeps a NaN draw, so the check fails
                worst = float(np.maximum(worst, residual(grid, p, rng, args)))
        ops[name] = {"residual": worst, "tol": tol, "pass": bool(worst < tol)}
    report = {"n": args.n, "q": args.q, "N": args.N, "checks": ops}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if all(entry["pass"] for entry in ops.values()) else 1


def _cmd_simulate(args) -> int:
    config = io.load_config(args.config)
    grid = config.make_grid()
    u0 = _initial_field(args, config, grid)
    with io.TrajectoryWriter(args.out) as sink:
        traj = dynamics.simulate(config, u0, sink)
    print(
        json.dumps(
            {
                "out": args.out,
                "snapshots": len(traj.velocities),
                "final_energy": float(traj.diagnostics["energy"][-1]),
                "config_hash": io.config_hash(config),
            },
            indent=2,
        )
    )
    return 0


def _cmd_norms(args) -> int:
    traj = io.load_trajectory(args.traj)
    report = norms.energy_report(traj)
    report.values["bochner_vel"] = norms.bochner_vel(traj, args.k, args.s)
    report.params.update(k=args.k, s=args.s)
    if args.lps_r is not None:
        report.values["lps_integral"] = norms.lps_integral(traj, args.lps_r)
        report.params["lps_r"] = args.lps_r
        report.params["lps_s"] = norms.lps_exponent(traj.config.n, args.lps_r)
    print(report.dumps())
    return 0


def _cmd_pressure(args) -> int:
    F = io.load_field(args.forces)
    p = dolbeault.pressure_recover(F)
    io.save_field(args.out, p)
    print(json.dumps({"out": args.out, "q": p.q}))
    return 0


def _cmd_linearize(args) -> int:
    config = io.load_config(args.config)
    base = io.load_trajectory(args.base_traj)
    grid = config.make_grid()
    u0 = _initial_field(args, config, grid)
    with io.TrajectoryWriter(args.out) as sink:
        traj = dynamics.solve_linearized(base, config, u0=u0, sink=sink)
    print(json.dumps({"out": args.out, "snapshots": len(traj.velocities)}))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
        "norms": _cmd_norms,
        "pressure": _cmd_pressure,
        "linearize": _cmd_linearize,
    }
    try:
        return handlers[args.command](args)
    except (BlowUpError, CFLError, PressureConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FieldFormatError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
