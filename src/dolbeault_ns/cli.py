"""Command-line entry points.

    dolbeault-ns simulate  --config cfg.json --out run/ [--u0 DIR | --initial JSON]
    dolbeault-ns verify    [--op all|dbar|adjoint|leray|key1|frechet] --n 2 --q 1 --N 8 [--trials T]
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


# default --trials of verify; key1 samples a cancellation, so it draws more
VERIFY_TRIALS, KEY1_TRIALS = 20, 100


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dolbeault-ns", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate the nonlinear problem")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--u0", default=None, help="directory of a stored initial field")
    sim.add_argument("--initial", default=None, help="inline initial-condition JSON")

    ver = sub.add_parser("verify", help="run operator invariant checks")
    ver.add_argument(
        "--op",
        default="all",
        choices=["all", "dbar", "adjoint", "leray", "key1", "frechet"],
    )
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--q", type=int, required=True)
    ver.add_argument("--N", type=int, required=True)
    ver.add_argument(
        "--trials", type=int, default=None, help=f"trials per check (default {VERIFY_TRIALS}, key1 {KEY1_TRIALS})"
    )
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
    lin.add_argument("--u0", default=None)
    lin.add_argument("--initial", default=None)
    return parser


def _initial_field(args, config, grid):
    """--u0 on the full lattice (the run dealiases it and rejects it if
    that moves it), else the --initial data on grid."""
    if args.u0 is not None:
        return io.load_field(args.u0, grid=grid.full)
    doc = args.initial if args.initial is not None else '{"kind": "random_solenoidal"}'
    return io.gen_initial(InitialSpec.from_json(doc), config, grid)


# -- verify checks -------------------------------------------------------------


def _check_dbar(n, N, trials, rng):
    grid = SpectralGrid(n, N)
    worst = 0.0
    for q in range(0, n - 1):
        for _ in range(trials):
            u = random_form(grid, q, rng)
            worst = max(worst, l2_norm(dbar(dbar(u))) / l2_norm(u))
    return {"residual": worst, "tol": 1e-12}


def _check_adjoint(n, q, N, trials, rng):
    grid = SpectralGrid(n, N)
    worst = 0.0
    for _ in range(trials):
        u = random_form(grid, q, rng).to_physical()
        v = random_form(grid, q + 1, rng).to_physical()
        gap = abs(l2_inner(dbar(u), v) - l2_inner(u, dbar_star(v)))
        worst = max(worst, gap / (l2_norm(u) * l2_norm(v)))
    return {"residual": worst, "tol": 1e-12}


def _check_laplacian(n, q, N, trials, rng):
    grid = SpectralGrid(n, N)
    worst = 0.0
    for _ in range(trials):
        u = random_form(grid, q, rng)
        direct = FormField(grid, q, (grid.zeta_sq / 4.0) * u.data, FOURIER)
        worst = max(worst, l2_norm(laplacian_q(u) - direct) / l2_norm(u))
    return {"residual": worst, "tol": 1e-12}


def _check_leray(n, q, N, trials, rng):
    grid = SpectralGrid(n, N)
    worst = 0.0
    for _ in range(trials):
        u = random_form(grid, q, rng)
        v = random_form(grid, q, rng)
        Pu = leray_project(u)
        worst = max(worst, l2_norm(leray_project(Pu) - Pu) / l2_norm(u))
        gap = abs(l2_inner(Pu.to_physical(), v.to_physical())
                  - l2_inner(u.to_physical(), leray_project(v).to_physical()))
        worst = max(worst, gap / (l2_norm(u) * l2_norm(v)))
        g = random_form(grid, q - 1, rng)
        dg = dbar(g)
        if l2_norm(dg) > 0:
            worst = max(worst, l2_norm(leray_project(dg)) / l2_norm(dg))
        worst = max(worst, l2_norm(dbar_star(Pu)) / l2_norm(u))
    return {"residual": worst, "tol": 1e-10}


def _check_pressure(n, q, N, trials, rng):
    grid = SpectralGrid(n, N)
    worst = 0.0
    for _ in range(trials):
        g = random_form(grid, q - 1, rng)
        F = dbar(g)
        p = dolbeault.pressure_recover(F)
        worst = max(worst, l2_norm(dbar(p) - F) / l2_norm(F))
    return {"residual": worst, "tol": 1e-10}


def _check_key1(n, q, N, trials, seed):
    grid = SpectralGrid(n, N)
    report = verify_key1(BilinearSpec.lamb(), grid, q, trials=trials, seed=seed)
    return {"residual": report["max_normalized_pairing"], "tol": report["tol"]}


def _check_frechet(n, q, N, rng):
    grid = SpectralGrid(n, N)
    spec = BilinearSpec.lamb()
    w = random_form(grid, q, rng, decay=2.0)
    v = random_form(grid, q, rng, decay=2.0)
    ratios = [frechet_residual(w, v, eps, spec) / eps**2 for eps in (1e-1, 1e-2, 1e-3)]
    spread = (max(ratios) - min(ratios)) / max(ratios)
    return {"residual": spread, "tol": 1e-8}


def _cmd_verify(args) -> int:
    if not 1 <= args.q <= args.n - 1:
        raise ValueError(f"q={args.q} outside 1..{args.n - 1}")
    if args.trials is not None and args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    trials = VERIFY_TRIALS if args.trials is None else args.trials
    rng = np.random.default_rng(args.seed)
    ops = {}
    selected = args.op
    if selected in ("all", "dbar"):
        ops["dbar"] = _check_dbar(args.n, args.N, trials, rng)
    if selected in ("all", "adjoint"):
        ops["adjoint"] = _check_adjoint(args.n, args.q, args.N, trials, rng)
    if selected == "all":
        ops["laplacian"] = _check_laplacian(args.n, args.q, args.N, trials, rng)
    if selected in ("all", "leray"):
        ops["leray"] = _check_leray(args.n, args.q, args.N, trials, rng)
    if selected == "all":
        ops["pressure"] = _check_pressure(args.n, args.q, args.N, trials, rng)
    if selected in ("all", "key1"):
        if args.q != 1:
            raise ValueError("key1 uses the built-in lamb nonlinearity (q = 1)")
        key1_trials = KEY1_TRIALS if args.trials is None else args.trials
        ops["key1"] = _check_key1(args.n, args.q, args.N, key1_trials, args.seed)
    if selected in ("all", "frechet"):
        if args.q != 1:
            raise ValueError("frechet uses the built-in lamb nonlinearity (q = 1)")
        ops["frechet"] = _check_frechet(args.n, args.q, args.N, rng)

    for entry in ops.values():
        entry["pass"] = bool(entry["residual"] < entry["tol"])
    report = {"n": args.n, "q": args.q, "N": args.N, "checks": ops}
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if all(entry["pass"] for entry in ops.values()) else 1


def _cmd_simulate(args) -> int:
    config = io.load_config(args.config)
    grid = config.make_grid()
    u0 = _initial_field(args, config, grid)
    traj = dynamics.simulate(config, u0)
    io.save_trajectory(args.out, traj)
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
    traj = dynamics.solve_linearized(base, config, u0=u0)
    io.save_trajectory(args.out, traj)
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
