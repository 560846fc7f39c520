"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figure next to its pinned tolerance.  Run with `pytest -v`
(or -s to see the lines on passing tests)."""

import time

import numpy as np
import pytest

from dolbeault_ns import (
    BilinearSpec,
    FormField,
    ForcingSpec,
    SimConfig,
    SpectralGrid,
    dbar,
    dbar_star,
    frechet_residual,
    l2_inner,
    l2_norm,
    laplacian_q,
    leray_project,
    linearized_b,
    nonlinearity,
    pressure_recover,
    random_form,
    simulate,
    solve_linearized,
    verify_key1,
)
from dolbeault_ns.io import InitialSpec, gen_initial, save_trajectory
from dolbeault_ns.norms import energy_report, lps_exponent, lps_integral
from dolbeault_ns.spectral import FOURIER
from oracle import dense_build, oracle_compare

LAMB = BilinearSpec.lamb()
STOKES = BilinearSpec.stokes()


def _report(num, name, value, tol, passed=None):
    ok = value < tol if passed is None else passed
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} (measured {value:.3e}, tolerance {tol:.1e})")
    assert ok


def _unit_max(u):
    phys = u.to_physical()
    mx = np.sqrt(np.max(np.sum(np.abs(phys.data) ** 2, axis=0)))
    return (1.0 / mx) * u


@pytest.fixture(scope="module")
def lamb_runs():
    """Shared lamb decay runs at dt, dt/2, dt/4 (criteria 8, 9, 10, 14)."""
    grid = SpectralGrid(2, 8)
    rng = np.random.default_rng(101)
    u0 = _unit_max(leray_project(random_form(grid, 1, rng, decay=3.0)))
    runs = {}
    for dt, stride in ((0.01, 10), (0.005, 20), (0.0025, 40)):
        cfg = SimConfig(n=2, q=1, N=8, mu=0.1, T=0.5, dt=dt, nonlinearity=LAMB,
                        output_stride=stride)
        runs[dt] = simulate(cfg, u0)
    return runs


@pytest.fixture(scope="module")
def stokes16():
    """Criterion 7 configuration: N=16, mu=1, T=1, band-limited random u0."""
    cfg = SimConfig(n=2, q=1, N=16, mu=1.0, T=1.0, dt=0.001, nonlinearity=STOKES,
                    output_stride=250, seed=77)
    grid = cfg.make_grid()
    u0 = gen_initial(InitialSpec(kind="random_solenoidal", decay=3.0), cfg, grid)
    start = time.monotonic()
    traj = simulate(cfg, u0)
    elapsed = time.monotonic() - start
    return cfg, grid, u0, traj, elapsed


def test_c01_complex_identity():
    start = time.monotonic()
    worst = 0.0
    count = 0
    rng = np.random.default_rng(1)
    cases = [(2, 8, (0,)), (3, 8, (0, 1))]
    while count < 50:
        for n, N, qs in cases:
            grid = SpectralGrid(n, N)
            for q in qs:
                u = random_form(grid, q, rng)
                worst = max(worst, l2_norm(dbar(dbar(u))) / l2_norm(u))
                count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, "complex-identity dbar.dbar = 0", worst, 1e-12)


def test_c02_adjointness():
    worst = 0.0
    rng = np.random.default_rng(2)
    pairs = [(SpectralGrid(2, 8), q) for q in (0, 1)] + [(SpectralGrid(3, 8), q) for q in (0, 1, 2)]
    count = 0
    while count < 50:
        for grid, q in pairs:
            u = random_form(grid, q, rng).to_physical()
            v = random_form(grid, q + 1, rng).to_physical()
            gap = abs(l2_inner(dbar(u), v) - l2_inner(u, dbar_star(v)))
            worst = max(worst, gap / (l2_norm(u) * l2_norm(v)))
            count += 1
    _report(2, "adjointness <dbar u, v> = <u, dbar* v>", worst, 1e-12)


def test_c03_laplacian_diagonalization():
    worst = 0.0
    rng = np.random.default_rng(3)
    for grid in (SpectralGrid(2, 8), SpectralGrid(2, 16), SpectralGrid(3, 8)):
        for q in range(grid.n + 1):
            u = random_form(grid, q, rng)
            direct = FormField(grid, q, (grid.zeta_sq / 4.0) * u.data, FOURIER)
            worst = max(worst, l2_norm(laplacian_q(u) - direct) / l2_norm(u))
    _report(3, "laplacian = |zeta|^2/4 multiplier", worst, 1e-12)


def test_c04_projector_algebra():
    worst = 0.0
    rng = np.random.default_rng(4)
    for grid in (SpectralGrid(2, 8), SpectralGrid(2, 16), SpectralGrid(3, 8)):
        for q in range(1, grid.n):
            for _ in range(5):
                u = random_form(grid, q, rng)
                v = random_form(grid, q, rng)
                Pu = leray_project(u)
                worst = max(worst, l2_norm(leray_project(Pu) - Pu) / l2_norm(u))
                gap = abs(
                    l2_inner(Pu.to_physical(), v.to_physical())
                    - l2_inner(u.to_physical(), leray_project(v).to_physical())
                )
                worst = max(worst, gap / (l2_norm(u) * l2_norm(v)))
                g = random_form(grid, q - 1, rng)
                dg = dbar(g)
                if l2_norm(dg) > 0:
                    worst = max(worst, l2_norm(leray_project(dg)) / l2_norm(dg))
                worst = max(worst, l2_norm(dbar_star(Pu)) / l2_norm(u))
    _report(4, "projector algebra (Hermitian idempotent, kills exact)", worst, 1e-10)


def test_c05_pressure_recovery():
    worst_solve = 0.0
    worst_constraint = 0.0
    rng = np.random.default_rng(5)
    for grid, q, trials in ((SpectralGrid(2, 8), 1, 10), (SpectralGrid(3, 8), 2, 10)):
        for _ in range(trials):
            g = random_form(grid, q - 1, rng)
            F = dbar(g)
            p = pressure_recover(F)
            worst_solve = max(worst_solve, l2_norm(dbar(p) - F) / l2_norm(F))
            if q >= 2:
                worst_constraint = max(worst_constraint, l2_norm(dbar_star(p)) / l2_norm(p))
    _report(5, "pressure recovery dbar p = F", worst_solve, 1e-10)
    _report(5, "pressure constraint dbar*(p) = 0", worst_constraint, 1e-12)


def test_c06_key1_hypothesis():
    grid = SpectralGrid(2, 8)
    report = verify_key1(LAMB, grid, 1, trials=100, seed=6)
    _report(6, "nonlinearity cancellation hypothesis", report["max_normalized_pairing"], 1e-12)


def test_c07_stokes_exactness(stokes16):
    cfg, grid, u0, traj, elapsed = stokes16
    assert elapsed < 60.0
    decay = np.exp(-cfg.mu * grid.zeta_sq * cfg.T / 4.0)
    expect = decay * u0.data
    got = traj.velocities[-1].data
    mask = np.abs(u0.data) > 0
    worst = float(np.max(np.abs(got[mask] - expect[mask]) / np.abs(expect[mask])))
    _report(7, f"stokes heat decay mode-by-mode ({elapsed:.1f}s)", worst, 1e-8)


def test_c08_nonlinear_convergence(lamb_runs):
    u_a = lamb_runs[0.01].velocities[-1]
    u_b = lamb_runs[0.005].velocities[-1]
    u_c = lamb_runs[0.0025].velocities[-1]
    ratio = l2_norm(u_a - u_b) / l2_norm(u_b - u_c)
    _report(8, "richardson dt-halving ratio", ratio, 4.8, passed=3.2 < ratio < 4.8)


def test_c09_energy_law(lamb_runs):
    energy = lamb_runs[0.01].diagnostics["energy"]
    monotone = bool(np.all(np.diff(energy) <= 1e-12 * energy[0]))
    _report(9, "zero-forcing energy non-increasing", float(np.max(np.append(np.diff(energy), 0.0))), 1e-12 * energy[0], passed=monotone)
    residuals = [abs(energy_report(lamb_runs[dt]).values["energy_balance_residual"]) for dt in (0.01, 0.005, 0.0025)]
    r1 = residuals[0] / residuals[1]
    r2 = residuals[1] / residuals[2]
    _report(9, "balance residual refines at second order", r1, 4.8, passed=3.2 < r1 < 4.8 and 3.2 < r2 < 4.8)


def test_c10_constraint_preservation(lamb_runs):
    worst = 0.0
    for traj in lamb_runs.values():
        norm_u = np.sqrt(2.0 * traj.diagnostics["energy"])
        safe = np.where(norm_u > 0, norm_u, 1.0)
        worst = max(worst, float(np.max(traj.diagnostics["dbar_star_residual"] / safe)))
    _report(10, "solenoidal constraint along the flow", worst, 1e-10)


def test_c11_frechet_identity():
    grid = SpectralGrid(2, 8)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        w = random_form(grid, 1, rng)
        v = random_form(grid, 1, rng)
        ratios = [frechet_residual(w, v, eps, LAMB) / eps**2 for eps in (1e-1, 1e-2, 1e-3)]
        worst = max(worst, (max(ratios) - min(ratios)) / max(ratios))
    _report(11, "quadratic Frechet expansion, ratio constant in eps", worst, 1e-8)


def test_c12_linearized_solver(stokes16):
    cfg, grid, u0, traj, _ = stokes16
    lin = solve_linearized(None, cfg, u0=u0)
    gap = l2_norm(lin.velocities[-1] - traj.velocities[-1]) / l2_norm(traj.velocities[-1])
    _report(12, "linearized(w=0) reproduces the heat flow", gap, 1e-10, passed=gap <= 1e-10)

    zero = FormField.zeros(grid, 1, FOURIER)
    linz = solve_linearized(None, cfg, u0=zero)
    peak = float(np.max(linz.diagnostics["energy"]))
    _report(12, "linearized zero data stays zero", peak, 1e-300, passed=peak == 0.0)


def test_c13_oracle_equivalence():
    worst = 0.0
    A0 = dense_build("dbar", 2, 0, 4).matrix
    A1 = dense_build("dbar", 2, 1, 4).matrix
    worst = max(worst, float(np.linalg.norm(A1 @ A0)))
    for q in (0, 1):
        S = dense_build("dbar_star", 2, q, 4).matrix
        A = dense_build("dbar", 2, q, 4).matrix
        worst = max(worst, float(np.linalg.norm(S - A.conj().T)))
    L = dense_build("laplacian", 2, 1, 4).matrix
    worst = max(worst, float(np.linalg.norm(L - (dense_build("dbar_star", 2, 1, 4).matrix @ A1 + A0 @ dense_build("dbar_star", 2, 0, 4).matrix))))
    P = dense_build("leray", 2, 1, 4).matrix
    worst = max(worst, float(np.linalg.norm(P - P.conj().T)))
    worst = max(worst, float(np.linalg.norm(P @ P - P)))
    _report(13, "dense operator algebra (Frobenius)", worst, 1e-10)

    eigs = np.linalg.eigvalsh(P)
    eig_dist = float(np.max(np.minimum(np.abs(eigs), np.abs(eigs - 1.0))))
    _report(13, "projector spectrum in {0, 1}", eig_dist, 1e-9)

    grid = SpectralGrid(2, 4)
    rng = np.random.default_rng(13)
    fd_worst = 0.0
    for tag, q in (("dbar", 0), ("dbar", 1), ("dbar_star", 1), ("laplacian", 1), ("leray", 1)):
        u = random_form(grid, q if tag != "dbar_star" else q + 1, rng, mean_zero=False)
        fd_worst = max(fd_worst, oracle_compare(tag, u))
    _report(13, "independent finite-difference route", fd_worst, 1e-10)


def test_c14_lps_monitor(lamb_runs):
    r = 5.0  # 2n + 1
    for traj in lamb_runs.values():
        val = lps_integral(traj, r)
        assert np.isfinite(val) and val >= 0.0

    # analytic oracle on a stokes single-mode decay
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=1.0, dt=1.0 / 256.0, nonlinearity=STOKES,
                    output_stride=1)
    grid = cfg.make_grid()
    u0 = FormField.zeros(grid, 1, FOURIER)
    u0.data[(0,) + grid.mode_index((0, 1, 0, 0))] = 1.0
    traj = simulate(cfg, u0)
    got = lps_integral(traj, r)
    s = lps_exponent(2, r)
    lam = cfg.mu / 4.0
    analytic = grid.volume ** (s / r) * -np.expm1(-s * lam * cfg.T) / (s * lam)
    rel = abs(got - analytic) / analytic
    _report(14, "strong-solution monitor vs analytic decay", rel, 1e-6)


def test_c15_reproducibility(tmp_path):
    import hashlib

    def run_once():
        cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.1, dt=0.01, nonlinearity=LAMB,
                        output_stride=5, seed=15)
        grid = cfg.make_grid()
        u0 = gen_initial(InitialSpec(kind="random_solenoidal", decay=3.0), cfg, grid)
        return simulate(cfg, u0)

    def digest(root):
        h = hashlib.sha256()
        for f in sorted(root.rglob("*")):
            if f.is_file():
                h.update(f.relative_to(root).as_posix().encode())
                h.update(f.read_bytes())
        return h.hexdigest()

    save_trajectory(tmp_path / "a", run_once())
    save_trajectory(tmp_path / "b", run_once())
    same = digest(tmp_path / "a") == digest(tmp_path / "b")
    _report(15, "bit-identical trajectory directories", 0.0 if same else 1.0, 0.5, passed=same)
