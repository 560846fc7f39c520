from dataclasses import replace

import numpy as np
import pytest

import dolbeault_ns.dynamics as dynamics
from dolbeault_ns import (
    BilinearSpec,
    BlowUpError,
    CFLError,
    ForcingSpec,
    FormField,
    SimConfig,
    SpectralGrid,
    dbar_star,
    frechet_residual,
    l2_norm,
    leray_project,
    linearized_b,
    nonlinearity,
    random_form,
    simulate,
    solve_linearized,
    step_etd_heun,
    verify_key1,
)
from dolbeault_ns.dynamics import b_continuity_ratio
from dolbeault_ns.forms import CustomTerm
from dolbeault_ns.spectral import FOURIER


def _unit_max(u):
    phys = u.to_physical()
    mx = np.sqrt(np.max(np.sum(np.abs(phys.data) ** 2, axis=0)))
    return (1.0 / mx) * u


def _solenoidal(grid, rng, decay=3.0):
    return leray_project(random_form(grid, 1, rng, decay=decay))


def _mode_field(grid, q, comp, zeta, amp=1.0):
    u = FormField.zeros(grid, q, FOURIER)
    u.data[(comp,) + grid.mode_index(zeta)] = amp
    return u


LAMB = BilinearSpec.lamb()
STOKES = BilinearSpec.stokes()


# -- configuration validation ----------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=1, q=1, N=8, mu=1.0, T=1.0, dt=0.1)
    with pytest.raises(ValueError):
        SimConfig(n=2, q=2, N=8, mu=1.0, T=1.0, dt=0.1)
    with pytest.raises(ValueError):
        SimConfig(n=2, q=1, N=8, mu=1.0, T=1.0, dt=0.3)  # T not a multiple
    with pytest.raises(ValueError):
        SimConfig(n=2, q=1, N=8, mu=1.0, T=1.0, dt=0.1, output_stride=3)
    with pytest.raises(ValueError):
        SimConfig(n=3, q=2, N=8, mu=1.0, T=1.0, dt=0.1, nonlinearity=LAMB)
    with pytest.raises(ValueError):
        SimConfig(n=2, q=1, N=8, mu=1.0, T=1.0, dt=1e-8)  # T/dt above the budget
    nan, inf = float("nan"), float("inf")
    for bad in ({"mu": nan}, {"mu": inf}, {"T": nan}, {"T": inf}, {"dt": nan}, {"dt": inf},
                {"output_stride": 0}, {"output_stride": -1},
                {"lps_r": 4.0}, {"lps_r": 3.0}, {"lps_r": nan}, {"lps_r": inf}):
        with pytest.raises(ValueError):
            SimConfig(**{"n": 2, "q": 1, "N": 8, "mu": 1.0, "T": 1.0, "dt": 0.1, **bad})
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=1.0, dt=0.1, nonlinearity=LAMB)
    assert cfg.steps == 10


def test_config_json_round_trip():
    cfg = SimConfig(
        n=2, q=1, N=8, mu=0.3, T=0.5, dt=0.05,
        nonlinearity=LAMB,
        forcing=ForcingSpec(kind="single_mode", zeta=(1, 0, 0, 0), component=(2,), amplitude=1 + 2j, omega=0.5),
        output_stride=2, cfl_safety=0.4, cfl_mode="shrink", seed=7, lps_r=5.0,
    )
    back = SimConfig.from_json(cfg.to_json())
    assert back == cfg


def test_forcing_validation(grid8):
    frc = ForcingSpec(kind="single_mode", zeta=(9, 0, 0, 0), component=(1,), amplitude=1.0)
    with pytest.raises(ValueError):
        frc.validate_for(grid8, 1)
    frc = ForcingSpec(kind="single_mode", zeta=(1, 0, 0, 0), component=(1, 2), amplitude=1.0)
    with pytest.raises(ValueError):
        frc.validate_for(grid8, 1)
    with pytest.raises(ValueError, match="singel_mode"):
        ForcingSpec.from_json({"kind": "singel_mode"})


def test_forcing_evaluation(grid8):
    frc = ForcingSpec(kind="single_mode", zeta=(0, 1, 0, 0), component=(1,), amplitude=2.0, omega=np.pi)
    f0 = frc.evaluate(grid8, 1, 0.0)
    f1 = frc.evaluate(grid8, 1, 1.0)
    idx = (0,) + grid8.mode_index((0, 1, 0, 0))
    assert f0.data[idx] == pytest.approx(2.0)
    assert f1.data[idx] == pytest.approx(2.0 * np.exp(1j * np.pi))


def test_forcing_from_file(grid8, rng, tmp_path):
    from dolbeault_ns import save_field

    f = random_form(grid8, 1, rng)
    save_field(tmp_path / "force", f)
    frc = ForcingSpec(kind="file", path=str(tmp_path / "force"))
    frc.validate_for(grid8, 1)
    got = frc.evaluate(grid8, 1, 0.0)
    assert l2_norm(got - f) < 1e-14 * l2_norm(f)
    # constant in time
    again = frc.evaluate(grid8, 1, 3.7)
    assert np.array_equal(got.data, again.data)


# -- nonlinearity -----------------------------------------------------------------


def test_nonlinearity_stokes_zero(grid8, rng):
    u = random_form(grid8, 1, rng)
    assert l2_norm(nonlinearity(u, STOKES)) == 0.0


def test_nonlinearity_constant_form(grid8):
    u = FormField.zeros(grid8, 1, FOURIER)
    u.data[:, 0, 0, 0, 0] = [1.0, 2.0 - 1.0j]
    assert l2_norm(nonlinearity(u, LAMB)) < 1e-14


def test_nonlinearity_hand_oracle(grid8):
    # u = dzbar_1 e^{i x_2}: M2 term vanishes (|u|^2 = 1), M1 term is the
    # constant -(i/2) dzbar_2
    u = _mode_field(grid8, 1, 0, (0, 1, 0, 0))
    out = nonlinearity(u, LAMB)
    expect = FormField.zeros(grid8, 1, FOURIER)
    expect.data[(1,) + (0,) * 4] = -0.5j
    assert l2_norm(out - expect) < 1e-13


def test_nonlinearity_output_is_dealiased(grid8, rng):
    u = _solenoidal(grid8, rng, decay=1.0)
    out = nonlinearity(u, LAMB)
    assert np.all(out.data[~np.broadcast_to(grid8.dealias_mask, out.data.shape)] == 0.0)


# -- hypothesis check --------------------------------------------------------------


def test_verify_key1_stokes_exactly_zero(grid8):
    report = verify_key1(STOKES, grid8, 1, trials=3, seed=1)
    assert report["max_normalized_pairing"] == 0.0
    assert report["pass"]


def test_verify_key1_lamb(grid8):
    report = verify_key1(LAMB, grid8, 1, trials=100, seed=5)
    assert report["max_normalized_pairing"] < 1e-12
    assert report["pass"]


def test_verify_key1_detects_violation(grid8):
    # a contraction with no antisymmetric partner pairs to ||v_1||^2-like mass
    bad = BilinearSpec.custom(
        m1_terms=[CustomTerm(k=(1,), a=(1, 2), b=(1,), coeff=1.0, conj_u=True)],
        m2_terms=[],
    )
    report = verify_key1(bad, grid8, 1, trials=20, seed=2)
    assert not report["pass"]
    assert report["max_normalized_pairing"] > 1e-6


# -- quadratic algebra ---------------------------------------------------------------


def test_linearized_b_zero_argument(grid8, rng):
    w = random_form(grid8, 1, rng)
    z = FormField.zeros(grid8, 1, FOURIER)
    assert l2_norm(linearized_b(w, z, LAMB)) == 0.0


def test_linearized_b_diagonal_doubles(grid8, rng):
    u = random_form(grid8, 1, rng)
    gap = linearized_b(u, u, LAMB) - 2.0 * nonlinearity(u, LAMB)
    assert l2_norm(gap) < 1e-12 * l2_norm(nonlinearity(u, LAMB))


def test_quadratic_expansion_identity(grid8, rng):
    for _ in range(5):
        w = random_form(grid8, 1, rng)
        v = random_form(grid8, 1, rng)
        lhs = nonlinearity(w + v, LAMB)
        rhs = nonlinearity(w, LAMB) + nonlinearity(v, LAMB) + linearized_b(w, v, LAMB)
        scale = max(l2_norm(lhs), 1.0)
        assert l2_norm(lhs - rhs) < 1e-12 * scale


def test_frechet_residual_contract(grid8, rng):
    w = random_form(grid8, 1, rng)
    v = random_form(grid8, 1, rng)
    assert frechet_residual(w, v, 0.0, LAMB) == 0.0
    assert frechet_residual(w, v, 0.3, STOKES) == 0.0
    nv = l2_norm(nonlinearity(v, LAMB))
    for eps in (1e-1, 1e-2):
        res = frechet_residual(w, v, eps, LAMB)
        assert res == pytest.approx(eps**2 * nv, rel=1e-9)


def test_frechet_ratio_constant(grid8, rng):
    w = random_form(grid8, 1, rng)
    v = random_form(grid8, 1, rng)
    ratios = [frechet_residual(w, v, eps, LAMB) / eps**2 for eps in (1e-1, 1e-2, 1e-3)]
    assert (max(ratios) - min(ratios)) / max(ratios) < 1e-10


def test_b_continuity_ratio_bounded(grid8):
    worst = b_continuity_ratio(LAMB, grid8, 1, trials=100, seed=8)
    assert np.isfinite(worst)
    assert 0.0 < worst < 1.0


# -- stepping ------------------------------------------------------------------------


def test_step_exact_heat_decay(grid8):
    cfg = SimConfig(n=2, q=1, N=8, mu=1.3, T=0.1, dt=0.01, nonlinearity=STOKES)
    u = _mode_field(grid8, 1, 0, (0, 1, 0, 0), amp=2.0)
    out = step_etd_heun(u, 0.0, cfg)
    idx = (0,) + grid8.mode_index((0, 1, 0, 0))
    assert out.data[idx] == pytest.approx(2.0 * np.exp(-1.3 * 0.01 / 4.0), rel=1e-14)


def test_step_zero_stays_zero(grid8):
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.1, dt=0.01, nonlinearity=LAMB)
    z = FormField.zeros(grid8, 1, FOURIER)
    out = step_etd_heun(z, 0.0, cfg)
    assert l2_norm(out) == 0.0


def test_simulate_stokes_matches_closed_form(grid8, rng):
    u0 = _solenoidal(grid8, rng)
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.5, dt=0.005, nonlinearity=STOKES, output_stride=100)
    traj = simulate(cfg, u0)
    decay = np.exp(-cfg.mu * grid8.zeta_sq * cfg.T / 4.0)
    expect = FormField(grid8, 1, decay * u0.data, FOURIER)
    got = traj.velocities[-1]
    assert l2_norm(got - expect) < 1e-10 * l2_norm(u0)
    # energy closed form
    energy_expect = 0.5 * grid8.volume * float(np.sum(np.exp(-cfg.mu * grid8.zeta_sq * cfg.T / 2.0) * np.abs(u0.data) ** 2))
    assert traj.diagnostics["energy"][-1] == pytest.approx(energy_expect, rel=1e-8)


def test_simulate_richardson_second_order(grid8, rng):
    u0 = _unit_max(_solenoidal(grid8, rng))

    def final(dt, stride):
        cfg = SimConfig(n=2, q=1, N=8, mu=0.1, T=0.5, dt=dt, nonlinearity=LAMB, output_stride=stride)
        return simulate(cfg, u0).velocities[-1]

    u_a = final(0.01, 50)
    u_b = final(0.005, 100)
    u_c = final(0.0025, 200)
    ratio = l2_norm(u_a - u_b) / l2_norm(u_b - u_c)
    assert 3.2 < ratio < 4.8


def test_simulate_energy_monotone_and_constraint(grid8, rng):
    u0 = _unit_max(_solenoidal(grid8, rng))
    cfg = SimConfig(n=2, q=1, N=8, mu=0.1, T=0.5, dt=0.01, nonlinearity=LAMB, output_stride=10)
    traj = simulate(cfg, u0)
    energy = traj.diagnostics["energy"]
    assert np.all(np.diff(energy) <= 1e-12 * energy[0])
    norm_u = np.sqrt(2.0 * energy)
    rel = traj.diagnostics["dbar_star_residual"] / np.where(norm_u > 0, norm_u, 1.0)
    assert np.max(rel) < 1e-10


def test_simulate_deterministic(grid8, rng):
    u0 = _solenoidal(grid8, rng)
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.1, dt=0.01, nonlinearity=LAMB, output_stride=5)
    t1 = simulate(cfg, u0)
    t2 = simulate(cfg, u0)
    for a, b in zip(t1.velocities, t2.velocities):
        assert np.array_equal(a.data, b.data)
    for c in t1.diagnostics:
        assert np.array_equal(t1.diagnostics[c], t2.diagnostics[c])


def test_simulate_initial_condition_honored(grid8, rng):
    u0 = _solenoidal(grid8, rng)
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.05, dt=0.01, nonlinearity=STOKES, output_stride=5)
    traj = simulate(cfg, u0)
    assert l2_norm(traj.velocities[0] - u0) < 1e-13 * l2_norm(u0)
    assert traj.stamps[0] == 0.0


def test_simulate_rejects_bad_initial_data(grid8, rng):
    u0 = random_form(grid8, 1, rng)  # far from solenoidal
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.05, dt=0.01)
    with pytest.raises(ValueError):
        simulate(cfg, u0)


def test_cfl_fail_and_shrink(grid8, rng):
    u0 = 40.0 * _unit_max(_solenoidal(grid8, rng))  # max |u| = 40
    # dx = 2 pi / 8, bound = 0.5 * dx / 40 ~ 0.0098: dt = 0.05 violates it
    cfg = SimConfig(n=2, q=1, N=8, mu=0.1, T=0.5, dt=0.05, nonlinearity=STOKES,
                    output_stride=5, cfl_mode="fail")
    with pytest.raises(CFLError):
        simulate(cfg, u0)

    cfg2 = SimConfig(n=2, q=1, N=8, mu=0.1, T=0.5, dt=0.05, nonlinearity=STOKES,
                     output_stride=5, cfl_mode="shrink")
    traj = simulate(cfg2, u0)
    # output stamps unchanged; extra inner steps taken
    assert np.allclose(traj.stamps, np.arange(3) * 0.25)
    assert len(traj.diagnostics["t"]) > cfg2.steps + 1


@pytest.mark.parametrize("stride", [1, 50])
def test_cfl_checked_at_every_step(grid8, stride):
    # a strong solenoidal force drives max |u| = 2e4 t past the bound
    # 0.5 dx / max |u| ~ 1e-3 at t = 0.02, inside the first output interval
    frc = ForcingSpec(kind="single_mode", zeta=(0, 1, 0, 0), component=(1,), amplitude=2e4)
    cfg = SimConfig(n=2, q=1, N=8, mu=0.1, T=0.05, dt=1e-3, forcing=frc, output_stride=stride)
    u0 = FormField.zeros(grid8, 1, FOURIER)
    with pytest.raises(CFLError) as err:
        simulate(cfg, u0)
    assert err.value.time == pytest.approx(0.02)

    traj = simulate(replace(cfg, cfl_mode="shrink"), u0)
    assert np.allclose(traj.stamps, np.arange(len(traj.stamps)) * stride * cfg.dt)
    t, umax = traj.diagnostics["t"], traj.diagnostics["max_abs_u"]
    assert t[-1] == pytest.approx(cfg.T) and len(t) > cfg.steps + 1
    # the restarted intervals left no rows behind, and no step broke the bound
    bound = cfg.cfl_safety * grid8.dx / np.maximum(1.0, umax[:-1])
    assert np.all(np.diff(t) > 0.0)
    assert np.all(np.diff(t) <= bound * (1.0 + 1e-9))
    assert np.all(np.diff(traj.diagnostics["lps_accum"]) > 0.0)


def _scaled_lamb_terms(n, factor):
    """The lamb contraction as explicit tensors, scaled by `factor`; the
    antisymmetry (and hence the cancellation hypothesis) is preserved."""
    m1 = []
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            if j == k:
                continue
            eps = factor if j < k else -factor
            pair = (j, k) if j < k else (k, j)
            m1.append(CustomTerm(k=(k,), a=pair, b=(j,), coeff=eps, conj_u=True))
    m2 = [CustomTerm(k=(), a=(j,), b=(j,), coeff=factor, conj_u=True) for j in range(1, n + 1)]
    return m1, m2


def test_blow_up_detection(grid8):
    # a hypothesis-respecting quadratic term with an absurd coefficient
    # overflows the explicit stages within a step; the stepper must catch
    # the lost finiteness and stamp the failure time
    explosive = BilinearSpec.custom(*_scaled_lamb_terms(2, 1e160))
    u0 = leray_project(_mode_field(grid8, 1, 0, (0, 1, 0, 0), amp=1.0))
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=1.0, dt=0.1, nonlinearity=explosive)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as err:
            simulate(cfg, u0)
    assert 0.0 < err.value.time <= 1.0


def test_simulate_gates_custom_specs(grid8, rng):
    # violating tensors are rejected before any stepping
    bad = BilinearSpec.custom(
        m1_terms=[CustomTerm(k=(1,), a=(1, 2), b=(1,), coeff=1.0, conj_u=True)],
        m2_terms=[],
    )
    u0 = _solenoidal(grid8, rng)
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.1, dt=0.01, nonlinearity=bad)
    with pytest.raises(ValueError, match="cancellation"):
        simulate(cfg, u0)

    # a healthy custom tensor (lamb written out) passes the gate and matches
    # the built-in evolution exactly
    custom = BilinearSpec.custom(*_scaled_lamb_terms(2, 1.0))
    u0 = _unit_max(u0)
    cfg_custom = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.01, nonlinearity=custom, output_stride=5)
    cfg_lamb = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.01, nonlinearity=LAMB, output_stride=5)
    t1 = simulate(cfg_custom, u0)
    t2 = simulate(cfg_lamb, u0)
    assert l2_norm(t1.velocities[-1] - t2.velocities[-1]) < 1e-13


def test_exact_gate_admits_cancelling_tensor_without_sampling(grid8, rng, monkeypatch):
    # the Lamb tensors cancel monomial by monomial, so the gate needs no samples
    def no_sampling(*args, **kwargs):
        raise AssertionError("verify_key1 sampled a tensor the exact check settles")

    monkeypatch.setattr(dynamics, "verify_key1", no_sampling)
    for n, grid in ((2, grid8), (3, SpectralGrid(3, 4))):
        spec = BilinearSpec.custom(*_scaled_lamb_terms(n, 3.0))
        u0 = _unit_max(_solenoidal(grid, rng))
        cfg = SimConfig(n=n, q=1, N=grid.N, mu=0.2, T=0.02, dt=0.01, nonlinearity=spec)
        assert np.all(np.isfinite(simulate(cfg, u0).diagnostics["energy"]))


def test_gate_samples_tensors_that_do_not_cancel(grid8, rng, monkeypatch):
    calls = []
    original = dynamics.verify_key1

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "verify_key1", spy)
    # the conj(v_B) conj(v_K) monomial is symmetric in B and K: c[K][A][B]
    # and c[B][A][K] must cancel, here they add up
    bad = BilinearSpec.custom(
        m1_terms=[CustomTerm(k=(1,), a=(1, 2), b=(2,), coeff=1.0, conj_u=True),
                  CustomTerm(k=(2,), a=(1, 2), b=(1,), coeff=1.0, conj_u=True)],
        m2_terms=[],
    )
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.1, dt=0.01, nonlinearity=bad, seed=4)
    with pytest.raises(ValueError, match="cancellation"):
        simulate(cfg, _solenoidal(grid8, rng))
    assert calls == [{"trials": 20, "seed": 4}]


def test_cfl_shrink_respects_step_budget(grid8):
    # shrink mode must not refine past the 1e7 total-step budget
    u0 = leray_project(_mode_field(grid8, 1, 0, (0, 1, 0, 0), amp=1e9))
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=1.0, dt=0.1, nonlinearity=STOKES,
                    cfl_mode="shrink")
    with pytest.raises(CFLError):
        simulate(cfg, u0)


# -- linearized problem -----------------------------------------------------------------


def test_linearized_w_zero_reduces_to_stokes(grid8, rng):
    u0 = _solenoidal(grid8, rng)
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.2, dt=0.01, nonlinearity=STOKES, output_stride=10)
    base = simulate(cfg, u0)
    lin = solve_linearized(None, cfg, u0=u0)
    assert l2_norm(lin.velocities[-1] - base.velocities[-1]) <= 1e-10 * l2_norm(base.velocities[-1])


def test_linearized_zero_data_is_zero(grid8):
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.1, dt=0.01, nonlinearity=LAMB)
    z = FormField.zeros(grid8, 1, FOURIER)
    lin = solve_linearized(None, cfg, u0=z)
    assert float(np.max(lin.diagnostics["energy"])) == 0.0


def test_linearized_defect_is_nonlinearity(grid8, rng):
    # along w = u the linearized operator differs from the nonlinear one by
    # exactly P N(u), since B(u, u) = 2 N(u)
    u0 = _unit_max(_solenoidal(grid8, rng))
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.005, nonlinearity=LAMB, output_stride=1)
    traj = simulate(cfg, u0)
    worst = 0.0
    for t, us in zip(traj.stamps, traj.velocities):
        f = cfg.forcing.evaluate(grid8, 1, float(t))
        g_nl = leray_project(f - nonlinearity(us, LAMB))
        g_lin = leray_project(f - linearized_b(us, us, LAMB))
        defect = g_nl - g_lin - leray_project(nonlinearity(us, LAMB))
        worst = max(worst, l2_norm(defect))
    assert worst < 1e-12


def test_linearized_around_trajectory_runs(grid8, rng):
    u0 = _unit_max(_solenoidal(grid8, rng))
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.005, nonlinearity=LAMB, output_stride=1)
    base = simulate(cfg, u0)
    lin = solve_linearized(base, cfg, u0=u0)
    assert np.all(np.isfinite(lin.diagnostics["energy"]))
    # the linearized flow does NOT reproduce the nonlinear one
    assert l2_norm(lin.velocities[-1] - base.velocities[-1]) > 1e-6


def test_linearized_requires_dense_base(grid8, rng):
    u0 = _solenoidal(grid8, rng)
    coarse = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.005, nonlinearity=LAMB, output_stride=5)
    base = simulate(coarse, u0)
    with pytest.raises(ValueError):
        solve_linearized(base, coarse, u0=u0)


def test_forced_stokes_second_order_against_closed_form(grid8):
    # u' = -lam u + a e^{i omega t} at one solenoidal mode has the closed form
    # u(T) = e^{-lam T} u0 + a (e^{i omega T} - e^{-lam T}) / (lam + i omega)
    mu, omega, amp, T = 0.8, 3.0, 1.5, 0.5
    lam = mu * 1.0 / 4.0
    frc = ForcingSpec(kind="single_mode", zeta=(0, 1, 0, 0), component=(1,), amplitude=amp, omega=omega)
    idx = (0,) + grid8.mode_index((0, 1, 0, 0))
    exact = amp * (np.exp(1j * omega * T) - np.exp(-lam * T)) / (lam + 1j * omega)

    def run(dt, stride):
        cfg = SimConfig(n=2, q=1, N=8, mu=mu, T=T, dt=dt, nonlinearity=STOKES,
                        forcing=frc, output_stride=stride)
        traj = simulate(cfg, FormField.zeros(grid8, 1, FOURIER))
        return traj.velocities[-1].data[idx]

    errs = [abs(run(dt, s) - exact) for dt, s in ((0.01, 50), (0.005, 100), (0.0025, 200))]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.15)


def test_custom_q2_run_and_pressure_oracle(grid3d, rng):
    # at q = 2 (n = 3) there is no built-in nonlinearity; a pure-M2 tensor
    # passes the cancellation gate, leaves the velocity on the heat flow
    # (P dbar M2 = 0) and produces the pressure p = -P(dealias(M2)) with the
    # zero mode dropped, which we can assemble independently
    from dolbeault_ns import apply_m2
    from dolbeault_ns.spectral import apply_dealias

    spec = BilinearSpec.custom(
        m1_terms=[],
        m2_terms=[CustomTerm(k=(1,), a=(1, 2), b=(1, 2), coeff=1.0, conj_u=True),
                  CustomTerm(k=(2,), a=(1, 3), b=(2, 3), coeff=0.5 + 0.25j, conj_u=True)],
    )
    u0 = leray_project(random_form(grid3d, 2, rng, decay=3.0))
    cfg = SimConfig(n=3, q=2, N=8, mu=0.4, T=0.05, dt=0.01, nonlinearity=spec, output_stride=5)
    traj = simulate(cfg, u0)

    stokes_cfg = SimConfig(n=3, q=2, N=8, mu=0.4, T=0.05, dt=0.01, nonlinearity=STOKES, output_stride=5)
    base = simulate(stokes_cfg, u0)
    gap = l2_norm(traj.velocities[-1] - base.velocities[-1])
    assert gap < 1e-12 * l2_norm(base.velocities[-1])

    for u_snap, p_snap in zip(traj.velocities, traj.pressures):
        phys = u_snap.to_physical()
        m2 = apply_m2(spec, phys, phys).to_fourier()
        m2 = FormField(grid3d, 1, apply_dealias(grid3d, m2.data), "fourier")
        expect = -1.0 * leray_project(m2)
        expect.data[(slice(None),) + (0,) * grid3d.dim] = 0.0
        assert l2_norm(p_snap - expect) < 1e-12 * max(l2_norm(expect), 1.0)
        assert l2_norm(dbar_star(p_snap)) < 1e-12 * max(l2_norm(p_snap), 1.0)


def test_nearby_data_divergence_is_controlled(grid8, rng):
    u0 = _unit_max(_solenoidal(grid8, rng))
    delta = 1e-6 * _solenoidal(grid8, rng)
    cfg = SimConfig(n=2, q=1, N=8, mu=0.1, T=0.25, dt=0.005, nonlinearity=LAMB, output_stride=50)
    t1 = simulate(cfg, u0)
    t2 = simulate(cfg, u0 + delta)
    d0 = l2_norm(delta)
    dT = l2_norm(t1.velocities[-1] - t2.velocities[-1])
    growth_rate = np.log(dT / d0) / cfg.T
    assert np.isfinite(growth_rate)
    assert growth_rate < 50.0
