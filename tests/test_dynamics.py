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
    InitialSpec,
    SimConfig,
    SpectralGrid,
    dbar_star,
    frechet_residual,
    gen_initial,
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
from dolbeault_ns.forms import CustomTerm
from dolbeault_ns.spectral import FOURIER, PHYSICAL
from oracle import b_continuity_ratio, q2_custom


def _lattice(f):
    """A field of a run (on the band view) scattered to the full lattice."""
    return FormField(f.grid.full, f.q, f.grid.scatter(f.data), FOURIER)


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


def test_config_json_numbers():
    # ints are numbers; an integer key takes an integral number only
    cfg = SimConfig.from_json({"n": 2.0, "q": 1, "N": 8, "mu": 1, "T": 1, "dt": 0.1, "cfl_safety": 1})
    assert (cfg.n, cfg.mu, cfg.T, cfg.cfl_safety) == (2, 1.0, 1.0, 1.0)
    assert isinstance(cfg.n, int) and isinstance(cfg.mu, float)
    for key, bad in (("N", 8.5), ("q", True), ("mu", "0.2"), ("seed", None), ("output_stride", [1])):
        with pytest.raises(ValueError, match=f"config key '{key}' must be"):
            SimConfig.from_json({"n": 2, "q": 1, "N": 8, "mu": 0.2, "T": 0.1, "dt": 0.01, key: bad})


def test_forcing_amplitude_is_a_number_or_re_im():
    # forcing reads `amplitude` by the rule of the initial data, and still
    # writes [re, im]
    doc = {"kind": "single_mode", "zeta": [0, 1, 0, 0], "component": [1]}
    frc = ForcingSpec.from_json({**doc, "amplitude": 0.5})
    assert frc.amplitude == 0.5 + 0j and isinstance(frc.amplitude, complex)
    assert frc.to_json()["amplitude"] == [0.5, 0.0]
    assert ForcingSpec.from_json(frc.to_json()) == frc
    assert ForcingSpec.from_json({**doc, "amplitude": [0.5, -1]}).amplitude == 0.5 - 1j
    assert ForcingSpec.from_json(doc).amplitude == 0j
    for bad, message in ((float("nan"), "a number"), ("0.5", "a number"), ([1.0, 0.0, 2.0], r"\[re, im\]"),
                         ([float("nan"), 0.0], "a list of numbers")):
        with pytest.raises(ValueError, match=f"forcing key 'amplitude' must be {message}"):
            ForcingSpec.from_json({**doc, "amplitude": bad})


def test_forcing_validation(grid8):
    frc = ForcingSpec(kind="single_mode", zeta=(9, 0, 0, 0), component=(1,), amplitude=1.0)
    with pytest.raises(ValueError):
        frc.prepare(grid8, 1)
    frc = ForcingSpec(kind="single_mode", zeta=(1, 0, 0, 0), component=(1, 2), amplitude=1.0)
    with pytest.raises(ValueError):
        frc.prepare(grid8, 1)
    with pytest.raises(ValueError, match="singel_mode"):
        ForcingSpec.from_json({"kind": "singel_mode"})
    # on the lattice but outside the 2/3-rule band |zeta_a| <= 8/3: its
    # products would alias
    for zeta in ((3, 0, 0, 0), (0, 0, 0, -3), (0, 4, 0, 0)):
        frc = ForcingSpec(kind="single_mode", zeta=zeta, component=(1,), amplitude=1.0)
        with pytest.raises(ValueError, match="2/3-rule band"):
            frc.prepare(grid8, 1)
    ForcingSpec(kind="single_mode", zeta=(2, 0, -2, 0), component=(1,), amplitude=1.0).prepare(grid8, 1)


def test_file_forcing_must_be_band_limited(grid8, rng, tmp_path):
    from dolbeault_ns import save_field

    f = random_form(grid8, 1, rng)
    f.data[(1,) + grid8.mode_index((0, 0, 3, 0))] = 1e-300
    save_field(tmp_path / "force", f)
    with pytest.raises(ValueError, match="forcing file has nonzero modes outside"):
        ForcingSpec(kind="file", path=str(tmp_path / "force")).prepare(grid8, 1)


def test_forcing_evaluation(grid8):
    frc = ForcingSpec(kind="single_mode", zeta=(0, 1, 0, 0), component=(1,), amplitude=2.0, omega=np.pi)
    f0 = frc.prepare(grid8, 1)(0.0)
    f1 = frc.prepare(grid8, 1)(1.0)
    idx = (0,) + grid8.mode_index((0, 1, 0, 0))
    assert f0.data[idx] == pytest.approx(2.0)
    assert f1.data[idx] == pytest.approx(2.0 * np.exp(1j * np.pi))


def test_forcing_from_file(grid8, rng, tmp_path):
    from dolbeault_ns import save_field

    f = random_form(grid8, 1, rng)
    save_field(tmp_path / "force", f)
    frc = ForcingSpec(kind="file", path=str(tmp_path / "force"))
    force = frc.prepare(grid8, 1)
    got = force(0.0)
    assert l2_norm(got - f) < 1e-14 * l2_norm(f)
    # constant in time
    again = force(3.7)
    assert np.array_equal(got.data, again.data)


def test_each_run_reads_its_file_force_when_it_starts(grid8, rng, tmp_path):
    # a run steps the force file as it stands when the run starts: a second
    # run of one config object, after the file was rewritten, equals a run
    # of a fresh copy of the config and not the first run
    from dolbeault_ns import save_field

    path = tmp_path / "force"
    save_field(path, leray_project(random_form(grid8, 1, rng)))
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.03, dt=0.01, nonlinearity=LAMB,
                    forcing=ForcingSpec(kind="file", path=str(path)))
    u0 = _unit_max(_solenoidal(grid8, rng))
    first = simulate(cfg, u0)
    save_field(path, leray_project(random_form(grid8, 1, rng)))
    again = simulate(cfg, u0)
    fresh = simulate(SimConfig.from_json(cfg.to_json()), u0)

    def same(a, b):
        return all(np.array_equal(x.data, y.data) for x, y in zip(a.velocities + a.pressures, b.velocities + b.pressures))

    assert same(again, fresh)
    assert not same(again, first)


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
    got = _lattice(traj.velocities[-1])
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


def _same_run(a, b):
    assert np.array_equal(a.diagnostics["t"], b.diagnostics["t"])
    for x, y in zip(a.velocities + a.pressures, b.velocities + b.pressures):
        assert np.array_equal(x.data, y.data)
    for c in a.diagnostics:
        assert np.array_equal(a.diagnostics[c], b.diagnostics[c])


def test_snapshot_source_feeds_next_stage_bit_for_bit(grid8, rng, monkeypatch):
    # record() forms the next step's stage-1 source in the pass that takes
    # the diagnostics of the state (and, before a snapshot, its f - N(u));
    # recomputing that source instead must change no bit, and every step,
    # the first after each snapshot and after a CFL restart included, takes
    # one over, each saving one stage-1 evaluation
    frc = ForcingSpec(kind="single_mode", zeta=(0, 1, 0, 0), component=(1,), amplitude=0.3, omega=2.0)
    m1_only = BilinearSpec.custom(m1_terms=LAMB.tables(2, 1)[0], m2_terms=[])
    u0 = _unit_max(_solenoidal(grid8, rng))
    lamb = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.005, nonlinearity=LAMB, forcing=frc, output_stride=1)
    # the force drives max |u| past the CFL bound at t = 0.02, inside the
    # one output interval: the interval restarts at a refined dt
    strong = ForcingSpec(kind="single_mode", zeta=(0, 1, 0, 0), component=(1,), amplitude=2e4)
    shrink = SimConfig(n=2, q=1, N=8, mu=0.1, T=0.05, dt=1e-3, nonlinearity=LAMB, forcing=strong,
                       output_stride=50, cfl_mode="shrink")
    base = simulate(lamb, u0)
    # (run, apply_m1 calls per stage-1 evaluation: one per output component
    # (a = 2) and pair of arguments; a component is one slab at N = 8)
    a = 2
    runs = {
        "lamb": (lambda: simulate(lamb, u0), a),
        "m1 only": (lambda: simulate(replace(lamb, nonlinearity=m1_only), u0), a),
        "shrink": (lambda: simulate(shrink, 1e-3 * u0), a),
        "linearized": (lambda: solve_linearized(base, lamb, u0=0.5 * u0), a * 2),
    }
    m1_calls = [0]
    apply_m1 = dynamics.apply_m1

    def counted(*args):
        m1_calls[0] += 1
        return apply_m1(*args)

    def with_calls(run):
        m1_calls[0] = 0
        return run(), m1_calls[0]

    monkeypatch.setattr(dynamics, "apply_m1", counted)
    kept = {name: with_calls(run) for name, (run, _) in runs.items()}
    assert len(kept["shrink"][0].diagnostics["t"]) > shrink.steps + 1
    step = dynamics._EtdHeun.step
    steps, dropped = [0], [0]

    def recompute(self, *args):
        steps[0] += 1
        dropped[0] += self.g1 is not None
        self.g1 = None
        return step(self, *args)

    monkeypatch.setattr(dynamics._EtdHeun, "step", recompute)
    for name, (run, per_stage) in runs.items():
        traj, calls = kept[name]
        steps[0] = dropped[0] = 0
        again, more_calls = with_calls(run)
        _same_run(traj, again)
        assert dropped[0] == steps[0] >= len(traj.diagnostics["t"]) - 1, name
        assert more_calls - calls == per_stage * steps[0], name


def test_simulate_initial_condition_honored(grid8, rng):
    u0 = _solenoidal(grid8, rng)
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.05, dt=0.01, nonlinearity=STOKES, output_stride=5)
    traj = simulate(cfg, u0)
    assert l2_norm(_lattice(traj.velocities[0]) - u0) < 1e-13 * l2_norm(u0)
    assert traj.stamps[0] == 0.0


def test_simulate_rejects_bad_initial_data(grid8, rng):
    u0 = random_form(grid8, 1, rng)  # far from solenoidal
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.05, dt=0.01)
    with pytest.raises(ValueError):
        simulate(cfg, u0)
    # samples on the band view are transformed on the full lattice, where a
    # mode outside the band shows
    aliased = _solenoidal(grid8, rng)
    aliased.data[(0,) + grid8.mode_index((0, 3, 0, 0))] = 1.0
    with pytest.raises(ValueError, match="not solenoidal/band-limited"):
        simulate(cfg, FormField(grid8.band, 1, aliased.to_physical().data, PHYSICAL))


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


def _scaled_lamb(n, factor):
    """The Lamb table as a custom spec, scaled by `factor`; the antisymmetry
    (and hence the cancellation hypothesis) is preserved."""
    return BilinearSpec.custom(
        *([replace(t, coeff=factor * t.coeff) for t in terms] for terms in LAMB.tables(n, 1))
    )


def test_blow_up_detection(grid8):
    # a hypothesis-respecting quadratic term with an absurd coefficient
    # overflows the explicit stages within a step; the stepper must catch
    # the lost finiteness and stamp the failure time
    explosive = _scaled_lamb(2, 1e160)
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
    custom = _scaled_lamb(2, 1.0)
    u0 = _unit_max(u0)
    cfg_custom = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.01, nonlinearity=custom, output_stride=5)
    cfg_lamb = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.01, nonlinearity=LAMB, output_stride=5)
    t1 = simulate(cfg_custom, u0)
    t2 = simulate(cfg_lamb, u0)
    assert l2_norm(t1.velocities[-1] - t2.velocities[-1]) < 1e-13


def test_exact_gate_admits_cancelling_tensor_without_sampling(grid8, rng, monkeypatch):
    # the Lamb tensors (built in or scaled custom) cancel monomial by
    # monomial and Stokes has none, so the gate needs no samples
    def no_sampling(*args, **kwargs):
        raise AssertionError("verify_key1 sampled a tensor the exact check settles")

    monkeypatch.setattr(dynamics, "verify_key1", no_sampling)
    for n, grid in ((2, grid8), (3, SpectralGrid(3, 4)), (4, SpectralGrid(4, 4))):
        u0 = _unit_max(_solenoidal(grid, rng))
        for spec in (_scaled_lamb(n, 3.0), LAMB, STOKES):
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
    for t, us in zip(traj.stamps, map(_lattice, traj.velocities)):
        f = cfg.forcing.prepare(grid8, 1)(float(t))
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


def test_solution_map_taylor_remainder_levels_off_at_second_order():
    # S is the solution map at T, L the linearized solve around S(u0), and
    # the relative remainder r(eps) = |S(u0 + eps v) - S(u0) - eps L v| /
    # (eps |L v|) falls as O(eps) until it levels off at the plateau where
    # L differs from the exact derivative of the discrete map.  That
    # plateau is second order in dt at dt = 8e-3, 4e-3, 2e-3, for the Lamb
    # table at n = 2, N = 8 and a q = 2 table at n = 3, N = 4.  Measured
    # plateaus: 8.27e-5, 2.08e-5, 5.23e-6 (3.97 and 3.99 per halving) and
    # 9.22e-5, 2.31e-5, 5.78e-6 (3.99 and 4.00); r falls by 9.5-10.0 from
    # eps = 1e-2 to 1e-3, and r(1e-6) and r(1e-7) agree to within 2.2e-3
    # relative
    for n, q, N, spec in ((2, 1, 8, LAMB), (3, 2, 4, q2_custom())):
        plateaus = []
        for dt in (8e-3, 4e-3, 2e-3):
            def config(seed):
                return SimConfig(n=n, q=q, N=N, mu=0.2, T=0.2, dt=dt, nonlinearity=spec, seed=seed)

            u0, v = (gen_initial(InitialSpec(), config(seed)) for seed in (3, 7))
            base = simulate(config(3), u0)
            lv = solve_linearized(base, config(3), v).velocities[-1]

            def remainder(eps):
                s = simulate(config(3), u0 + eps * v).velocities[-1]
                return l2_norm(s - base.velocities[-1] - eps * lv) / (eps * l2_norm(lv))

            r = {eps: remainder(eps) for eps in (1e-2, 1e-3, 1e-6, 1e-7)}
            assert 9.0 < r[1e-2] / r[1e-3] < 11.0
            assert abs(r[1e-6] / r[1e-7] - 1.0) < 1e-2
            assert r[1e-3] > 3.0 * r[1e-7]
            plateaus.append(r[1e-7])
        for coarse, fine in zip(plateaus, plateaus[1:]):
            assert 3.5 < coarse / fine < 4.5


def test_linearized_requires_dense_base(grid8, rng):
    u0 = _solenoidal(grid8, rng)
    coarse = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.005, nonlinearity=LAMB, output_stride=5)
    base = simulate(coarse, u0)
    with pytest.raises(ValueError):
        solve_linearized(base, coarse, u0=u0)


def test_linearized_requires_band_limited_base(grid8, rng):
    u0 = _unit_max(_solenoidal(grid8, rng))
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.02, dt=0.005, nonlinearity=LAMB, output_stride=1)
    base = simulate(cfg, u0)
    solve_linearized(base, cfg, u0=u0)
    # a base state may also be given on the full lattice, if band-limited
    lattice = _lattice(base.velocities[2])
    base.velocities[2] = lattice
    solve_linearized(base, cfg, u0=u0)
    lattice.data[(0,) + grid8.mode_index((4, 1, 0, 0))] = 1e-12
    with pytest.raises(ValueError, match="base state 2 has nonzero modes outside"):
        solve_linearized(base, cfg, u0=u0)


def test_step_requires_band_limited_state(grid8, rng):
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.1, dt=0.01, nonlinearity=LAMB)
    u = _solenoidal(grid8, rng)
    step_etd_heun(u, 0.0, cfg)
    u.data[(1,) + grid8.mode_index((0, -3, 0, 0))] = 1.0
    with pytest.raises(ValueError, match="2/3-rule band"):
        step_etd_heun(u, 0.0, cfg)


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

    for u_snap, p_snap in zip(map(_lattice, traj.velocities), map(_lattice, traj.pressures)):
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


def _mismatched_base():
    """A stride-1 base trajectory on N = 4 for a run on N = 8."""
    cfg = SimConfig(n=2, q=1, N=8, mu=0.1, T=0.02, dt=0.01)
    states = [FormField.zeros(SpectralGrid(2, 4), 1, FOURIER)] * 3
    base = dynamics.Trajectory(np.array([0.0, 0.01, 0.02]), states, states, {}, cfg)
    return solve_linearized(base, cfg, u0=FormField.zeros(SpectralGrid(2, 8), 1, FOURIER))


def _nan_step():
    """One Lamb step from a state that is not finite."""
    band = SpectralGrid(2, 8).band
    u = FormField(band, 1, np.full((2,) + band.fourier_shape, np.nan + 0j), FOURIER)
    step_etd_heun(u, 0.0, SimConfig(n=2, q=1, N=8, mu=0.1, T=0.01, dt=0.01, nonlinearity=BilinearSpec.lamb()))


def _stored_force(tmp_path, grid):
    from dolbeault_ns import save_field

    save_field(tmp_path / "F", FormField.zeros(grid, 1, FOURIER))
    return ForcingSpec(kind="file", path=str(tmp_path / "F"))


_G8, _G4 = SpectralGrid(2, 8), SpectralGrid(2, 4)
_CFG8 = SimConfig(n=2, q=1, N=8, mu=0.1, T=0.02, dt=0.01)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: replace(_CFG8, cfl_safety=0.0), ValueError, r"cfl_safety .* got 0\.0"),
        (lambda tmp: replace(_CFG8, cfl_safety=1.5), ValueError, r"cfl_safety .* got 1\.5"),
        (lambda tmp: replace(_CFG8, cfl_mode="loose"), ValueError, "got 'loose'"),
        (lambda tmp: ForcingSpec(kind="wind").prepare(_G8, 1), ValueError, "unknown forcing kind 'wind'"),
        (lambda tmp: ForcingSpec(kind="file").prepare(_G8, 1), ValueError, "needs a path, got ''"),
        (lambda tmp: _stored_force(tmp, _G4).prepare(_G8, 1), ValueError,
         r"with q=1 on SpectralGrid\(n=2, N=4\) does not match q=1 on SpectralGrid\(n=2, N=8\)"),
        (lambda tmp: step_etd_heun(FormField.zeros(_G4, 1, FOURIER), 0.0, _CFG8), ValueError,
         r"state with q=1 on SpectralGrid\(n=2, N=4\) does not match n=2, N=8, q=1"),
        (lambda tmp: _nan_step(), BlowUpError, "lost finiteness at t = 0.01"),
        (lambda tmp: simulate(_CFG8, FormField.zeros(_G4, 1, FOURIER)), ValueError,
         r"initial data on SpectralGrid\(n=2, N=4\) does not match n=2, N=8"),
        (lambda tmp: simulate(_CFG8, FormField.zeros(_G8, 2, FOURIER)), ValueError,
         "initial data with q=2 does not match q=1"),
        (lambda tmp: solve_linearized(None, _CFG8, u0=FormField.zeros(_G4, 1, FOURIER)), ValueError,
         r"initial data on SpectralGrid\(n=2, N=4\) does not match n=2, N=8"),
        (lambda tmp: _mismatched_base(), ValueError,
         r"base state 0 with q=1 on SpectralGrid\(n=2, N=4\) does not match q=1 on SpectralGrid\(n=2, N=8\)"),
        (lambda tmp: linearized_b(FormField.zeros(_G4, 1, FOURIER), FormField.zeros(_G8, 1, FOURIER),
                                  BilinearSpec.lamb()), ValueError,
         r"q=1 on SpectralGrid\(n=2, N=4\) and q=1 on SpectralGrid\(n=2, N=8\)"),
        (lambda tmp: frechet_residual(*[FormField.zeros(_G8, 1, FOURIER)] * 2, -0.5, BilinearSpec.lamb()),
         ValueError, r"eps must be nonnegative, got -0\.5"),
        (lambda tmp: verify_key1(BilinearSpec.lamb(), _G8, 1, trials=0), ValueError, "at least one trial, got 0"),
    ],
    ids=["cfl-safety-0", "cfl-safety-1.5", "cfl-mode", "forcing-kind-validate",
         "file-force-no-path", "file-force-grid", "step-grid", "step-blow-up", "simulate-grid", "simulate-q",
         "linearized-grid", "linearized-base", "b-two-grids", "frechet-eps", "key1-trials"],
)
def test_dynamics_input_checks_name_the_bad_value(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)
