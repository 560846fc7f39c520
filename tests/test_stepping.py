"""The ETD-Heun stepping kernel against a textbook ETD-Heun built from the
public nonlinearity, linearized_b and leray_project, and the identities and
shortcuts the kernel rests on."""

import numpy as np
import pytest

import dolbeault_ns.dynamics as dynamics
from dolbeault_ns import (
    BilinearSpec,
    CustomTerm,
    FormField,
    SimConfig,
    SpectralGrid,
    dbar,
    l2_norm,
    leray_project,
    linearized_b,
    nonlinearity,
    random_form,
    simulate,
    solve_linearized,
)
from dolbeault_ns.spectral import FOURIER, apply_dealias

LAMB = BilinearSpec.lamb()
STOKES = BilinearSpec.stokes()


def _unit_max(u):
    phys = u.to_physical()
    mx = np.sqrt(np.max(np.sum(np.abs(phys.data) ** 2, axis=0)))
    return (1.0 / mx) * u


def _initial(grid, q, seed):
    rng = np.random.default_rng(seed)
    return _unit_max(leray_project(random_form(grid, q, rng, decay=3.0)))


def _reference(config, u0, source):
    """States at every step of the textbook scheme

        k1 = P source(u, t),  k2 = P source(E (u + dt k1), t + dt),
        u <- P [E u + dt/2 (E k1 + k2)],

    where source(v, t, m) is f - N(v) (or f - B(w_m, v)) at step m."""
    grid, q, dt = u0.grid, config.q, config.dt
    E = np.exp(-config.mu * grid.zeta_sq * dt / 4.0)
    u = leray_project(FormField(grid, q, apply_dealias(grid, u0.to_fourier().data), FOURIER))
    states = [u]
    for m in range(config.steps):
        t = m * dt
        k1 = leray_project(source(u, t, m))
        mid = FormField(grid, q, E * (u.data + dt * k1.data), FOURIER)
        k2 = leray_project(source(mid, t + dt, m + 1))
        u = leray_project(FormField(grid, q, E * u.data + 0.5 * dt * (E * k1.data + k2.data), FOURIER))
        states.append(u)
    return states


def _assert_matches(traj, states):
    assert len(traj.velocities) == len(states)
    for got, want in zip(traj.velocities, states):
        assert l2_norm(got - want) <= 1e-12 * l2_norm(want)
    energy = np.array([0.5 * l2_norm(s) ** 2 for s in states])
    assert np.allclose(traj.diagnostics["energy"], energy, rtol=1e-12, atol=0.0)


def _nonlinear_source(config):
    grid = config.make_grid()

    def source(v, t, m):
        return config.forcing.evaluate(grid, config.q, t) - nonlinearity(v, config.nonlinearity)

    return source


def _q2_custom():
    """A (0,2) tensor pair at n = 3 with live M1 products: the two M1 terms
    are antisymmetric in (B, K) against conj(v_B) conj(v_K), so the
    energy pairing cancels pointwise."""
    abc = (1, 2, 3)
    m1 = [
        CustomTerm(k=(1, 2), a=abc, b=(1, 3), coeff=1.0 + 0.5j, conj_u=True),
        CustomTerm(k=(1, 3), a=abc, b=(1, 2), coeff=-1.0 - 0.5j, conj_u=True),
        CustomTerm(k=(2, 3), a=abc, b=(1, 2), coeff=0.75, conj_u=True),
        CustomTerm(k=(1, 2), a=abc, b=(2, 3), coeff=-0.75, conj_u=True),
    ]
    m2 = [
        CustomTerm(k=(1,), a=(1, 2), b=(1, 2), coeff=1.0, conj_u=True),
        CustomTerm(k=(3,), a=(2, 3), b=(1, 3), coeff=0.5j, conj_u=True),
    ]
    return BilinearSpec.custom(m1, m2)


@pytest.mark.parametrize(
    "n, q, N, spec, steps",
    [
        (2, 1, 8, LAMB, 10),
        (3, 2, 4, _q2_custom(), 5),
        (4, 1, 4, LAMB, 3),
    ],
    ids=["lamb-n2", "custom-q2-n3", "lamb-n4"],
)
def test_kernel_matches_reference_etd_heun(n, q, N, spec, steps):
    cfg = SimConfig(n=n, q=q, N=N, mu=0.2, T=steps * 0.01, dt=0.01, nonlinearity=spec, output_stride=1)
    u0 = _initial(SpectralGrid(n, N), q, seed=40 + n)
    traj = simulate(cfg, u0)
    _assert_matches(traj, _reference(cfg, u0, _nonlinear_source(cfg)))
    # the products are live: the run departs from the heat flow
    heat = simulate(SimConfig(n=n, q=q, N=N, mu=0.2, T=steps * 0.01, dt=0.01, output_stride=steps), u0)
    assert l2_norm(traj.velocities[-1] - heat.velocities[-1]) > 1e-8 * l2_norm(heat.velocities[-1])


def test_linearized_kernel_matches_reference():
    grid = SpectralGrid(2, 8)
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.08, dt=0.01, nonlinearity=LAMB, output_stride=1)
    base = simulate(cfg, _initial(grid, 1, seed=7))
    v0 = _initial(grid, 1, seed=8)
    lin = solve_linearized(base, cfg, u0=v0)

    def source(v, t, m):
        return cfg.forcing.evaluate(grid, 1, t) - linearized_b(base.velocities[m], v, LAMB)

    _assert_matches(lin, _reference(cfg, v0, source))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projection_kills_exact_forms(n):
    # P dbar phi = 0: the identity that keeps dbar M2 out of the stages
    grid = SpectralGrid(n, 4)
    rng = np.random.default_rng(n)
    for q in range(1, n + 1):
        exact = dbar(random_form(grid, q - 1, rng, decay=1.0))
        assert l2_norm(exact) > 0.0
        assert l2_norm(leray_project(exact)) <= 1e-14 * l2_norm(exact)


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_zero_source_steps_exactly(monkeypatch):
    grid = SpectralGrid(2, 8)
    u0 = leray_project(random_form(grid, 1, np.random.default_rng(3), decay=3.0))
    cfg = SimConfig(n=2, q=1, N=8, mu=0.7, T=0.2, dt=0.01, nonlinearity=STOKES, output_stride=10)
    counts = {}
    for owner, name in ((dynamics, "leray_project"), (SpectralGrid, "fft"), (SpectralGrid, "ifft")):
        _count_calls(monkeypatch, owner, name, counts)
    traj = simulate(cfg, u0)
    lin = solve_linearized(None, cfg, u0=u0)
    # one projection per run, of the initial data; no forward transform;
    # one inverse transform of u per recorded state
    assert counts == {"leray_project": 2, "ifft": 2 * (cfg.steps + 1)}

    E = np.exp(-cfg.mu * grid.zeta_sq * cfg.dt / 4.0)
    expect = traj.velocities[0].data
    for k in range(1, len(traj.stamps)):
        for _ in range(cfg.output_stride):
            expect = E * expect
        assert np.array_equal(traj.velocities[k].data, expect)
        assert np.array_equal(lin.velocities[k].data, expect)
        closed = np.exp(-cfg.mu * grid.zeta_sq * traj.stamps[k] / 4.0) * u0.data
        assert np.max(np.abs(expect - closed)) <= 1e-14 * np.max(np.abs(u0.data))


def test_lamb_step_makes_four_fft_calls(monkeypatch):
    grid = SpectralGrid(2, 8)
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.01, nonlinearity=LAMB, output_stride=5)
    u0 = _initial(grid, 1, seed=5)
    counts = {}
    for owner, name in ((dynamics, "leray_project"), (SpectralGrid, "fft"), (SpectralGrid, "ifft")):
        _count_calls(monkeypatch, owner, name, counts)
    simulate(cfg, u0)
    # the initial projection, 2 per step; 1 transform of the initial state,
    # 4 per step and 4 inside nonlinearity() for each of the 2 snapshots
    assert counts["leray_project"] == 1 + 2 * cfg.steps
    assert counts["fft"] + counts["ifft"] == 1 + 4 * cfg.steps + 2 * 4


def test_fft_workers_do_not_change_results():
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.01, nonlinearity=LAMB, output_stride=5)
    runs = []
    for workers in (1, 2):
        grid = SpectralGrid(2, 8)
        grid._workers = workers
        runs.append(simulate(cfg, _initial(grid, 1, seed=9)))
    one, two = runs
    for a, b in zip(one.velocities + one.pressures, two.velocities + two.pressures):
        assert np.array_equal(a.data, b.data)
    for c in one.diagnostics:
        assert np.array_equal(one.diagnostics[c], two.diagnostics[c])

