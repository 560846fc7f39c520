"""The ETD-Heun stepping kernel against a textbook ETD-Heun built from the
public nonlinearity, linearized_b and leray_project, and the identities and
shortcuts the kernel rests on."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import dolbeault_ns.dynamics as dynamics
from dolbeault_ns import (
    BilinearSpec,
    CustomTerm,
    FormField,
    SimConfig,
    SpectralGrid,
    ForcingSpec,
    dbar,
    l2_norm,
    leray_project,
    linearized_b,
    nonlinearity,
    pressure_recover,
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
    # 4 per step, and 1 forward transform for each of the 2 snapshots, which
    # reuse the samples the diagnostics made
    assert counts["leray_project"] == 1 + 2 * cfg.steps
    assert counts["ifft"] == 1 + 2 * cfg.steps
    assert counts["fft"] == 2 * cfg.steps + 2

    # linearized around a stride-1 Lamb run: the samples of w_m are made once
    # per step index and shared by the stage and the snapshot at that index
    base = simulate(replace(cfg, output_stride=1), u0)
    counts.clear()
    solve_linearized(base, cfg, u0=u0)
    assert counts["ifft"] == 2 + 3 * cfg.steps
    assert counts["fft"] == 2 * cfg.steps + 2


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


@pytest.mark.parametrize("case", ["lamb-forced", "m2-only-custom", "linearized"])
def test_snapshot_pressure_matches_recovery_from_scratch(case):
    # a snapshot evaluates the quadratic term on the diagnostics' samples;
    # it must give the pressure of the exact part of f - N(u) (or f - B(w, u))
    if case == "m2-only-custom":
        n, q, N, spec, forcing = 3, 2, 4, BilinearSpec.custom([], _q2_custom().m2_terms), ForcingSpec()
    else:
        n, q, N, spec = 2, 1, 8, LAMB
        forcing = ForcingSpec(kind="single_mode", zeta=(1, 0, 0, 1), component=(2,), amplitude=0.5 - 0.3j, omega=2.0)
    grid = SpectralGrid(n, N)
    cfg = SimConfig(n=n, q=q, N=N, mu=0.2, T=0.06, dt=0.01, nonlinearity=spec, forcing=forcing, output_stride=2)
    u0 = _initial(grid, q, seed=11)
    if case == "linearized":
        base = simulate(replace(cfg, output_stride=1), _initial(grid, q, seed=12))
        traj = solve_linearized(base, cfg, u0=u0)

        def quadratic(u, t):
            return linearized_b(base.velocities[int(round(t / cfg.dt))], u, spec)
    else:
        traj = simulate(cfg, u0)

        def quadratic(u, t):
            return nonlinearity(u, spec)

    for t, u, p in zip(traj.stamps, traj.velocities, traj.pressures):
        F = forcing.evaluate(grid, q, float(t)) - quadratic(u, float(t))
        expect = pressure_recover(F - leray_project(F))
        assert l2_norm(expect) > 0.0
        assert l2_norm(p - expect) <= 1e-12 * l2_norm(expect)


def _multi_index(draw, n, size):
    return tuple(sorted(draw(st.permutations(range(1, n + 1)))[:size]))


@st.composite
def _custom_spec(draw, n, q):
    """A random sparse (M1, M2) tensor pair at bidegree q, with some term."""
    coeff = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))

    def terms(len_k, len_a):
        return [
            CustomTerm(
                k=_multi_index(draw, n, len_k),
                a=_multi_index(draw, n, len_a),
                b=_multi_index(draw, n, q),
                coeff=draw(coeff),
                conj_u=draw(st.booleans()),
            )
            for _ in range(draw(st.integers(0, 3)))
        ]

    m1, m2 = terms(q, q + 1), terms(q - 1, q)
    assume(m1 or m2)
    return BilinearSpec.custom(m1, m2)


@pytest.mark.parametrize(
    "n, q, kind",
    [(n, 1, "lamb") for n in (2, 3, 4)] + [(n, q, "custom") for n in (2, 3, 4) for q in range(1, n)],
)
# no shrink phase: shrinking n = 4 examples takes minutes, and a
# derandomized failure reproduces as drawn
@settings(derandomize=True, deadline=None, max_examples=4, phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_quadratic_expansion_property(n, q, kind, data):
    # N(w + v) = N(w) + B(w, v) + N(v) holds to rounding for every R-bilinear pair
    grid = SpectralGrid(n, 4)
    spec = LAMB if kind == "lamb" else data.draw(_custom_spec(n, q))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = random_form(grid, q, rng, decay=1.0)
    v = random_form(grid, q, rng, decay=1.0)
    parts = (nonlinearity(w, spec), linearized_b(w, v, spec), nonlinearity(v, spec))
    scale = sum(l2_norm(x) for x in parts)
    assert scale > 0.0
    residual = nonlinearity(w + v, spec) - parts[0] - parts[1] - parts[2]
    assert l2_norm(residual) <= 1e-12 * scale
