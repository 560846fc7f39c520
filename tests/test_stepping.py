"""The ETD-Heun stepping kernel against a textbook ETD-Heun built from the
public nonlinearity, linearized_b and leray_project, and the identities and
shortcuts the kernel rests on."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import dolbeault_ns.dynamics as dynamics
import dolbeault_ns.spectral as spectral
from dolbeault_ns import (
    BilinearSpec,
    CustomTerm,
    FormField,
    SimConfig,
    SpectralGrid,
    FieldFormatError,
    ForcingSpec,
    dbar,
    l2_norm,
    leray_project,
    linearized_b,
    load_field,
    nonlinearity,
    pressure_recover,
    random_form,
    save_field,
    save_trajectory,
    simulate,
    solve_linearized,
    step_etd_heun,
)
from dolbeault_ns.forms import apply_m1, apply_m2
from dolbeault_ns.spectral import FOURIER, PHYSICAL, apply_dealias, heat_multiplier_grid
from oracle import q2_custom

LAMB = BilinearSpec.lamb()
STOKES = BilinearSpec.stokes()


def _unit_max(u):
    phys = u.to_physical()
    mx = np.sqrt(np.max(np.sum(np.abs(phys.data) ** 2, axis=0)))
    return (1.0 / mx) * u


def _lattice(f):
    """A field of a run (on the band view) scattered to the full lattice."""
    return FormField(f.grid.full, f.q, f.grid.scatter(f.data), FOURIER)


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
        assert l2_norm(_lattice(got) - want) <= 1e-12 * l2_norm(want)
    energy = np.array([0.5 * l2_norm(s) ** 2 for s in states])
    assert np.allclose(traj.diagnostics["energy"], energy, rtol=1e-12, atol=0.0)


def _nonlinear_source(config):
    grid = config.make_grid().full

    def source(v, t, m):
        return config.forcing.prepare(grid, config.q)(t) - nonlinearity(v, config.nonlinearity)

    return source


@pytest.mark.parametrize(
    "n, q, N, spec, steps",
    [
        (2, 1, 8, LAMB, 10),
        (3, 2, 4, q2_custom(), 5),
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
        return cfg.forcing.prepare(grid, 1)(t) - linearized_b(_lattice(base.velocities[m]), v, LAMB)

    _assert_matches(lin, _reference(cfg, v0, source))


@pytest.mark.parametrize("case", ["simulate", "linearized"])
def test_band_kernel_equals_full_grid_etd_heun(case):
    # the kernel steps on the band view; this reference repeats its
    # arithmetic on full-lattice fields with the public operators, whose N
    # and B also run on the band and scatter their result (held to the
    # full-grid recipe in test_public_n_and_b_equal_full_grid_recipe), so
    # every velocity and pressure, scattered, must agree exactly
    grid = SpectralGrid(2, 8)
    forcing = ForcingSpec(kind="single_mode", zeta=(1, 0, -2, 1), component=(1,), amplitude=0.4 + 0.2j, omega=3.0)
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.06, dt=0.01, nonlinearity=LAMB, forcing=forcing, output_stride=1)
    u0 = _initial(grid, 1, seed=21)
    stages = BilinearSpec.custom(LAMB.tables(2, 1)[0], [])  # the M1 half, which the stages use
    if case == "simulate":
        traj = simulate(cfg, u0)

        def quadratic(v, m, spec):
            return nonlinearity(v, spec)
    else:
        base = simulate(cfg, _initial(grid, 1, seed=22))
        traj = solve_linearized(base, cfg, u0=u0)

        def quadratic(v, m, spec):
            return linearized_b(_lattice(base.velocities[m]), v, spec)

    def source(v, m, spec):
        return forcing.prepare(grid, 1)(m * cfg.dt) - quadratic(v, m, spec)

    dt = cfg.dt
    E = heat_multiplier_grid(grid, cfg.mu, dt)
    u = leray_project(FormField(grid, 1, apply_dealias(grid, u0.data), FOURIER))
    for m in range(cfg.steps + 1):
        assert np.array_equal(_lattice(traj.velocities[m]).data, u.data)
        p = pressure_recover(source(u, m, LAMB), check=False)
        assert np.array_equal(_lattice(traj.pressures[m]).data, p.data)
        if m == cfg.steps:
            break
        k1 = leray_project(source(u, m, stages)).data
        mid = FormField(grid, 1, E * (u.data + dt * k1), FOURIER)
        g2 = source(mid, m + 1, stages).data
        u = leray_project(FormField(grid, 1, E * (u.data + (0.5 * dt) * k1) + (0.5 * dt) * g2, FOURIER))


def _full_grid_quadratic(spec, x, y=None):
    """N(x) (y None) or B(x, y) by the full-lattice recipe: a full inverse
    FFT of [f, dbar f] per argument, M1/M2 on the samples, one forward FFT
    and apply_dealias, then dbar of the M2 block."""
    grid, q = x.grid, x.q
    a = x.data.shape[0]

    def samples(f):
        s = grid.ifft(np.concatenate((f.data, dbar(f).data)))
        return FormField(grid, q, s[:a], PHYSICAL), FormField(grid, q + 1, s[a:], PHYSICAL)

    pairs = [(samples(x), samples(x))] if y is None else [(samples(x), samples(y)), (samples(y), samples(x))]
    m1_terms, m2_terms = spec.tables(grid.n, q)
    parts = []
    if m1_terms:  # sum of M1(dbar f, g)
        parts.append(sum(apply_m1(spec, f[1], g[0]).data for f, g in pairs))
    if m2_terms:  # sum of M2(f, g)
        parts.append(sum(apply_m2(spec, f[0], g[0]).data for f, g in pairs))
    hat = apply_dealias(grid, grid.fft(np.concatenate(parts)))
    if not m2_terms:
        return hat
    total = dbar(FormField(grid, q - 1, hat[a if m1_terms else 0 :], FOURIER)).data
    return total + hat[:a] if m1_terms else total


@pytest.mark.parametrize(
    "n, q, N, spec",
    [(2, 1, 8, LAMB), (3, 1, 4, LAMB), (4, 1, 4, LAMB), (3, 2, 4, q2_custom()),
     (2, 1, 8, BilinearSpec.custom(LAMB.tables(2, 1)[0], []))],
    ids=["lamb-n2", "lamb-n3", "lamb-n4", "q2-custom-n3", "m1-only-n2"],
)
def test_public_n_and_b_equal_full_grid_recipe(n, q, N, spec):
    # N and B evaluate on the band view and scatter the result; the band
    # forward transform equals the dealiased full one, so they give the
    # full-lattice recipe bit for bit
    grid = SpectralGrid(n, N)
    rng = np.random.default_rng(10 * n + q)
    w, u = random_form(grid, q, rng, decay=1.0), random_form(grid, q, rng, decay=1.0)
    assert np.array_equal(nonlinearity(u, spec).data, _full_grid_quadratic(spec, u))
    assert np.array_equal(linearized_b(w, u, spec).data, _full_grid_quadratic(spec, w, u))


def test_public_n_and_b_take_band_limited_fields_only():
    grid = SpectralGrid(2, 8)
    band = grid.band
    rng = np.random.default_rng(3)
    w, u = random_form(grid, 1, rng), random_form(grid, 1, rng)
    aliased = u.copy()
    aliased.data[(1,) + grid.mode_index((0, 0, 3, 0))] = 1e-3  # |zeta_3| = 3 > N/3
    with pytest.raises(ValueError, match="u has nonzero modes outside the 2/3-rule band"):
        nonlinearity(aliased, LAMB)
    with pytest.raises(ValueError, match="u has nonzero modes outside the 2/3-rule band"):
        linearized_b(w, aliased, LAMB)
    with pytest.raises(ValueError, match="w has nonzero modes outside the 2/3-rule band"):
        linearized_b(aliased, u, LAMB)
    # a field on the band view stays there
    wb, ub = (FormField(band, 1, band.gather(f.data), FOURIER) for f in (w, u))
    n_band, b_band = nonlinearity(ub, LAMB), linearized_b(wb, ub, LAMB)
    assert n_band.grid is band and b_band.grid is band
    assert np.array_equal(n_band.data, band.gather(nonlinearity(u, LAMB).data))
    assert np.array_equal(b_band.data, band.gather(linearized_b(w, u, LAMB).data))


def _band_coefficients(f):
    """The Fourier coefficients of a band-limited field on the band view."""
    f = f.to_fourier()
    return f.data if f.grid.banded else f.grid.band.gather(f.data)


def _through(entry, x, tmp_path):
    """What one way into the band makes of x, as band coefficients."""
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.02, dt=0.01, nonlinearity=LAMB)
    band = x.grid.band
    w = _initial(x.grid.full, 1, 5)
    if entry == "nonlinearity":
        out = nonlinearity(x, LAMB)
    elif entry == "linearized_b":
        out = linearized_b(w if x.grid == w.grid else FormField(band, 1, _band_coefficients(w), FOURIER), x, LAMB)
    elif entry == "step_etd_heun":
        out = step_etd_heun(x, 0.0, cfg)
    elif entry == "solve_linearized":
        base = dynamics.Trajectory(np.arange(3) * cfg.dt, [x] * 3, [], {}, cfg)
        out = solve_linearized(base, cfg, u0=w).velocities[-1]
    else:
        save_field(tmp_path / "x", x)
        if entry == "file force":
            out = ForcingSpec(kind="file", path=str(tmp_path / "x")).prepare(band, 1)(0.0)
        else:
            out = load_field(tmp_path / "x", grid=band)
    return _band_coefficients(out)


# each way in and the name its error gives the field
_WAYS_IN = {"nonlinearity": "u", "linearized_b": "u", "step_etd_heun": "state", "solve_linearized": "base state 0",
            "file force": "forcing file", "load_field": r"field \S+"}


@pytest.mark.parametrize("entry", list(_WAYS_IN))
# band coefficients hold no mode outside the band, so they have no aliased case
@pytest.mark.parametrize(
    "view, rep, content",
    [(view, rep, content) for view in ("full", "band") for rep in (FOURIER, PHYSICAL)
     for content in ("band-limited", "aliased") if (view, rep, content) != ("band", FOURIER, "aliased")],
)
def test_every_way_into_the_band_has_one_rule(tmp_path, entry, view, rep, content):
    # band-limited fields of either view and representation are accepted,
    # samples to rounding; one with a 0.5 mode at |zeta_2| = 3 > N/3 is
    # rejected, samples on the band view included
    full = SpectralGrid(2, 8)
    u = _initial(full, 1, 4)
    want = _through(entry, FormField(full.band, 1, _band_coefficients(u), FOURIER), tmp_path)
    if content == "aliased":
        u.data[(1,) + full.mode_index((0, 3, 0, 0))] = 0.5
    x = u.to_physical() if rep == PHYSICAL else u
    if view == "band":
        x = FormField(full.band, 1, x.data if rep == PHYSICAL else _band_coefficients(x), rep)
    if content == "aliased":
        message = f"{_WAYS_IN[entry]} has nonzero modes outside the 2/3-rule band"
        with pytest.raises((ValueError, FieldFormatError), match=message):
            _through(entry, x, tmp_path)
    else:
        got = _through(entry, x, tmp_path)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
    # two inverse calls of u per recorded state, its last axis and its one slab
    assert counts == {"leray_project": 2, "ifft": 2 * 2 * (cfg.steps + 1)}

    E = np.exp(-cfg.mu * grid.zeta_sq * cfg.dt / 4.0)
    expect = _lattice(traj.velocities[0]).data
    for k in range(1, len(traj.stamps)):
        for _ in range(cfg.output_stride):
            expect = E * expect
        assert np.array_equal(_lattice(traj.velocities[k]).data, expect)
        assert np.array_equal(_lattice(lin.velocities[k]).data, expect)
        closed = np.exp(-cfg.mu * grid.zeta_sq * traj.stamps[k] / 4.0) * u0.data
        assert np.max(np.abs(expect - closed)) <= 1e-14 * np.max(np.abs(u0.data))


def test_lamb_step_counts_inverse_calls_and_forward_field_transforms(monkeypatch):
    grid = SpectralGrid(2, 8)
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.01, nonlinearity=LAMB, output_stride=5)
    u0 = _initial(grid, 1, seed=5)
    counts = {}
    for owner, name in ((dynamics, "leray_project"), (SpectralGrid, "ifft")):
        _count_calls(monkeypatch, owner, name, counts)
    fft, forward = SpectralGrid.fft, []

    def counted_fft(self, values, *args, **kwargs):
        forward.append(values.shape[: values.ndim - self.dim])
        return fft(self, values, *args, **kwargs)

    monkeypatch.setattr(SpectralGrid, "fft", counted_fft)
    simulate(cfg, u0)
    # the initial projection, 2 per step; 1 pass of the initial state and 2
    # per step, each 3 inverse calls: the last axis of u and of dbar u, then
    # its one slab; forward transforms go one field at a time along the
    # other axes, M1's 2 components per stage and M1's and M2's 3 at each
    # of the 2 snapshots, which reuse the samples the diagnostics made, and
    # then once along the last axis of all of a pass's fields; the snapshot
    # at t = 0 also gives the first step its stage-1 source, which saves
    # that stage's pass
    m1, m2 = 2, 1

    def passes(fields, count=1):
        return ([()] * fields + [(fields,)]) * count

    expect = passes(m1 + m2) + passes(m1, 2 * cfg.steps - 1) + passes(m1 + m2)
    assert counts["leray_project"] == 1 + 2 * cfg.steps
    assert counts["ifft"] == 3 * (1 + 2 * cfg.steps)
    assert forward == expect

    # linearized around a stride-1 Lamb run: the samples of w_m are made once
    # per step index, by one inverse call of the stacked [w, dbar w], and
    # shared by the stage and the snapshot at that index
    base = simulate(replace(cfg, output_stride=1), u0)
    counts.clear()
    forward.clear()
    solve_linearized(base, cfg, u0=u0)
    assert counts["ifft"] == 3 * (1 + 2 * cfg.steps) + (cfg.steps + 1)
    assert forward == expect


@pytest.mark.parametrize("case", ["lamb", "linearized", "stokes"])
def test_kernel_reuses_its_sample_buffers(case, monkeypatch):
    # every stack of samples the kernel makes goes to one of its two
    # buffers, the slab samples of a pass to the slab buffer (rows x one
    # slab) and those of w to the base buffer; fresh stacks of that size
    # would each fault their pages in.  At n = 2, N = 4 a pass is one
    # slab, and 4 once _PASS is cut to a quarter of its rows' samples
    grid = SpectralGrid(2, 4)
    cfg = SimConfig(n=2, q=1, N=4, mu=0.2, T=0.03, dt=0.01, nonlinearity=STOKES if case == "stokes" else LAMB)
    u0 = _initial(grid, 1, 1)
    base = None
    if case == "linearized":
        base = [FormField(grid.band, 1, grid.band.gather(f.data), FOURIER) for f in [_initial(grid, 1, 2)] * 4]
    samples, ifft = [], SpectralGrid.ifft

    def recorded(self, coeffs, out=None, axes=None):
        result = ifft(self, coeffs, out, axes)
        if axes != (self.dim - 1,):  # not the last-axis inverse of a pass
            samples.append(result)
        return result

    monkeypatch.setattr(SpectralGrid, "ifft", recorded)
    rows = 3 if case != "stokes" else 2
    for slabs in (1, 4):
        monkeypatch.setattr(spectral, "_PASS", rows * 4**4 // slabs)
        samples.clear()
        kernel = dynamics._EtdHeun(cfg, grid, base)
        assert kernel._slab.size == rows * 4**4 // slabs
        traj = dynamics._run_loop(cfg, u0, kernel, cfl=True)
        passes = (2 if case != "stokes" else 1) * cfg.steps + 1
        in_slab = [x for x in samples if np.shares_memory(x, kernel._slab)]
        assert len(in_slab) == passes * slabs
        assert all(x.shape[0] == rows and x.size == kernel._slab.size for x in in_slab)
        in_base = [x for x in samples if base is not None and np.shares_memory(x, kernel._base_phys)]
        # the stacked [w, dbar w], inverse-transformed into the base buffer at once
        assert len(in_base) == (cfg.steps + 1 if base is not None else 0)
        assert len(in_slab) + len(in_base) == len(samples)
        # and keeps none of them in the trajectory
        for f in traj.velocities + traj.pressures:
            assert f.grid is kernel.grid and not np.shares_memory(f.data, kernel._slab)


@pytest.mark.parametrize("n, N", [(2, 8), (3, 8)])
def test_samples_fill_their_rows_as_one_stacked_inverse_does(n, N):
    # _samples inverse-transforms u and dbar u each into its own rows, with
    # no stacked copy of their coefficients, and gives bit for bit the
    # samples of one inverse of the stack
    grid = SpectralGrid(n, N).band
    u = leray_project(random_form(grid, 1, np.random.default_rng(n)))
    want = grid.ifft(np.concatenate((u.data, dbar(u).data)))
    out = np.empty_like(want)
    assert dynamics._samples(u, True, out=out) is out
    for got in (out, dynamics._samples(u, True)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "case, bound",
    [("N stage", 0.9), ("N exact", 1.25), ("B", 1.25), ("diagnostics", 0.7)],
    ids=["N stage", "N exact", "B", "diagnostics"],
)
def test_quadratic_scratch_stays_within_a_few_components(case, bound):
    # one pass goes slab by slab of last-axis indices, and forms and
    # transforms Q one output component at a time on each slab, through
    # slab-sized contraction scratch, into accumulators that share the
    # memory of its last-axis inverse: the peak rise of one call from band
    # coefficients, with the kernel's slab buffer given, in sample-sized
    # components at n = 3, N = 8 (Lamb, 8 slabs of the 6 rows of
    # [v, dbar v]), reads 0.82 (N stage), 1.14 (N exact) and 1.14 (B), its
    # own inverse transforms included; 4 slabs with accumulators of their
    # own read 1.36, 1.46 and 1.74, and the products alone of whole-array
    # samples 1.43, 1.57 and 2.57.  A Stokes pass for max |u| and
    # sum |u_J|^r alone (record() of a Stokes run, 4 slabs of 3 rows)
    # reads 0.66: the last-axis inverse and three real buffers of one slab;
    # whole-array moduli, squares and powers read 3.5
    grid = SpectralGrid(3, 8).band
    rng = np.random.default_rng(4)
    v, w = (leray_project(random_form(grid, 1, rng)) for _ in range(2))
    spec = STOKES if case == "diagnostics" else LAMB
    slab = np.empty(spectral.SlabStream.size(grid, 3 if case == "diagnostics" else 6), dtype=np.complex128)
    assert slab.size == 6 * 8**5
    args = {"N stage": {"exact": False}, "N exact": {}, "B": {"w": dynamics._samples(w, True)},
            "diagnostics": {"exact": False, "r": 7}}[case]
    dynamics._quadratic(spec, v, out=slab, **args)
    tracemalloc.start()
    try:
        dynamics._quadratic(spec, v, out=slab, **args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * grid.size) <= bound


@pytest.mark.parametrize("case", ["lamb-short-last-slab", "q2-fields-outnumber-rows"])
def test_split_pass_equals_one_slab_pass(case, monkeypatch):
    # a pass keeps its forward accumulators in the first rows of its
    # last-axis inverse, which has max(rows, fields) rows: Lamb's 4 exact
    # fields at n = 3 share the 6 rows of [v, dbar v], here in slabs of 3
    # indices with a short last one.  The q = 2 table at n = 3 has 4 rows
    # (3 of v, 1 of dbar v) and 6 fields (3 of M1, 3 of M2), so its last-axis
    # inverse has 6 rows, in 8 slabs.  N and B, their M1 parts, max |u| and
    # the power sum equal those of the one-slab pass bit for bit
    q, spec, budget = (1, LAMB, 6 * 8**5 * 3) if case.startswith("lamb") else (2, q2_custom(), spectral._PASS)
    grid = SpectralGrid(3, 8).band
    rng = np.random.default_rng(7)
    v, w = (leray_project(random_form(grid, q, rng)) for _ in range(2))
    w = dynamics._samples(w, True)
    made, init = [], spectral.SlabStream.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        assert self.hat.base is self.coeffs
        made.append((len(self.slabs), len(self.coeffs)))

    monkeypatch.setattr(spectral.SlabStream, "__init__", recorded)
    results = {}
    for label, most in (("whole", 1 << 30), ("split", budget)):
        monkeypatch.setattr(spectral, "_PASS", most)
        made.clear()
        results[label] = [dynamics._quadratic(spec, v, w=base, r=7) for base in (None, w)]
        assert made == [(1 if label == "whole" else 3 if q == 1 else 8, 6)] * 2
    for (Q, Q1, (top, power)), (want, want1, (want_top, want_power)) in zip(results["split"], results["whole"]):
        assert np.array_equal(Q, want) and np.array_equal(Q1, want1)
        assert top == want_top and power == want_power


def test_run_files_do_not_depend_on_the_slab_budget(tmp_path, monkeypatch):
    # an n = 3, N = 8 Lamb run writes the same bytes whatever the slabs of
    # its passes: one slab, slabs of 3 indices (6 rows) or 6 (3 rows), and
    # the default 8 and 4; lps_accum adds up its power sums per last-axis
    # index, so it does not regroup with the slabs either
    grid = SpectralGrid(3, 8)
    cfg = SimConfig(n=3, q=1, N=8, mu=0.2, T=0.02, dt=0.01, nonlinearity=LAMB, output_stride=1)
    u0 = _initial(grid, 1, seed=2)  # whose lps_accum regrouped with per-slab power sums
    files = []
    for budget in (1 << 30, 6 * 8**5 * 3, spectral._PASS):
        monkeypatch.setattr(spectral, "_PASS", budget)
        save_trajectory(tmp_path / str(budget), simulate(cfg, u0))
        files.append([(tmp_path / str(budget) / name).read_bytes() for name in ("diagnostics.csv", "fields.bin")])
    assert files[0] == files[1] == files[2]


def test_streamed_run_peak_stays_within_three_components():
    # a run holds no sample-sized stage buffer: the passes go through slabs
    # of last-axis indices (8 slabs of the 6 rows of [u, dbar u] at n = 3,
    # N = 8), into accumulators in the memory of their last-axis inverse,
    # so 4 steps at stride 2 of the Lamb run with its tensor spelled out
    # (the shape of the custom-n3N8 benchmark) peak at 2.77 sample-sized
    # components in tracemalloc, its 3 snapshots included; 4 slabs of a
    # component with accumulators of their own read 3.91, and holding the
    # samples of [u, dbar u] for the run (6 components) read 8.38
    m1 = [CustomTerm(k=(k,), a=tuple(sorted((j, k))), b=(j,), coeff=1.0 if j < k else -1.0, conj_u=True)
          for k in range(1, 4) for j in range(1, 4) if j != k]
    m2 = [CustomTerm(k=(), a=(j,), b=(j,), coeff=1.0, conj_u=True) for j in range(1, 4)]
    cfg = SimConfig(n=3, q=1, N=8, mu=0.1, T=4e-3, dt=1e-3, output_stride=2,
                    nonlinearity=BilinearSpec.custom(m1, m2))
    grid = SpectralGrid(3, 8).band
    u0 = 0.5 * leray_project(random_form(grid, 1, np.random.default_rng(3)))
    simulate(cfg, u0)
    tracemalloc.start()
    try:
        simulate(cfg, u0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * grid.size) <= 3.0


@pytest.mark.parametrize(
    "n, N, slab",
    [(2, 4, None), (2, 8, None), (2, 16, None), (3, 4, None), (3, 8, None), (4, 4, None)]
    + [(2, 8, 3 * 8**3), (3, 4, 3 * 4**5)],
)
def test_sample_diagnostics_equal_whole_array_arithmetic(n, N, slab, monkeypatch):
    # max |u| sums the squared moduli in component order, bit for bit as
    # np.sum(axis=0) does; the power sum of each last-axis index is that of
    # its own samples, added in component order, whatever slab holds the
    # index.  Both hold on whole samples and in a streamed pass (_quadratic
    # with r), which takes them slab by slab of last-axis indices and adds
    # the N index sums exactly: at n = 3, N = 8 a pass of 1 row goes in
    # slabs of 6 indices and one of 3 rows in 4 slabs, and the cut budgets
    # (slab samples per pass) put a 1-row pass in slabs of 3 indices, with
    # a short last one
    if slab is not None:
        monkeypatch.setattr(spectral, "_PASS", slab)
    grid = SpectralGrid(n, N)
    rng = np.random.default_rng(10 * n + N)

    def index_sums(u, r):
        sums = np.zeros(N)
        for component in u:
            sums += [np.sum(np.abs(component[..., i]) ** r) for i in range(N)]
        return sums

    for a in (1, 2, 3):
        u = rng.standard_normal((a,) + grid.shape) + 1j * rng.standard_normal((a,) + grid.shape)
        want_max = np.sqrt(np.max(np.sum(np.abs(u) ** 2, axis=0)))
        for r in (2 * n + 1, 7.5):
            mx, power = dynamics._sample_diagnostics(u, r)
            assert mx == want_max and np.array_equal(power, index_sums(u, r))
        assert dynamics._sample_diagnostics(u) == (want_max, None)
    for q in (0, 1, 2):  # 1, n and n(n-1)/2 components
        v = random_form(grid.band, q, rng, decay=1.0)
        u = grid.band.ifft(v.data)
        want_max = np.sqrt(np.max(np.sum(np.abs(u) ** 2, axis=0)))
        for r in (2 * n + 1, 7.5):
            mx, power = dynamics._quadratic(STOKES, v, exact=False, r=r)[2]
            assert mx == want_max and power == math.fsum(index_sums(u, r))


def test_max_abs_column_matches_stored_velocities():
    # record() takes max |u| from the band samples it makes for the next
    # step; at a snapshot row that is max |u| of the stored field, also
    # where the 6 rows of [u, dbar u] go through 8 slabs (n = 3, N = 8)
    for n, T, stride in ((2, 0.05, 5), (3, 0.02, 1)):
        zeta = (0, 1) + (0,) * (2 * n - 2)
        frc = ForcingSpec(kind="single_mode", zeta=zeta, component=(1,), amplitude=0.5)
        cfg = SimConfig(n=n, q=1, N=8, mu=0.2, T=T, dt=0.01, nonlinearity=LAMB, forcing=frc, output_stride=stride)
        traj = simulate(cfg, _initial(SpectralGrid(n, 8), 1, seed=3))
        for m, u in enumerate(traj.velocities):
            want = dynamics._sample_diagnostics(u.to_physical().data)[0]
            assert traj.diagnostics["max_abs_u"][m * cfg.output_stride] == want


@pytest.mark.parametrize("case", ["lamb-forced", "m2-only-custom", "linearized"])
def test_snapshot_pressure_matches_recovery_from_scratch(case):
    # a snapshot evaluates the quadratic term on the diagnostics' samples;
    # it must give the pressure of the exact part of f - N(u) (or f - B(w, u))
    if case == "m2-only-custom":
        n, q, N, spec, forcing = 3, 2, 4, BilinearSpec.custom([], q2_custom().m2_terms), ForcingSpec()
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
            return linearized_b(_lattice(base.velocities[int(round(t / cfg.dt))]), u, spec)
    else:
        traj = simulate(cfg, u0)

        def quadratic(u, t):
            return nonlinearity(u, spec)

    for t, u, p in zip(traj.stamps, map(_lattice, traj.velocities), map(_lattice, traj.pressures)):
        F = forcing.prepare(grid, q)(float(t)) - quadratic(u, float(t))
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
