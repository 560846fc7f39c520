import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import dolbeault_ns.norms as norms
from dolbeault_ns import (
    BilinearSpec,
    FormField,
    ForcingSpec,
    SimConfig,
    SpectralGrid,
    l2_norm,
    leray_project,
    random_form,
    simulate,
)
from dolbeault_ns.norms import (
    NormReport,
    _alpha_indices,
    _simpson,
    _time_derivative,
    _uniform_spacing,
    bochner_for,
    bochner_pre,
    bochner_vel,
    energy_report,
    lps_exponent,
    lps_integral,
    lr_norm,
    sobolev_hs,
)
from dolbeault_ns.spectral import FOURIER, PHYSICAL
from oracle import time_derivative


def _mode_field(grid, q, comp, zeta, amp=1.0):
    u = FormField.zeros(grid, q, FOURIER)
    u.data[(comp,) + grid.mode_index(zeta)] = amp
    return u


def _decaying_mode_series(grid, zeta, amp, lam, T, M, q=1, comp=0):
    stamps = np.linspace(0.0, T, M + 1)
    fields = []
    for t in stamps:
        fields.append(_mode_field(grid, q, comp, zeta, amp * np.exp(-lam * t)))
    return stamps, fields


# -- sobolev and lebesgue ------------------------------------------------------------


def test_sobolev_constant_field(grid8):
    c = 3.0 - 4.0j
    u = FormField.zeros(grid8, 1, FOURIER)
    u.data[(0,) + (0,) * 4] = c
    for s in (0, 1, 3):
        assert sobolev_hs(u, s) == pytest.approx(abs(c) * grid8.volume**0.5, rel=1e-13)


def test_sobolev_single_mode_weight(grid8):
    u = _mode_field(grid8, 1, 0, (1, 0, 0, 0))
    assert sobolev_hs(u, 1) == pytest.approx(np.sqrt(2.0) * sobolev_hs(u, 0), rel=1e-13)


def test_sobolev_zero_order_is_l2(grid8, rng):
    u = random_form(grid8, 1, rng)
    assert sobolev_hs(u, 0) == pytest.approx(l2_norm(u), rel=1e-12)
    with pytest.raises(ValueError):
        sobolev_hs(u, -1)


def test_lr_norm_constant(grid8):
    u = FormField(grid8, 0, np.full((1,) + grid8.shape, 2.0 + 0j), PHYSICAL)
    for r in (1.0, 2.0, 4.0, 7.5):
        assert lr_norm(u, r) == pytest.approx(2.0 * grid8.volume ** (1.0 / r), rel=1e-12)


def test_lr_norm_r2_matches_sobolev(grid8, rng):
    u = random_form(grid8, 1, rng)
    assert lr_norm(u, 2.0) == pytest.approx(sobolev_hs(u, 0), rel=1e-12)


def test_lr_norm_homogeneous(grid8, rng):
    u = random_form(grid8, 1, rng).to_physical()
    assert lr_norm(2.0 * u, 5.0) == pytest.approx(2.0 * lr_norm(u, 5.0), rel=1e-12)
    with pytest.raises(ValueError):
        lr_norm(u, 0.5)


# -- strong-solution monitor -----------------------------------------------------------


def test_lps_exponent_relation():
    # 2/s + 2n/r = 1
    for n, r in ((2, 5.0), (2, 8.0), (3, 7.0)):
        s = lps_exponent(n, r)
        assert 2.0 / s + 2.0 * n / r == pytest.approx(1.0, rel=1e-13)
    for r in (4.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            lps_exponent(2, r)


def test_lps_integral_zero_and_scaling(grid8):
    stamps, fields = _decaying_mode_series(grid8, (0, 1, 0, 0), 0.0, 0.1, 1.0, 8)

    class T:
        pass

    traj = T()
    traj.stamps, traj.velocities = stamps, fields
    assert lps_integral(traj, 5.0) == 0.0

    stamps, fields = _decaying_mode_series(grid8, (0, 1, 0, 0), 1.0, 0.1, 1.0, 64)
    traj.stamps, traj.velocities = stamps, fields
    base = lps_integral(traj, 5.0)
    traj.velocities = [2.0 * f for f in fields]
    s = lps_exponent(2, 5.0)
    assert lps_integral(traj, 5.0) == pytest.approx(2.0**s * base, rel=1e-12)


def test_lps_integral_grows_toward_singularity(grid8):
    # synthetic trajectory with |u(t)| ~ (T* - t)^{-1/2}: the monitor must
    # grow without bound as snapshots approach the programmed blow-up time
    t_star, r = 1.0, 5.0
    vals = []
    for delta in (0.3, 0.1, 0.03, 0.01):
        stamps = np.linspace(0.0, t_star - delta, 65)
        fields = [
            _mode_field(grid8, 1, 0, (0, 1, 0, 0), (t_star - t) ** -0.5) for t in stamps
        ]

        class T:
            pass

        traj = T()
        traj.stamps, traj.velocities = stamps, fields
        vals.append(lps_integral(traj, r))
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 50.0 * vals[0]


def test_lps_integral_analytic_decay(grid8):
    # |u(t)| = a e^{-lam t} uniformly: integrand (a e^{-lam t} vol^{1/r})^s
    a, lam, T_end, r = 1.3, 0.05, 1.0, 5.0
    s = lps_exponent(2, r)
    M = 512
    stamps, fields = _decaying_mode_series(grid8, (0, 1, 0, 0), a, lam, T_end, M)

    class T:
        pass

    traj = T()
    traj.stamps, traj.velocities = stamps, fields
    got = lps_integral(traj, r)
    analytic = (a * grid8.volume ** (1.0 / r)) ** s * -np.expm1(-s * lam * T_end) / (s * lam)
    assert got == pytest.approx(analytic, rel=1e-6)


# -- mixed space-time norms --------------------------------------------------------------


def test_bochner_vel_constant_everything(grid8):
    c = 2.0
    stamps = np.linspace(0, 1.0, 5)
    u = FormField.zeros(grid8, 1, FOURIER)
    u.data[(0,) + (0,) * 4] = c
    fields = [u] * 5
    # only the (i, alpha, j) = (0, 0, 0) term survives: C-part = |c|^2 vol
    for k, s in ((0, 0), (1, 1), (2, 1)):
        val = bochner_vel((stamps, fields), k, s, mu=0.7)
        assert val == pytest.approx(c * grid8.volume**0.5, rel=1e-12)


def test_bochner_vel_k0_s0_specialization(grid8, rng):
    # reduces to (||u||_C^2 + mu ||grad u||_L2^2)^{1/2}
    mu = 0.3
    stamps = np.linspace(0, 1.0, 9)
    rngs = np.random.default_rng(4)
    fields = [random_form(grid8, 1, rngs, decay=2.0) for _ in stamps]
    val = bochner_vel((stamps, fields), 0, 0, mu=mu)

    c_part = max(l2_norm(f) ** 2 for f in fields)
    grads = [
        grid8.volume * float(np.sum(grid8.zeta_sq * np.sum(np.abs(f.data) ** 2, axis=0)))
        for f in fields
    ]
    expect = np.sqrt(c_part + mu * np.trapezoid(grads, stamps))
    assert val == pytest.approx(expect, rel=1e-12)


def _analytic_bochner(grid, zeta, a, lam, T_end, k, s, mu, l2_weight=None):
    zsq = float(sum(z * z for z in zeta))
    total = 0.0
    weight = mu if l2_weight is None else l2_weight

    def alphas(maxo):
        for tot in range(maxo + 1):
            for combo in itertools.combinations_with_replacement(range(grid.dim), tot):
                counts = [0] * grid.dim
                for x in combo:
                    counts[x] += 1
                yield tuple(counts)

    for j in range(s + 1):
        for alpha in alphas(2 * s - 2 * j):
            W = 1.0
            for axis, p in enumerate(alpha):
                if p:
                    W *= float(zeta[axis]) ** (2 * p)
            for i in range(k + 1):
                C = zsq**i * W * lam ** (2 * j) * a * a * grid.volume
                L = (
                    zsq ** (i + 1)
                    * W
                    * lam ** (2 * j)
                    * a
                    * a
                    * grid.volume
                    * -np.expm1(-2 * lam * T_end)
                    / (2 * lam)
                )
                total += C + weight * L
    return np.sqrt(total)


def test_bochner_vel_heat_decay_analytic(grid8):
    zeta, a, lam, T_end, mu = (0, 1, 0, 0), 1.25, 0.35, 1.0, 0.7
    for k, s in ((0, 0), (1, 0), (0, 1), (1, 1)):
        expect = _analytic_bochner(grid8, zeta, a, lam, T_end, k, s, mu)
        stamps, fields = _decaying_mode_series(grid8, zeta, a, lam, T_end, 160)
        got = bochner_vel((stamps, fields), k, s, mu=mu)
        assert got == pytest.approx(expect, rel=3e-5)


def test_bochner_time_stencil_second_order(grid8):
    # halving the snapshot spacing shrinks the s>=1 norm error ~4x
    zeta, a, lam, T_end, mu = (0, 1, 0, 0), 1.0, 0.5, 1.0, 1.0
    expect = _analytic_bochner(grid8, zeta, a, lam, T_end, 0, 1, mu)
    errs = []
    for M in (40, 80, 160):
        stamps, fields = _decaying_mode_series(grid8, zeta, a, lam, T_end, M)
        errs.append(abs(bochner_vel((stamps, fields), 0, 1, mu=mu) - expect))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_bochner_vel_monotone_in_orders(grid8):
    rngs = np.random.default_rng(11)
    stamps = np.linspace(0, 1.0, 9)
    fields = [random_form(grid8, 1, rngs, decay=3.0) for _ in stamps]
    vals = {}
    for k, s in itertools.product((0, 1, 2), (0, 1)):
        vals[k, s] = bochner_vel((stamps, fields), k, s, mu=0.5)
    for k in (0, 1):
        assert vals[k + 1, 0] >= vals[k, 0]
        assert vals[k + 1, 1] >= vals[k, 1]
    for k in (0, 1, 2):
        assert vals[k, 1] >= vals[k, 0]


def test_bochner_vel_requires_enough_snapshots(grid8):
    stamps, fields = _decaying_mode_series(grid8, (0, 1, 0, 0), 1.0, 0.1, 1.0, 1)
    with pytest.raises(ValueError):
        bochner_vel((stamps, fields), 0, 1, mu=1.0)


def test_bochner_for_time_independent(grid8, rng):
    # L2(I, .) pieces of a constant-in-time f are sqrt(T) times the spatial norm
    f = random_form(grid8, 1, rng, decay=2.0)
    T_end = 4.0
    stamps = np.linspace(0, T_end, 9)
    val = bochner_for((stamps, [f] * 9), 0, 0)
    c_part = l2_norm(f) ** 2
    grad = grid8.volume * float(np.sum(grid8.zeta_sq * np.sum(np.abs(f.data) ** 2, axis=0)))
    assert val == pytest.approx(np.sqrt(c_part + T_end * grad), rel=1e-12)


def test_bochner_pre_case_split(grid8):
    # n = 2: thresholds 2s + k <= 2, = 3, > 3 select the three branches
    lam, T_end = 0.3, 1.0
    stamps, fields = _decaying_mode_series(grid8, (1, 0, 0, 0), 1.0, lam, T_end, 32, q=0)

    base_only = bochner_pre((stamps, fields), 0, 1)      # 2s+k = 2 <= n
    with_l2 = bochner_pre((stamps, fields), 1, 1)        # 2s+k = 3 = n+1
    with_both = bochner_pre((stamps, fields), 2, 1)      # 2s+k = 4 > n+1

    cb = np.array([np.exp(-lam * t) for t in stamps])
    l2_cb = np.sqrt(np.trapezoid(cb**2, stamps))

    from dolbeault_ns import dbar

    base_1 = bochner_for((stamps, [dbar(p) for p in fields]), 1, 1)
    base_2 = bochner_for((stamps, [dbar(p) for p in fields]), 2, 1)
    assert with_l2 == pytest.approx(base_1 + l2_cb, rel=1e-12)
    assert with_both == pytest.approx(base_2 + l2_cb + cb[0], rel=1e-12)
    base_0 = bochner_for((stamps, [dbar(p) for p in fields]), 0, 1)
    assert base_only == pytest.approx(base_0, rel=1e-12)


def test_bochner_pre_zero_trajectory(grid8):
    stamps = np.linspace(0, 1, 5)
    fields = [FormField.zeros(grid8, 0, FOURIER) for _ in stamps]
    assert bochner_pre((stamps, fields), 0, 1) == 0.0


def test_bochner_series_are_validated(grid8, grid3d):
    stamps = np.linspace(0.0, 1.0, 5)
    fields = [random_form(grid8, 1, np.random.default_rng(m)) for m in range(5)]
    bad_series = {
        "bidegrees": (stamps, fields[:4] + [FormField.zeros(grid8, 0, FOURIER)]),
        "time stamp": (stamps[:4], fields),
        "grids": (stamps, fields[:4] + [random_form(grid3d, 1, np.random.default_rng(5))]),
    }
    for what, series in bad_series.items():
        for norm in (lambda x: bochner_vel(x, 0, 1, mu=0.5), lambda x: bochner_for(x, 0, 1)):
            with pytest.raises(ValueError, match=what):
                norm(series)
    with pytest.raises(ValueError, match="time stamp"):
        bochner_pre((stamps[:4], [FormField.zeros(grid8, 0, FOURIER)] * 5), 0, 1)
    for mu in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="mu must be finite"):
            bochner_vel((stamps, fields), 0, 1, mu=mu)
    assert 0.0 < bochner_vel((stamps, fields), 0, 1, mu=0.0) < bochner_vel((stamps, fields), 0, 1, mu=0.5)


def _reference_mixed_norm_sq(stamps, fields, k: int, s: int, l2_weight: float, apply=None) -> float:
    """A field-by-field evaluation of the mixed scales over every mode of
    the fields' grid, on the whole series at once, kept as the oracle of
    norms._mixed_norm_sq (which streams the snapshots and makes one matrix
    product per multi-index)."""
    if k < 0 or s < 0:
        raise ValueError("k and s must be nonnegative")
    if len(fields) < 2 * s + 1:
        raise ValueError(f"need at least {2 * s + 1} snapshots for s = {s}")
    h = _uniform_spacing(stamps)
    if apply is not None:
        fields = [apply(f) for f in fields]
    grid = fields[0].grid
    vol = grid.volume
    zsq = grid.zeta_sq
    data = [f.to_fourier().data for f in fields]

    total = 0.0
    for j in range(s + 1):
        dseries = time_derivative(data, j, h)
        densities = [np.sum(np.abs(d) ** 2, axis=0) for d in dseries]
        for alpha in _alpha_indices(grid.dim, 2 * s - 2 * j):
            weight = np.ones((), dtype=float)
            for axis, power in enumerate(alpha):
                if power:
                    weight = weight * grid.axis_frequency(axis).astype(float) ** (2 * power)
            moments = np.empty((k + 2, len(densities)))
            for m, D in enumerate(densities):
                WD = weight * D
                acc = WD
                moments[0, m] = vol * float(np.sum(acc))
                for i in range(1, k + 2):
                    acc = acc * zsq
                    moments[i, m] = vol * float(np.sum(acc))
            for i in range(k + 1):
                total += float(np.max(moments[i]))
                total += l2_weight * float(np.trapezoid(moments[i + 1], stamps))
    return total


def _norm_of(scale, series, k, s):
    if scale == "vel":
        return bochner_vel(series, k, s, mu=0.7)
    if scale == "for":
        return bochner_for(series, k, s)
    return bochner_pre(series, k, s)


@pytest.mark.parametrize("n, N", [(2, 4), (2, 8), (3, 4), (3, 8)])
@pytest.mark.parametrize("physical", [False, True])
# no shrink phase: a derandomized failure reproduces as drawn
@settings(derandomize=True, deadline=None, max_examples=4, phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_mixed_norms_match_full_lattice_oracle(n, N, physical, data):
    scale = data.draw(st.sampled_from(["vel", "for", "pre"]))
    band_limit = data.draw(st.booleans())
    # at n = 3, N = 8 the oracle sums 239 multi-indices over all 8^6 modes
    # for s = 2, seconds per example; that corner stays at s = 0 and few
    # snapshots
    big = (n, N) == (3, 8)
    s = data.draw(st.integers(0, 0 if big else 2))
    k = data.draw(st.integers(0, 2))
    # a pressure is a (0,q-1)-form; its dbar is what the scale measures
    q = data.draw(st.integers(0, n - 1 if scale == "pre" else n))
    snapshots = data.draw(st.integers(max(2, 2 * s + 1), 3 if big else 9))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    grid = SpectralGrid(n, N)
    stamps = np.linspace(0.0, 0.5, snapshots)
    fields = [random_form(grid, q, rng, decay=1.0, band_limit=band_limit) for _ in stamps]
    if physical:
        fields = [f.to_physical() for f in fields]
    # a band-limited series also on the band view, where a run stores it:
    # the same norm as on the full lattice
    band_view = band_limit and data.draw(st.booleans())
    if band_view:
        lattice = _norm_of(scale, (stamps, fields), k, s)
        fields = [f.on(grid.band) for f in fields]
    got = _norm_of(scale, (stamps, fields), k, s)
    with mock.patch.object(norms, "_mixed_norm_sq", _reference_mixed_norm_sq):
        want = _norm_of(scale, (stamps, fields), k, s)
    assert want > 0.0
    assert abs(got - want) <= 1e-13 * want
    if band_view:
        assert abs(got - lattice) <= 1e-15 * lattice


@pytest.mark.parametrize("scale", ["vel", "for", "pre"])
def test_mixed_norms_of_order_three_match_full_lattice_oracle(scale):
    # the drawn examples above stop at s = 2; s = 3 also reaches j = 3, the
    # streamed j = 1 stencil fed by the streamed j = 2 one
    grid = SpectralGrid(2, 4)
    rng = np.random.default_rng(13)
    stamps = np.linspace(0.0, 0.5, 9)
    fields = [random_form(grid, 0 if scale == "pre" else 1, rng, decay=1.0) for _ in stamps]
    got = _norm_of(scale, (stamps, fields), 1, 3)
    with mock.patch.object(norms, "_mixed_norm_sq", _reference_mixed_norm_sq):
        want = _norm_of(scale, (stamps, fields), 1, 3)
    assert want > 0.0
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
def test_streamed_time_derivative_equals_list_oracle(j):
    rng = np.random.default_rng(j)
    shortest = {0: 1, 1: 3}.get(j, 4)
    for length in range(shortest, 13):
        series = [rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7)) for _ in range(length)]
        want = time_derivative(series, j, 0.125)
        got = list(_time_derivative(iter(series), j, 0.125))
        assert len(got) == len(want) == length
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), (j, length)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_streamed_time_derivative_rejects_short_series(j):
    shortest = 3 if j == 1 else 4
    for length in range(shortest):
        series = [np.ones((2, 5)) * m for m in range(length)]
        with pytest.raises(ValueError) as want:
            time_derivative(series, j, 0.5)
        with pytest.raises(ValueError) as got:
            list(_time_derivative(series, j, 0.5))
        assert str(got.value) == str(want.value)


def test_mixed_norms_peak_memory_is_a_fraction_of_the_series():
    # 101 band snapshots at n = 2, N = 8: the norms hold one (snapshots x S)
    # density matrix (a quarter of the velocity series, half of the
    # pressure series) and the stencil's window of a few snapshots, never a
    # copy of the series (whole-series code peaked at 3.27x and 8.56x; the
    # streamed code reads 0.29x and 0.64x, 0.30x and 0.66x while each
    # derivative lived until the stencil had formed the next)
    band = SpectralGrid(2, 8).band
    rng = np.random.default_rng(0)
    stamps = np.linspace(0.0, 1.0, 101)
    cases = (
        (1, lambda x: bochner_vel(x, 0, 1, mu=0.5), 0.35),
        (0, lambda x: bochner_pre(x, 0, 1), 0.75),
    )
    for q, norm, bound in cases:
        fields = [random_form(band, q, rng) for _ in stamps]
        nbytes = sum(f.data.nbytes for f in fields)
        norm((stamps, fields))  # the grid's cached arrays are not the norm's
        tracemalloc.start()
        try:
            norm((stamps, fields))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * nbytes, (q, peak / nbytes)


@pytest.mark.parametrize("n, N", [(2, 4), (2, 8), (3, 4), (3, 8)])
@pytest.mark.parametrize("physical", [False, True])
def test_mixed_norms_on_band_view_equal_full_lattice(n, N, physical):
    # the drawn examples above reach the band view in some corners only;
    # here every (n, N) and representation has it, on all three scales
    grid = SpectralGrid(n, N)
    rng = np.random.default_rng(7 * n + N)
    stamps = np.linspace(0.0, 0.5, 3)
    fields = [random_form(grid, 1, rng, decay=1.0) for _ in stamps]
    if physical:
        fields = [f.to_physical() for f in fields]
    band = [f.on(grid.band) for f in fields]
    assert all(f.grid is grid.band for f in band)
    for scale in ("vel", "for", "pre"):
        lattice = _norm_of(scale, (stamps, fields), 1, 1)
        assert lattice > 0.0
        assert abs(_norm_of(scale, (stamps, band), 1, 1) - lattice) <= 1e-15 * lattice, scale


def test_mixed_norms_of_zero_series_are_exactly_zero(grid8):
    for grid, q in ((grid8, 1), (SpectralGrid(3, 4), 2)):
        stamps = np.linspace(0.0, 1.0, 5)
        zeros = [FormField.zeros(grid, q, FOURIER) for _ in stamps]
        for k, s in ((0, 0), (1, 1), (2, 2)):
            assert bochner_vel((stamps, zeros), k, s, mu=0.5) == 0.0
            assert bochner_for((stamps, [z.to_physical() for z in zeros]), k, s) == 0.0
            assert bochner_pre((stamps, [FormField.zeros(grid, q - 1, FOURIER)] * 5), k, s) == 0.0


# -- energy report --------------------------------------------------------------------


def _quick_run(grid, rng, spec, mu=0.1, T=0.5, dt=0.01, stride=10):
    u0 = leray_project(random_form(grid, 1, rng, decay=3.0))
    phys = u0.to_physical()
    mx = np.sqrt(np.max(np.sum(np.abs(phys.data) ** 2, axis=0)))
    u0 = (1.0 / mx) * u0
    cfg = SimConfig(n=grid.n, q=1, N=grid.N, mu=mu, T=T, dt=dt, nonlinearity=spec, output_stride=stride)
    return simulate(cfg, u0)


def test_energy_report_zero_run(grid8):
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.1, dt=0.01, output_stride=5)
    traj = simulate(cfg, FormField.zeros(grid8, 1, FOURIER))
    rep = energy_report(traj)
    assert rep.values["u_norm_0qT"] == 0.0
    assert rep.values["energy_balance_residual"] == 0.0
    assert rep.values["lps_value"] == 0.0


def test_energy_report_stokes_decay(grid8, rng):
    traj = _quick_run(grid8, rng, BilinearSpec.stokes(), mu=1.0, T=0.5, dt=0.002, stride=25)
    rep = energy_report(traj)
    e0 = traj.diagnostics["energy"][0]
    assert abs(rep.values["energy_balance_residual"]) < 1e-8 * e0
    u0_norm = np.sqrt(2.0 * e0)
    assert rep.values["u_norm_0qT"] <= u0_norm * (1 + 1e-8)
    assert rep.values["u_sup_l2"] <= u0_norm * (1 + 1e-8)
    assert rep.values["constraint_residual_max"] < 1e-10


def test_energy_report_lamb_nonincreasing(grid8, rng):
    traj = _quick_run(grid8, rng, BilinearSpec.lamb())
    energy = traj.diagnostics["energy"]
    assert np.all(np.diff(energy) <= 1e-12 * energy[0])
    rep = energy_report(traj)
    assert np.isfinite(rep.values["lps_value"])


def test_energy_report_balance_refines_second_order(grid8, rng):
    u0 = leray_project(random_form(grid8, 1, rng, decay=3.0))
    phys = u0.to_physical()
    u0 = (1.0 / np.sqrt(np.max(np.sum(np.abs(phys.data) ** 2, axis=0)))) * u0

    residuals = []
    for dt, stride in ((0.01, 10), (0.005, 20), (0.0025, 40)):
        cfg = SimConfig(n=2, q=1, N=8, mu=0.1, T=0.5, dt=dt, nonlinearity=BilinearSpec.lamb(), output_stride=stride)
        rep = energy_report(simulate(cfg, u0))
        residuals.append(abs(rep.values["energy_balance_residual"]))
    assert 3.2 < residuals[0] / residuals[1] < 4.8
    assert 3.2 < residuals[1] / residuals[2] < 4.8


def test_energy_report_with_forcing_work_term(grid8, rng):
    from dolbeault_ns import ForcingSpec

    frc = ForcingSpec(kind="single_mode", zeta=(0, 1, 0, 0), component=(1,), amplitude=0.2)
    u0 = leray_project(random_form(grid8, 1, rng, decay=3.0))
    cfg = SimConfig(n=2, q=1, N=8, mu=0.5, T=0.2, dt=0.002, nonlinearity=BilinearSpec.stokes(),
                    forcing=frc, output_stride=4)
    traj = simulate(cfg, u0)
    rep = energy_report(traj)
    e0 = traj.diagnostics["energy"][0]
    # work term recomputed at snapshot resolution: residual small but not zero
    assert abs(rep.values["energy_balance_residual"]) < 1e-4 * max(e0, 1.0)


def _stamps(spacing, size, rng):
    """Increasing stamps: uniform, jittered, or uniform and then refined by
    an integer factor from some step on, as a cfl_mode="shrink" run writes
    its diagnostics column t."""
    dt = float(rng.uniform(1e-4, 1e-1))
    if spacing == "uniform":
        return np.arange(size) * dt
    if spacing == "jittered":
        return np.cumsum(dt * rng.uniform(0.1, 2.0, size))
    coarse = int(rng.integers(1, size))
    fine = dt / int(rng.integers(2, 40))
    t0 = (coarse - 1) * dt
    return np.concatenate((np.arange(coarse) * dt, [t0 + m * fine + fine for m in range(size - coarse)]))


@pytest.mark.parametrize("size", range(2, 42))
@pytest.mark.parametrize("spacing", ["uniform", "jittered", "refined"])
@settings(derandomize=True, deadline=None, max_examples=4, phases=(Phase.explicit, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1))
def test_simpson_equals_scipy_bitwise(size, spacing, seed):
    from scipy.integrate import simpson

    rng = np.random.default_rng(seed)
    x = _stamps(spacing, size, rng)
    y = rng.standard_normal(size) * 10.0 ** rng.integers(-12, 6)
    assert np.array_equal(_simpson(y, x), simpson(y, x=x))


def _shrink_run(grid):
    """A run whose force drives max |u| past the CFL bound at t = 0.02:
    from there on the step is refined, so the diagnostics stamps are not
    uniform."""
    frc = ForcingSpec(kind="single_mode", zeta=(0, 1, 0, 0), component=(1,), amplitude=2e4)
    cfg = SimConfig(n=2, q=1, N=8, mu=0.1, T=0.05, dt=1e-3, forcing=frc, output_stride=5, cfl_mode="shrink")
    traj = simulate(cfg, FormField.zeros(grid, 1, FOURIER))
    spacing = np.diff(traj.diagnostics["t"])
    assert spacing.max() > 1.5 * spacing.min()
    return traj


def test_energy_report_of_shrink_run_equals_scipy_simpson(grid8):
    from scipy.integrate import simpson

    traj = _shrink_run(grid8)
    got = energy_report(traj).values
    with mock.patch.object(norms, "_simpson", lambda y, x: simpson(y, x=x)):
        want = energy_report(traj).values
    assert got == want


def test_interval_rows_are_the_argmin_rows(grid8):
    # energy_report's binary search finds the rows np.argmin(|t - stamp|)
    # finds, the earlier of two equally near ones: on a shrink run, and on
    # long series with stamps on rows, between rows, at midpoints and
    # outside the series
    def argmin_rows(t, stamps):
        return [int(np.argmin(np.abs(t - stamp))) for stamp in stamps]

    traj = _shrink_run(grid8)
    t = traj.diagnostics["t"]
    assert norms._nearest_rows(t, traj.stamps) == argmin_rows(t, traj.stamps)
    rng = np.random.default_rng(3)
    for spacing in ("uniform", "jittered", "refined"):
        t = _stamps(spacing, 10_000, rng)
        stamps = np.concatenate(
            (t[::9], 0.5 * (t[:-1:11] + t[1::11]), rng.uniform(t[0] - 1.0, t[-1] + 1.0, 500), [t[0], t[-1]])
        )
        assert norms._nearest_rows(t, stamps) == argmin_rows(t, stamps)


def test_norm_report_serialization():
    rep = NormReport(values={"a": 1.0}, params={"k": 0}, dt=0.1)
    doc = rep.to_json()
    assert doc["values"]["a"] == 1.0
    assert doc["stencil_order"] == 2
    assert "a" in rep.dumps()


def _bare_series(stamps):
    band = SpectralGrid(2, 8).band
    rng = np.random.default_rng(1)
    return np.asarray(stamps), [random_form(band, 1, rng) for _ in stamps]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bochner_vel(_bare_series([0.0]), 0, 0, mu=0.1), "at least two snapshots, got 1"),
        (lambda: bochner_vel(_bare_series([0.0, 0.1, 0.3]), 0, 0, mu=0.1),
         r"not uniformly spaced in time: spacings \[0\.1 0\.2\]"),
        (lambda: bochner_vel(_bare_series([0.0, 0.1, 0.2]), -1, 0, mu=0.1), "got k=-1, s=0"),
        (lambda: bochner_vel(_bare_series([0.0, 0.1, 0.2]), 0, -2, mu=0.1), "got k=0, s=-2"),
        (lambda: bochner_vel(_bare_series([0.0, 0.1, 0.2]), 0, 0), "needs an explicit mu, got mu=None"),
    ],
    ids=["one-snapshot", "uneven-spacing", "negative-k", "negative-s", "bare-series-mu"],
)
def test_norms_input_checks_name_the_bad_value(call, message):
    with pytest.raises(ValueError, match=message):
        call()
