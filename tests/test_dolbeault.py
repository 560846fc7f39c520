import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dolbeault_ns import (
    FormField,
    PressureConsistencyError,
    dbar,
    dbar_star,
    hodge_split,
    inv_laplacian,
    l2_inner,
    l2_norm,
    laplacian_q,
    leray_project,
    pressure_recover,
    random_form,
)
from dolbeault_ns import SpectralGrid
from dolbeault_ns.spectral import FOURIER, PHYSICAL
from oracle import dbar_component_matrix, fiber_matrix


def _mode_field(grid, q, comp, zeta, amp=1.0):
    u = FormField.zeros(grid, q, FOURIER)
    u.data[(comp,) + grid.mode_index(zeta)] = amp
    return u


def test_dbar_single_mode(grid8):
    u = _mode_field(grid8, 0, 0, (1, 0, 0, 0))
    out = dbar(u)
    idx = grid8.mode_index((1, 0, 0, 0))
    assert out.data[(0,) + idx] == pytest.approx(0.5j)
    assert np.max(np.abs(out.data[1])) == 0.0


def test_dbar_mixed_mode(grid8):
    # u = e^{i(x_1 + x_3)}: dbar_1 u = (i/2)(1 + i) u
    u = _mode_field(grid8, 0, 0, (1, 0, 1, 0))
    out = dbar(u)
    idx = grid8.mode_index((1, 0, 1, 0))
    assert out.data[(0,) + idx] == pytest.approx(0.5j * (1 + 1j))


def test_dbar_rejects_top_degree(grid8, rng):
    u = random_form(grid8, 2, rng)
    with pytest.raises(ValueError):
        dbar(u)


def test_complex_identity(grid8, grid3d, rng):
    for grid in (grid8, grid3d):
        for q in range(0, grid.n - 1):
            for _ in range(5):
                u = random_form(grid, q, rng)
                assert l2_norm(dbar(dbar(u))) < 1e-12 * l2_norm(u)


def test_dbar_star_constant_form(grid8):
    v = FormField.zeros(grid8, 1, FOURIER)
    v.data[(0,) + (0,) * 4] = 3.0
    assert l2_norm(dbar_star(v)) == 0.0


def test_dbar_star_single_mode(grid8):
    # v = e^{i x_1} dzbar_1: dbar* v = -(i/2) e^{i x_1}
    v = _mode_field(grid8, 1, 0, (1, 0, 0, 0))
    out = dbar_star(v)
    assert out.data[(0,) + grid8.mode_index((1, 0, 0, 0))] == pytest.approx(-0.5j)


def test_dbar_star_rejects_scalars(grid8, rng):
    with pytest.raises(ValueError):
        dbar_star(random_form(grid8, 0, rng))


def test_adjointness(grid8, grid3d, rng):
    for grid in (grid8, grid3d):
        for q in range(0, grid.n):
            for _ in range(5):
                u = random_form(grid, q, rng).to_physical()
                v = random_form(grid, q + 1, rng).to_physical()
                gap = abs(l2_inner(dbar(u), v) - l2_inner(u, dbar_star(v)))
                assert gap < 1e-12 * l2_norm(u) * l2_norm(v)


def test_laplacian_eigenfunction(grid8):
    u = _mode_field(grid8, 0, 0, (1, 0, 1, 0))
    out = laplacian_q(u)
    assert out.data[(0,) + grid8.mode_index((1, 0, 1, 0))] == pytest.approx(0.5)


def test_laplacian_constant(grid8):
    u = FormField.zeros(grid8, 1, FOURIER)
    u.data[:, 0, 0, 0, 0] = 1.0
    assert l2_norm(laplacian_q(u)) == 0.0


def test_laplacian_diagonalization(grid8, grid3d, rng):
    for grid in (grid8, grid3d):
        for q in range(0, grid.n + 1):
            u = random_form(grid, q, rng)
            direct = FormField(grid, q, (grid.zeta_sq / 4.0) * u.data, FOURIER)
            assert l2_norm(laplacian_q(u) - direct) < 1e-12 * l2_norm(u)


def test_inv_laplacian_inverts_on_mean_zero(grid8, rng):
    u = random_form(grid8, 1, rng)
    back = inv_laplacian(laplacian_q(u))
    assert l2_norm(back - u) < 1e-12 * l2_norm(u)


def test_leray_fixes_constants(grid8):
    u = FormField.zeros(grid8, 1, FOURIER)
    u.data[:, 0, 0, 0, 0] = [1.0, 2.0]
    out = leray_project(u)
    assert l2_norm(out - u) < 1e-14 * l2_norm(u)


def test_leray_kills_exact_forms(grid8):
    g = _mode_field(grid8, 0, 0, (1, 0, 0, 0))
    u = dbar(g)
    assert l2_norm(leray_project(u)) < 1e-13 * l2_norm(u)


def test_leray_q0_passthrough(grid8, rng):
    u = random_form(grid8, 0, rng)
    assert leray_project(u) is u


def test_projector_algebra(grid8, grid3d, rng):
    for grid in (grid3d, grid8):
        for q in range(1, grid.n):
            u = random_form(grid, q, rng)
            v = random_form(grid, q, rng)
            Pu = leray_project(u)
            assert l2_norm(leray_project(Pu) - Pu) < 1e-10 * l2_norm(u)
            gap = abs(
                l2_inner(Pu.to_physical(), v.to_physical())
                - l2_inner(u.to_physical(), leray_project(v).to_physical())
            )
            assert gap < 1e-10 * l2_norm(u) * l2_norm(v)
            assert l2_norm(dbar_star(Pu)) < 1e-10 * l2_norm(u)
            g = random_form(grid, q - 1, rng)
            dg = dbar(g)
            if l2_norm(dg) > 0:
                assert l2_norm(leray_project(dg)) < 1e-10 * l2_norm(dg)


def test_hodge_split_of_exact_form(grid8):
    g = _mode_field(grid8, 0, 0, (0, 1, 0, 0))
    u = dbar(g)
    sol, exact = hodge_split(u)
    assert l2_norm(sol) < 1e-13 * l2_norm(u)
    assert l2_norm(exact - u) < 1e-13 * l2_norm(u)


def test_hodge_split_of_solenoidal_form(grid8, rng):
    u = leray_project(random_form(grid8, 1, rng))
    sol, exact = hodge_split(u)
    assert l2_norm(sol - u) < 1e-12 * l2_norm(u)
    assert l2_norm(exact) < 1e-12 * l2_norm(u)


def test_hodge_split_reconstructs_and_is_orthogonal(grid8, grid3d, rng):
    for grid in (grid8, grid3d):
        for q in range(1, grid.n + 1):
            u = random_form(grid, q, rng)
            sol, exact = hodge_split(u)
            assert l2_norm((sol + exact) - u) < 1e-12 * l2_norm(u)
            pairing = abs(l2_inner(sol.to_physical(), exact.to_physical()))
            assert pairing < 1e-10 * l2_norm(u) ** 2


def test_fiber_matrix_properties(grid8):
    eye = fiber_matrix(grid8, 1, (0, 0, 0, 0))
    assert np.array_equal(eye, np.eye(2))
    for zeta in ((1, 0, 0, 0), (2, -1, 3, 0), (0, 1, 1, -2)):
        P = fiber_matrix(grid8, 1, zeta)
        assert np.linalg.norm(P - P.conj().T) < 1e-13
        assert np.linalg.norm(P @ P - P) < 1e-13


def test_fiber_matrix_matches_projection(grid8, rng):
    u = random_form(grid8, 1, rng)
    Pu = leray_project(u)
    for zeta in ((1, 0, 0, 0), (2, 1, -1, 0)):
        idx = grid8.mode_index(zeta)
        vec = u.data[(slice(None),) + idx]
        expect = fiber_matrix(grid8, 1, zeta) @ vec
        got = Pu.data[(slice(None),) + idx]
        assert np.max(np.abs(expect - got)) < 1e-13


def test_dbar_component_matrix_agrees_with_operator(grid8, rng):
    u = random_form(grid8, 1, rng)
    du = dbar(u)
    for zeta in ((1, 0, 0, 0), (0, 2, -1, 1)):
        idx = grid8.mode_index(zeta)
        S = dbar_component_matrix(grid8.n, 1, zeta)
        assert np.max(np.abs(S @ u.data[(slice(None),) + idx] - du.data[(slice(None),) + idx])) < 1e-13


def test_pressure_recovery_scalar_mode(grid8):
    # F = dbar g with g = e^{i x_1} recovers p = g
    g = _mode_field(grid8, 0, 0, (1, 0, 0, 0))
    F = dbar(g)
    p = pressure_recover(F)
    assert l2_norm(p - g) < 1e-12 * l2_norm(g)
    assert l2_norm(dbar(p) - F) < 1e-12 * l2_norm(F)


def test_pressure_recovery_zero(grid8):
    F = FormField.zeros(grid8, 1, FOURIER)
    assert l2_norm(pressure_recover(F)) == 0.0


def test_pressure_recovery_random_exact(grid8, grid3d, rng):
    for grid, q in ((grid8, 1), (grid3d, 1), (grid3d, 2)):
        for _ in range(5):
            g = random_form(grid, q - 1, rng)
            F = dbar(g)
            p = pressure_recover(F)
            assert l2_norm(dbar(p) - F) < 1e-10 * l2_norm(F)
            if q >= 2:
                assert l2_norm(dbar_star(p)) < 1e-12 * l2_norm(p)
            # zero-mode normalization pins the constant
            assert np.max(np.abs(p.data[(slice(None),) + (0,) * grid.dim])) == 0.0


def test_pressure_recovery_unique(grid8, rng):
    g = random_form(grid8, 0, rng)
    F = dbar(g)
    p1 = pressure_recover(F)
    p2 = pressure_recover(F.copy())
    assert np.array_equal(p1.data, p2.data)


def test_pressure_recovery_rejects_solenoidal_source(grid8, rng):
    F = leray_project(random_form(grid8, 1, rng))
    with pytest.raises(PressureConsistencyError) as err:
        pressure_recover(F)
    assert err.value.residual > 0.1


# -- the identities over shapes, on the full grid and its band view -----------------


def _pair(a, b):
    """(a, b) from Fourier coefficients (Parseval)."""
    return a.grid.volume * complex(np.vdot(b.data, a.data))


@pytest.mark.parametrize(
    "n, N, banded",
    # the full n = 4, N = 8 lattice is left out: one (0,2)-form on it takes 1.6 GB
    [(n, N, banded) for n in (2, 3, 4) for N in (4, 8) for banded in (False, True) if (n, N, banded) != (4, 8, False)],
)
# shrinking off, as in test_stepping.py; a derandomized failure reproduces as drawn
@settings(derandomize=True, deadline=None, max_examples=3, phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_operator_identities_property(n, N, banded, data):
    grid = SpectralGrid(n, N)
    grid = grid.band if banded else grid
    q = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def form(k):
        # every mode of the grid, the zero mode and Nyquist rows included
        return random_form(grid, k, rng, decay=1.0, band_limit=False, mean_zero=False)

    u, v, g = form(q), form(q + 1), form(q - 1)
    # dbar . dbar = 0
    assert l2_norm(dbar(dbar(g))) <= 1e-13 * N**2 * l2_norm(g)
    # (dbar u, v) = (u, dbar* v)
    du, dsv = dbar(u), dbar_star(v)
    gap = abs(_pair(du, v) - _pair(u, dsv))
    assert gap <= 1e-13 * (l2_norm(du) * l2_norm(v) + l2_norm(u) * l2_norm(dsv))
    # P^2 = P
    Pu = leray_project(u)
    assert l2_norm(leray_project(Pu) - Pu) <= 1e-13 * l2_norm(u)
    # Lap_q = |zeta|^2 / 4
    direct = FormField(grid, q, (grid.zeta_sq / 4.0) * u.data, FOURIER)
    assert l2_norm(laplacian_q(u) - direct) <= 1e-13 * l2_norm(direct)


@pytest.mark.parametrize("n, q", [(2, 1), (3, 1), (3, 2)])
def test_band_operators_equal_full_operators(n, q, rng):
    # one implementation serves both grids: on band-limited input the band
    # view gives the band of the full-grid result, bit for bit
    full = SpectralGrid(n, 8)
    band = full.band
    u = random_form(full, q, rng, mean_zero=False)
    ub = FormField(band, q, band.gather(u.data), FOURIER)
    F = dbar(random_form(full, q - 1, rng))
    Fb = FormField(band, q, band.gather(F.data), FOURIER)
    for op, x, xb in (
        (dbar, u, ub),
        (dbar_star, u, ub),
        (leray_project, u, ub),
        (inv_laplacian, u, ub),
        (laplacian_q, u, ub),
        (pressure_recover, F, Fb),
    ):
        out, outb = op(x), op(xb)
        assert outb.grid == band and outb.rep == FOURIER
        assert np.array_equal(outb.data, band.gather(out.data)), op.__name__
        assert np.array_equal(band.scatter(outb.data), out.data), op.__name__
    assert l2_norm(ub) == pytest.approx(l2_norm(u), rel=1e-14)


@pytest.mark.parametrize(
    "call, message",
    [(hodge_split, "hodge_split needs 1 <= q <= n, got q=0"),
     (pressure_recover, "pressure recovery needs 1 <= q <= n, got q=0")],
    ids=["hodge-split", "pressure-recover"],
)
def test_dolbeault_input_checks_name_the_bad_value(grid8, call, message):
    with pytest.raises(ValueError, match=message):
        call(random_form(grid8, 0, np.random.default_rng(0)))
