import numpy as np
import pytest

from dolbeault_ns import FormField, SpectralGrid, dbar_symbol, del_symbol, heat_multiplier, random_form
from dolbeault_ns.spectral import (
    FOURIER,
    PHYSICAL,
    apply_dealias,
    apply_inv_laplacian,
    heat_multiplier_grid,
)


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        SpectralGrid(2, 6)
    with pytest.raises(ValueError):
        SpectralGrid(2, 2)
    with pytest.raises(ValueError):
        SpectralGrid(0, 8)


def test_frequency_lattice_layout(grid8):
    # {-N/2+1, ..., N/2} with the Nyquist row at +N/2
    assert sorted(grid8.freq.tolist()) == list(range(-3, 5))
    assert grid8.freq[4] == 4


def test_transform_constant_field(grid8):
    c = 2.5 - 1.0j
    u = FormField(grid8, 0, np.full((1,) + grid8.shape, c), PHYSICAL)
    uf = u.to_fourier()
    assert uf.data[(0,) + (0,) * 4] == pytest.approx(c, rel=1e-14)
    rest = uf.data.copy()
    rest[(0,) + (0,) * 4] = 0.0
    assert np.max(np.abs(rest)) < 1e-14


def test_transform_pure_mode(grid8):
    x1 = grid8.coordinate(0)
    u = FormField(grid8, 0, np.broadcast_to(np.exp(1j * x1), (1,) + grid8.shape).copy(), PHYSICAL)
    uf = u.to_fourier()
    assert uf.data[(0,) + grid8.mode_index((1, 0, 0, 0))] == pytest.approx(1.0, abs=1e-13)
    assert np.sum(np.abs(uf.data) > 1e-12) == 1


def test_transform_round_trip(grid8, rng):
    u = random_form(grid8, 1, rng)
    phys = u.to_physical()
    assert np.max(np.abs(phys.to_fourier().data - u.data)) < 1e-12
    assert np.max(np.abs(phys.to_fourier().to_physical().data - phys.data)) < 1e-12


def test_parseval(grid8, rng):
    u = random_form(grid8, 0, rng)
    phys = u.to_physical()
    lhs = np.sum(np.abs(phys.data) ** 2) / grid8.size
    rhs = np.sum(np.abs(u.data) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_dbar_symbol_values():
    zeta_e1 = (1, 0, 0, 0)
    assert dbar_symbol(1, zeta_e1) == pytest.approx(0.5j)
    zeta_e3 = (0, 0, 1, 0)
    assert dbar_symbol(1, zeta_e3) == pytest.approx(-0.5)
    assert dbar_symbol(2, (0, 0, 0, 0)) == 0.0
    assert del_symbol(1, zeta_e1) == pytest.approx(0.5j)
    assert del_symbol(1, zeta_e3) == pytest.approx(0.5)


def test_symbol_modulus_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        zeta = tuple(int(z) for z in rng.integers(-3, 4, size=6))
        n = 3
        total = sum(4.0 * abs(dbar_symbol(j, zeta)) ** 2 for j in range(1, n + 1))
        assert total == pytest.approx(sum(z * z for z in zeta), abs=1e-12)
        for j in range(1, n + 1):
            s = dbar_symbol(j, zeta)
            expect = (zeta[j - 1] ** 2 + zeta[j - 1 + n] ** 2) / 4.0
            assert s * np.conj(s) == pytest.approx(expect, abs=1e-13)


def test_derivative_symbol_consistency(grid8, rng):
    # transforming then multiplying by sigma equals dbar on physical samples
    from dolbeault_ns import dbar

    u = random_form(grid8, 0, rng)
    via_symbols = grid8.sigma(1) * u.data[0]
    via_op = dbar(u).data[0]
    assert np.max(np.abs(via_symbols - via_op)) < 1e-13


def test_inv_laplacian_values(grid8):
    f = np.zeros((1,) + grid8.shape, complex)
    f[(0,) + grid8.mode_index((1, 0, 0, 0))] = 1.0
    f[(0,) + (0,) * 4] = 5.0
    f[(0,) + grid8.mode_index((0, 2, 0, 0))] = 1.0
    out = apply_inv_laplacian(grid8, f)
    assert out[(0,) + grid8.mode_index((1, 0, 0, 0))] == pytest.approx(4.0)
    assert out[(0,) + (0,) * 4] == 0.0
    assert out[(0,) + grid8.mode_index((0, 2, 0, 0))] == pytest.approx(1.0)


def test_dealias_cutoff(grid8):
    f = np.zeros((1,) + grid8.shape, complex)
    nyq = (0,) + grid8.mode_index((4, 0, 0, 0))
    kept = (0,) + grid8.mode_index((2, 1, 0, 0))
    f[nyq] = 1.0
    f[kept] = 1.0
    f[(0,) + (0,) * 4] = 1.0
    out = apply_dealias(grid8, f)
    assert out[nyq] == 0.0
    assert out[kept] == 1.0
    assert out[(0,) + (0,) * 4] == 1.0


def test_dealias_idempotent(grid8, rng):
    f = rng.standard_normal((2,) + grid8.shape) + 1j * rng.standard_normal((2,) + grid8.shape)
    once = apply_dealias(grid8, f)
    twice = apply_dealias(grid8, once)
    assert np.array_equal(once, twice)


def test_heat_multiplier_values():
    assert heat_multiplier(1.0, 0.1, (2, 0, 0, 0)) == pytest.approx(0.9048374180, abs=1e-9)
    assert heat_multiplier(1.0, 1.0, (1, 0, 0, 0)) == pytest.approx(0.7788007831, abs=1e-9)
    assert heat_multiplier(3.0, 0.5, (0, 0, 0, 0)) == 1.0
    with pytest.raises(ValueError):
        heat_multiplier(-1.0, 0.1, (1, 0))


def test_heat_multiplier_grid_matches_pointwise(grid8):
    E = heat_multiplier_grid(grid8, 0.7, 0.02)
    for zeta in ((0, 0, 0, 0), (1, 0, 0, 0), (2, -3, 1, 4)):
        assert E[grid8.mode_index(zeta)] == pytest.approx(heat_multiplier(0.7, 0.02, zeta), rel=1e-14)


def test_fft_worker_env_override(monkeypatch):
    monkeypatch.setenv("DOLBEAULT_NS_THREADS", "2")
    g = SpectralGrid(2, 8)
    assert g._workers == 2
    monkeypatch.setenv("DOLBEAULT_NS_THREADS", "garbage")
    assert SpectralGrid(2, 8)._workers == 1
    monkeypatch.delenv("DOLBEAULT_NS_THREADS")
    assert SpectralGrid(2, 8)._workers == 1


def test_mode_index_bounds(grid8):
    assert grid8.mode_index((4, 0, 0, 0)) == (4, 0, 0, 0)
    assert grid8.mode_index((-3, 0, 0, 0)) == (5, 0, 0, 0)
    with pytest.raises(ValueError):
        grid8.mode_index((5, 0, 0, 0))
    with pytest.raises(ValueError):
        grid8.mode_index((-4, 0, 0, 0))
    with pytest.raises(ValueError):
        grid8.mode_index((1, 0))
