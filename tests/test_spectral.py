import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import dolbeault_ns.spectral as spectral
from dolbeault_ns import FormField, SpectralGrid, random_form
from dolbeault_ns.spectral import (
    FOURIER,
    PHYSICAL,
    apply_dealias,
    apply_inv_laplacian,
    heat_multiplier_grid,
)
from oracle import coordinate, dbar_symbol, del_symbol, heat_multiplier


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
    x1 = coordinate(grid8, 0)
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


@pytest.mark.parametrize("n, N", [(2, 8), (2, 16), (3, 4), (3, 8), (4, 4)])
def test_full_transforms_follow_numpy_axis_orders(n, N, rng):
    # forward axis 0 first, inverse last axis first (the order of
    # np.fft.ifftn), bit for bit, whichever lines go through a transposed copy
    g = SpectralGrid(n, N)
    x = rng.standard_normal((2,) + g.shape) + 1j * rng.standard_normal((2,) + g.shape)
    want = x
    for axis in range(1, x.ndim):
        want = np.fft.fft(want, axis=axis, norm="forward")
    assert np.array_equal(g.fft(x), want)
    assert np.array_equal(g.fft(x.copy(), overwrite=True), want)
    want = np.fft.ifftn(x, axes=range(1, x.ndim), norm="forward")
    assert np.array_equal(g.ifft(x), want)
    out = np.full_like(x, np.nan)
    assert g.ifft(x, out=out) is out and np.array_equal(out, want)


def test_mode_index_bounds(grid8):
    assert grid8.mode_index((4, 0, 0, 0)) == (4, 0, 0, 0)
    assert grid8.mode_index((-3, 0, 0, 0)) == (5, 0, 0, 0)
    with pytest.raises(ValueError):
        grid8.mode_index((5, 0, 0, 0))
    with pytest.raises(ValueError):
        grid8.mode_index((-4, 0, 0, 0))
    with pytest.raises(ValueError):
        grid8.mode_index((1, 0))


# -- band view ---------------------------------------------------------------------


def test_band_view_layout(grid8, rng):
    band = grid8.band
    assert band is grid8.band and band.band is band
    assert band.full is grid8 and grid8.full is grid8
    # one grid per (n, N, banded), through copy and pickle too
    assert band is not grid8 and band is SpectralGrid(2, 8, banded=True) and grid8 is SpectralGrid(2, 8)
    assert SpectralGrid(2, 8, banded=True).full is grid8 and SpectralGrid(2, 16) is not grid8
    assert copy.deepcopy(grid8) is grid8 and pickle.loads(pickle.dumps(band)) is band
    # zero mode first, then 1..N//3, then -(N//3)..-1
    assert band.freq.tolist() == [0, 1, 2, -2, -1]
    assert band.fourier_shape == (5,) * 4 and band.shape == grid8.shape
    assert band.mode_index((2, -2, 0, -1)) == (2, 3, 0, 4)
    with pytest.raises(ValueError, match="2/3-rule band"):
        band.mode_index((3, 0, 0, 0))
    assert np.all(band.dealias_mask)
    assert np.array_equal(band.zeta_sq, band.gather(grid8.zeta_sq))
    f = apply_dealias(grid8, rng.standard_normal((2,) + grid8.shape) + 0j)
    assert np.array_equal(band.scatter(band.gather(f)), f)
    assert np.array_equal(band.gather(band.scatter(band.gather(f))), band.gather(f))


@pytest.mark.parametrize("n, N", [(2, 4), (2, 8), (2, 16), (3, 4), (3, 8), (4, 4)])
# shrinking off, as in test_stepping.py; a derandomized failure reproduces as drawn
@settings(derandomize=True, deadline=None, max_examples=4, phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_band_transforms_equal_full_transforms(n, N, data):
    full = SpectralGrid(n, N)
    band = full.band
    lead = tuple(data.draw(st.lists(st.integers(1, 2), max_size=2)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def draw(shape):
        return rng.standard_normal(lead + shape) + 1j * rng.standard_normal(lead + shape)

    # forward: any samples; the band keeps exactly what apply_dealias keeps
    x = draw(full.shape)
    want = band.gather(apply_dealias(full, full.fft(x)))
    assert np.array_equal(band.fft(x), want)
    assert np.array_equal(band.fft(x.copy(), overwrite=True), want)
    # inverse: band-limited coefficients
    c = draw(band.fourier_shape)
    kept = c.copy()
    want = full.ifft(band.scatter(c))
    assert np.array_equal(band.ifft(c), want)
    assert np.array_equal(c, kept)
    # into a buffer that holds anything, as the stepping kernel's does
    out = np.full(lead + full.shape, np.nan + 1j)
    assert band.ifft(c, out=out) is out and np.array_equal(out, want)
    assert np.array_equal(c, kept)
    with pytest.raises(ValueError, match="out has shape"):
        band.ifft(c, out=out[..., :1])


def test_band_inverse_moves_its_negative_frequencies_in_slabs():
    # the 6 fields of [u, dbar u] at n = 3, N = 8 (Lamb): each axis's
    # negative frequencies move one field at a time there, so numpy's copy
    # of the overlapping source is a quarter of one component, not of six,
    # and the contiguous copies of short-run lines (_along) go in slabs of
    # the field axis too; the peak rise of the call, in sample-sized
    # components, reads 0.38, against 0.92 for one copy of all six fields
    # and 1.50 for one move of all six
    band = SpectralGrid(3, 8).band
    rng = np.random.default_rng(6)
    shape = (6,) + band.fourier_shape
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = np.empty((6,) + band.shape, dtype=np.complex128)
    band.ifft(c, out=out)
    tracemalloc.start()
    try:
        band.ifft(c, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / out[0].nbytes <= 0.45
    assert np.array_equal(out, band.full.ifft(band.scatter(c)))


def test_pass_slabs_follow_the_rows_of_the_pass():
    # a slab of a streamed pass holds at most _PASS = 3 * 2^16 samples over
    # all of the pass's rows, or one last-axis index: every pass at n = 2,
    # N <= 16 is one slab; n = 2, N = 32 goes in 16 slabs of 2
    # indices (a 2-row pass in slabs of 3); at n = 3, N = 8 a 3-row pass
    # (Stokes) goes in 4 slabs, a 4-row one ([u, dbar u] at q = 2) and a
    # 6-row one ([u, dbar u] at q = 1) in 8, so a 6-row slab buffer is 3 MiB
    for N in (4, 8, 16):
        for rows in (1, 2, 3):
            assert SpectralGrid(2, N).band.slabs(rows) == [slice(0, N)]
    assert SpectralGrid(2, 32).band.slabs(3) == [slice(i, i + 2) for i in range(0, 32, 2)]
    assert len(SpectralGrid(2, 32).band.slabs(2)) == 11
    band = SpectralGrid(3, 8).band
    assert band.slabs(3) == [slice(i, i + 2) for i in range(0, 8, 2)]
    for rows in (4, 6):
        assert band.slabs(rows) == [slice(i, i + 1) for i in range(8)]
    assert 16 * spectral.SlabStream.size(band, 6) == 3 << 20


@pytest.mark.parametrize(
    "n, N, slab, count",
    [(2, 8, None, 1), (2, 8, 3 * 8**3, 3), (2, 16, None, 1), (3, 4, 4**5, 4), (3, 8, None, 4),
     (3, 8, 3 * 8**5, 3), (4, 4, None, 1), (4, 4, 3 * 4**7, 2)],
)
def test_streamed_transforms_equal_whole_transforms(n, N, slab, count, monkeypatch):
    # a pass inverse-transforms the last axis of each of its parts once,
    # into its rows of one array, and finishes the other axes slab by slab
    # of last-axis indices; the forward transforms axes 0..2n-2 of each slab
    # into an accumulator and the last axis once.  These are the lines and
    # line orders of the whole-array transforms, so each slab's samples and
    # the accumulated coefficients are theirs bit for bit, on the band and
    # on the full lattice.  The pass has 3 rows in two parts and slab is
    # the budget per row (_PASS / 3); slabs of 3 indices leave a short last
    # one, and one slab goes the same way.  The accumulators are the first
    # rows of the last-axis inverse, which has a fourth row for 4 fields
    if slab is not None:
        monkeypatch.setattr(spectral, "_PASS", 3 * slab)
    calls, fft, ifft = [], SpectralGrid.fft, SpectralGrid.ifft

    def counted(transform):
        def call(self, *args, **kwargs):
            calls.append((transform.__name__, kwargs.get("axes")))
            return transform(self, *args, **kwargs)

        return call

    rng = np.random.default_rng(10 * n + N)
    for grid in (SpectralGrid(n, N), SpectralGrid(n, N).band):
        slabs = grid.slabs(3)
        assert len(slabs) == count and [s.start for s in slabs] == list(range(0, N, slabs[0].stop))
        most = max(spectral._PASS, 3 * N ** (2 * n - 1))
        assert slabs[-1].stop == N and all(3 * N ** (2 * n - 1) * (s.stop - s.start) <= most for s in slabs)
        last, rest = (grid.dim - 1,), tuple(range(grid.dim - 1))
        c = rng.standard_normal((3,) + grid.fourier_shape) + 1j * rng.standard_normal((3,) + grid.fourier_shape)
        x = rng.standard_normal((4,) + grid.shape) + 1j * rng.standard_normal((4,) + grid.shape)
        kept, samples, coeffs = c.copy(), grid.ifft(c), grid.fft(x)
        # the pieces on their own
        pencil = grid.ifft(c, axes=last)
        acc = np.full((4,) + pencil.shape[1:], np.nan + 0j)
        for s in slabs:
            assert np.array_equal(grid.ifft(pencil[..., s], axes=rest), samples[..., s])
            assert grid.fft(x[..., s], axes=rest, out=acc[..., s]).base is acc
        assert np.array_equal(grid.fft(acc, axes=last), coeffs)
        # and a pass, through its flat buffer
        for fields in (2, 3, 4):
            monkeypatch.setattr(SpectralGrid, "fft", counted(fft))
            monkeypatch.setattr(SpectralGrid, "ifft", counted(ifft))
            calls.clear()
            buffer = np.full(spectral.SlabStream.size(grid, 3), np.nan + 0j)
            assert buffer.size == 3 * math.prod(grid.shape[:-1]) * (slabs[0].stop - slabs[0].start)
            stream = spectral.SlabStream(grid, (c[:2], c[2:]), fields, buffer)
            assert stream.coeffs.shape == (max(3, fields),) + grid.fourier_shape[:-1] + (N,)
            assert stream.hat.base is stream.coeffs and stream.hat.shape[0] == fields
            seen = []
            for s, part in stream:
                seen.append(s)
                assert np.shares_memory(part, buffer) and np.array_equal(part, samples[..., s])
                for row in range(fields):
                    values = np.empty_like(part[0])
                    values[...] = x[row][..., s]
                    stream.forward(row, values)
            assert seen == slabs
            assert np.array_equal(stream.coefficients(), coeffs[:fields])
            assert np.array_equal(c, kept)
            per_slab = [("ifft", rest)] + [("fft", rest)] * fields
            assert calls == [("ifft", last)] * 2 + per_slab * count + [("fft", last)]
            monkeypatch.setattr(SpectralGrid, "fft", fft)
            monkeypatch.setattr(SpectralGrid, "ifft", ifft)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda grid: heat_multiplier_grid(grid, 0.0, 0.1), r"got mu=0\.0, dt=0\.1"),
        (lambda grid: heat_multiplier_grid(grid, 0.1, -1.0), r"got mu=0\.1, dt=-1\.0"),
        (lambda grid: grid.sigma(0), "direction j=0 outside 1..2"),
        (lambda grid: grid.delta(3), "direction j=3 outside 1..2"),
    ],
    ids=["heat-mu", "heat-dt", "sigma-j", "delta-j"],
)
def test_spectral_input_checks_name_the_bad_value(call, message):
    with pytest.raises(ValueError, match=message):
        call(SpectralGrid(2, 8))
