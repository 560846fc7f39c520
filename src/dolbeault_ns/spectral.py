"""Torus geometry and FFT kernels.

The computational domain is the flat torus [0, 2*pi)^{2n}, identified with
the complex n-torus through z_j = x_j + i*x_{j+n}.  Scalar fields are
complex arrays of shape (N,)*2n, sampled on the uniform grid or given by
their Fourier coefficients on the integer frequency lattice

    zeta in {-N/2 + 1, ..., N/2}^{2n},

stored in standard FFT layout with the Nyquist row assigned to +N/2.
Transforms are forward-normalized: the coefficient of e^{i zeta.x} equals
the analytic mode amplitude, so a constant field has coefficient c at
zeta = 0 and round trips are exact to machine precision.

Every state the solver steps is band-limited by the 2/3 rule (Orszag,
J. Atmos. Sci. 28 (1971)): only modes with |zeta_a| <= N/3 on every axis
are nonzero.  SpectralGrid.band is a view of the grid with the same
samples whose Fourier axes hold just those M = 2 (N // 3) + 1 frequencies,
zero mode first, then 1..N//3, then -(N//3)..-1; a run lives on it, and
SpectralGrid.full leads back to the full lattice.

The FFT backend is numpy.fft: every transform is one in-place 1-D
np.fft.fft or np.fft.ifft per grid axis, and the full grid runs the band
view's loops with M = N, so nothing is pruned.  The forward transform goes
axis 0 first, the order scipy.fft.fftn uses; on a band view it moves each
axis's band to the first M places right after that axis's transform, and
later axes transform only the lines whose earlier axes are in the band.
The inverse goes last axis first, the order np.fft.ifftn uses, in one
padded array: the band sits in the corner, each axis's negative
frequencies move to the top of the axis just before its turn, and only
the lines whose untransformed (outer) axes are in the band are
transformed; the others are all zero.  The inverse goes last axis first
because numpy's FFT loop looks up its plan once per run of evenly spaced
lines: pruning the outer axes keeps the runs of the inner axes whole,
while axis 0 first made the band inverse at n = 3, N = 8 about 2.5 times
slower.  The band moves and the contiguous copies of lines whose runs are
still short (see _move and _along) go in slabs of the batch axis, so
each copy holds about one slab (_SLAB samples), not the whole batch's.
Each line sees the same arithmetic in both views, so a band inverse
equals the full inverse of the zero-padded coefficients, and a band
forward equals the full forward transform followed by apply_dealias, bit
for bit.

fft and ifft take the grid axes to transform (axes), so one loop serves
the whole array and the split of a streamed pass (SlabStream, the slab
decomposition of multidimensional FFTs; Pekurovsky, SIAM J. Sci. Comput.
34 (2012)).  A pass inverse-transforms the last axis once, over the
M^(2n-1) lines of the band, and the other axes one slab of last-axis
indices at a time (at most _PASS samples over all of the pass's rows);
the forward goes axes 0..2n-2 slab by slab into an accumulator, and the
last axis once at the end.  These are the lines and line orders of the
whole-array transforms, so streamed samples and coefficients are theirs
bit for bit.  A pass of one slab (every pass at n = 2, N <= 16) goes the
same way: a pass of p parts and f fields over k slabs makes p + k inverse
calls and k f + 1 forward calls.  The 2/3-rule band keeps the last-axis
halves, which also hold the accumulators, small: (M/N)^(2n-1) of a
component, 0.1 at n = 3.

All derivative action is diagonal here.  The one-dimensional Cauchy-Riemann
operator along the j-th complex direction,

    dbar_j = (d/dx_j + i d/dx_{j+n}) / 2,

multiplies the mode e^{i zeta.x} by sigma_j(zeta) = (i/2)(zeta_j + i zeta_{j+n});
its conjugate companion del_j = (d/dx_j - i d/dx_{j+n}) / 2 has symbol
delta_j(zeta) = (i/2)(zeta_j - i zeta_{j+n}).  Summing, 4 sum_j |sigma_j|^2
= |zeta|^2, which is why the form Laplacian reduces to the scalar
multiplier |zeta|^2 / 4 (see dolbeault.py).
"""

import functools
import math

import numpy as np

PHYSICAL = "physical"
FOURIER = "fourier"

# fewest samples per run of lines for which numpy's FFT loop beats a
# transposed copy (measured for N = 4, 8, 16 on a 2-vCPU host)
_SHORT_RUN = 256

# most samples in one of the copies of the band moves and short-run lines
# (_move, _along): a copy of several fields goes in slabs of its first axis
_SLAB = 1 << 16

# most samples over all rows of a slab of a streamed pass (SpectralGrid.slabs):
# every pass at n = 2, N <= 16 is one slab; at n = 3, N = 8, where whole
# components would set a run's peak, 2 indices of 3 rows or 1 of 6
_PASS = 3 << 16


class SpectralGrid:
    """Uniform periodic grid on [0, 2*pi)^{2n} with N samples per axis.

    shape is that of the physical samples, fourier_shape that of the mode
    amplitudes; the two differ only on a band view (see band).  Caches the
    frequency lattice, derivative symbols, the 2/3-rule dealias mask and
    the inverse-Laplacian multiplier; all cached arrays are stored in
    broadcast-friendly shapes and must be treated as read-only.
    """

    # one grid per (n, N, banded): every field, run and load on a lattice
    # shares its cached arrays, and identity is equality (__reduce__ keeps
    # it through copy and pickle)
    _interned: dict = {}

    def __new__(cls, n: int, N: int, banded: bool = False):
        grid = cls._interned.get((n, N, banded))
        if grid is None:
            grid = super().__new__(cls)
            grid._setup(n, N, banded)
            cls._interned[(n, N, banded)] = grid
        return grid

    def __reduce__(self):
        return SpectralGrid, (self.n, self.N, self.banded)

    def _setup(self, n: int, N: int, banded: bool):
        if n < 1:
            raise ValueError(f"complex dimension must be >= 1, got {n}")
        if N < 4 or (N & (N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 4, got {N}")
        self.n = n
        self.N = N
        self.banded = banded
        self.dim = 2 * n
        self.shape = (N,) * self.dim
        self.size = N**self.dim
        self.volume = (2.0 * np.pi) ** self.dim
        self.cell_volume = self.volume / self.size
        self.dx = 2.0 * np.pi / N

        # integer frequencies in FFT layout, Nyquist assigned to +N/2; a band
        # view keeps |zeta_a| <= N/3 in the same order
        freq = np.fft.fftfreq(N, 1.0 / N).astype(np.int64)
        freq[N // 2] = N // 2
        if banded:
            freq = freq[3 * np.abs(freq) <= N]
        self.freq = freq
        self.freq.setflags(write=False)
        self.fourier_shape = (len(freq),) * self.dim
        self._all_axes = tuple(range(self.dim))
        self._band_index = (slice(0, len(freq)),) * self.dim

    def __repr__(self):
        return f"SpectralGrid(n={self.n}, N={self.N}{', banded=True' if self.banded else ''})"

    @property
    def band(self) -> "SpectralGrid":
        """The band view: same n, N and samples, Fourier axes on the 2/3-rule
        modes only."""
        return SpectralGrid(self.n, self.N, banded=True)

    @property
    def full(self) -> "SpectralGrid":
        """The full-lattice view: same n, N and samples, every mode."""
        return SpectralGrid(self.n, self.N)

    def gather(self, coeffs: np.ndarray) -> np.ndarray:
        """This grid's modes of full-lattice coefficients, as a new array
        (leading axes are a batch)."""
        return coeffs[(Ellipsis,) + np.ix_(*(self.freq % self.N,) * self.dim)]

    def scatter(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients on this grid's modes laid out on the full lattice,
        zero elsewhere (leading axes are a batch)."""
        out = np.zeros(coeffs.shape[: coeffs.ndim - self.dim] + self.shape, dtype=np.complex128)
        out[(Ellipsis,) + np.ix_(*(self.freq % self.N,) * self.dim)] = coeffs
        return out

    # -- lattice geometry -------------------------------------------------

    def axis_frequency(self, axis: int) -> np.ndarray:
        """Integer frequencies along a real axis (0-based), broadcastable."""
        shape = [1] * self.dim
        shape[axis] = len(self.freq)
        return self.freq.reshape(shape)

    @functools.cached_property
    def zeta_sq(self) -> np.ndarray:
        """|zeta|^2 over the lattice."""
        acc = np.zeros(self.fourier_shape, dtype=np.float64)
        for a in range(self.dim):
            acc = acc + self.axis_frequency(a).astype(np.float64) ** 2
        acc.setflags(write=False)
        return acc

    @functools.cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean mask keeping modes with |zeta_a| <= N/3 on every axis."""
        keep = np.ones(self.fourier_shape, dtype=bool)
        for a in range(self.dim):
            keep = keep & (3 * np.abs(self.axis_frequency(a)) <= self.N)
        keep.setflags(write=False)
        return keep

    @functools.cached_property
    def inv_laplacian_multiplier(self) -> np.ndarray:
        """4/|zeta|^2 with the zero mode set to 0 (torus convention)."""
        zsq = self.zeta_sq.copy()
        zsq.flat[0] = 1.0
        mult = 4.0 / zsq
        mult.flat[0] = 0.0
        mult.setflags(write=False)
        return mult

    @functools.cached_property
    def _symbols(self) -> tuple:
        """(sigma_j, delta_j) for j = 1..n, at index j - 1."""
        table = []
        for j in range(self.n):
            zj = self.axis_frequency(j).astype(np.float64)
            zjn = self.axis_frequency(j + self.n).astype(np.float64)
            pair = (0.5 * (-zjn + 1j * zj), 0.5 * (zjn + 1j * zj))
            for symbol in pair:
                symbol.setflags(write=False)
            table.append(pair)
        return tuple(table)

    def sigma(self, j: int) -> np.ndarray:
        """Symbol of dbar_j on the lattice, 1 <= j <= n; broadcastable."""
        if not 1 <= j <= self.n:
            raise ValueError(f"direction j={j} outside 1..{self.n}")
        return self._symbols[j - 1][0]

    def delta(self, j: int) -> np.ndarray:
        """Symbol of del_j on the lattice, 1 <= j <= n; broadcastable."""
        if not 1 <= j <= self.n:
            raise ValueError(f"direction j={j} outside 1..{self.n}")
        return self._symbols[j - 1][1]

    def mode_index(self, zeta) -> tuple:
        """Array index of a lattice point given as integer frequencies."""
        zeta = tuple(int(z) for z in zeta)
        if len(zeta) != self.dim:
            raise ValueError(f"expected {self.dim} frequencies, got {len(zeta)}")
        lo, hi = int(self.freq.min()), int(self.freq.max())
        for z in zeta:
            if not lo <= z <= hi:
                where = "the 2/3-rule band |zeta_a| <= N/3" if self.banded else "the lattice"
                raise ValueError(f"frequency {z} outside {where} of N={self.N}")
        return tuple(z % len(self.freq) for z in zeta)

    # -- transforms --------------------------------------------------------

    def fft(
        self, values: np.ndarray, overwrite: bool = False, axes: tuple | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Physical samples -> mode amplitudes (1/N^{2n} normalization).

        Leading axes are a batch, so a stack of component fields is one
        call.  The scaling happens inside the transform and is exact, since
        N^{2n} is a power of two.  With overwrite the transform may work in
        the memory of `values`, which is then destroyed.  On a band view
        only the band is returned, equal to apply_dealias of the full
        transform.  axes (ascending grid axes, default all) transforms only
        those, in the order of the whole transform, and leaves the others
        as they are; the result is written to out when given.
        """
        N, M, K = self.N, len(self.freq), self.N // 3
        first = values.ndim - self.dim
        axes, corner = self._corner(first, axes)
        own = overwrite and values.dtype == np.complex128
        work = np.fft.fft(values, axis=first + axes[0], norm="forward", out=values if own else None)
        for a in axes:
            # transformed axes before a already hold their band in the first M places
            lines = work[corner[: first + a]]
            if a != axes[0]:
                _along(np.fft.fft, lines, first + a)
            if self.banded:
                _move(lines, first + a, slice(N - K, N), slice(K + 1, M))
        corner = work[corner]
        if out is not None:
            out[...] = corner
            return out
        return corner.copy() if self.banded else work

    def ifft(self, coeffs: np.ndarray, out: np.ndarray | None = None, axes: tuple | None = None) -> np.ndarray:
        """Mode amplitudes -> physical samples (no scaling) in a new array,
        or in out (complex128, of the samples' shape), which is returned;
        batch as in fft; the input is never written.  On a band view the
        input holds the band.  axes (ascending grid axes, default all)
        transforms only those, in the order of the whole transform; the
        other axes keep their length."""
        N, M, K = self.N, len(self.freq), self.N // 3
        first = coeffs.ndim - self.dim
        axes, corner = self._corner(first, axes)
        lead = (slice(None),) * first
        shape = coeffs.shape[:first] + tuple(N if a in axes else coeffs.shape[first + a] for a in range(self.dim))
        if out is not None and (out.shape != shape or out.dtype != np.complex128):
            raise ValueError(f"out has shape {out.shape} and dtype {out.dtype}, expected {shape} complex128")
        if self.banded:
            work = np.empty(shape, dtype=np.complex128) if out is None else out
            work[corner] = coeffs
        else:
            work = np.fft.ifft(coeffs, axis=first + axes[-1], norm="forward", out=out)
        for a in reversed(axes):
            # transformed axes before a still hold their band in the first M
            # places; the places after those stand for zero modes, whose lines
            # would transform to zero, and are left alone until their axis's turn
            lines = work[corner[: first + a]]
            if self.banded:
                _move(lines, first + a, slice(K + 1, M), slice(N - K, N))
                lines[lead + (slice(None),) * a + (slice(K + 1, N - K),)] = 0.0
            if self.banded or a != axes[-1]:
                _along(np.fft.ifft, lines, first + a)
        return work

    def _corner(self, first: int, axes) -> tuple:
        """(axes, index): the grid axes to transform (all for None) and the
        index of the first M places of those axes, all places of the
        others, after `first` batch axes; its first first + a entries
        index the axes before grid axis a."""
        if axes is None:
            return self._all_axes, (slice(None),) * first + self._band_index
        axes = tuple(axes)
        band = slice(0, len(self.freq))
        return axes, (slice(None),) * first + tuple(band if a in axes else slice(None) for a in range(self.dim))

    def slabs(self, rows: int) -> list:
        """Slices of last-axis sample indices, each holding at most _PASS
        samples over `rows` rows, or one index when that holds more: the
        pieces a streamed pass (SlabStream) of that many rows goes through."""
        return _slabs((self.N, rows * math.prod(self.shape[:-1])), _PASS)


class SlabStream:
    """One pass over the samples of coefficient stacks (parts, each
    (rows,) + fourier_shape, read as one stack), slab by slab of last-axis
    indices (SpectralGrid.slabs of all the rows), and the forward
    transforms of `fields` fields formed on the slabs.

    Each part's last axis is inverse-transformed into its rows of one
    array of max(rows, fields) rows, whose first `fields` rows, hat, then
    hold the fields' accumulators: slab s of every row is read before slab
    s of any field is written.  Iterating yields (slab, samples), the
    samples of that slab (shape (rows,) + (N,)*(2n-1) + (width,)) in the
    first places of one flat complex128 buffer, out when given.
    forward(row, values) transforms the values of field `row` on the
    current slab along axes 0..2n-2 (destroying them), and coefficients()
    transforms the last axis of every field once, after the last slab:
    bit for bit the whole-array transforms (module docstring).
    """

    def __init__(self, grid: SpectralGrid, parts: tuple, fields: int, out: np.ndarray | None = None):
        self.grid = grid
        self.rows = sum(len(part) for part in parts)
        self.slabs = grid.slabs(self.rows)
        size = self.size(grid, self.rows)
        self.out = np.empty(size, dtype=np.complex128) if out is None else out[:size]
        self.coeffs = np.empty((max(self.rows, fields),) + grid.fourier_shape[:-1] + (grid.N,), dtype=np.complex128)
        start = 0
        for part in parts:
            start += len(part)
            grid.ifft(part, out=self.coeffs[start - len(part) : start], axes=(grid.dim - 1,))
        self.hat = self.coeffs[:fields]
        self._rest = tuple(range(grid.dim - 1))

    @staticmethod
    def size(grid: SpectralGrid, rows: int) -> int:
        """Samples in the buffer of one slab of a pass over `rows` rows."""
        width = grid.slabs(rows)[0]
        return rows * math.prod(grid.shape[:-1]) * (width.stop - width.start)

    def __iter__(self):
        for s in self.slabs:
            self.slab = s
            shape = (self.rows,) + self.grid.shape[:-1] + (s.stop - s.start,)
            out = self.out[: math.prod(shape)].reshape(shape)
            yield s, self.grid.ifft(self.coeffs[: self.rows, ..., s], out=out, axes=self._rest)

    def forward(self, row: int, values: np.ndarray):
        """Transform the values of field row on the current slab, which
        are destroyed, into its accumulator."""
        self.grid.fft(values, overwrite=True, axes=self._rest, out=self.hat[row][..., self.slab])

    def coefficients(self) -> np.ndarray:
        """The fields' band coefficients, shape (fields,) + fourier_shape."""
        return self.grid.fft(self.hat, overwrite=True, axes=(self.grid.dim - 1,))


def _along(transform, x: np.ndarray, axis: int):
    """One-axis transform of x (forward-normalized), left in x's memory.

    numpy's FFT loop looks up its plan once per run of evenly spaced lines.
    Lines along an inner axis run over the axes after it, so a run holds
    N times their size in samples; lines along the last axis of a
    contiguous array are one run.  Runs of fewer than _SHORT_RUN samples,
    and the last-axis lines of a strided view, cost more in lookups than a
    copy does, so they go through a contiguous copy with the axis last;
    the copy goes in slabs of the first axis (see _slabs) when axis is not
    that one, so it holds at most _SLAB samples, or those of one index.
    """
    run = x.shape[axis] * math.prod(x.shape[axis + 1 :])
    if (x.flags.c_contiguous and axis == x.ndim - 1) or (axis < x.ndim - 1 and run >= _SHORT_RUN):
        transform(x, axis=axis, norm="forward", out=x)
        return
    # transforming such lines in place made custom-n3N8 1.23x slower (2-vCPU host)
    lines = x.swapaxes(axis, -1)
    for s in _slabs(x.shape, _SLAB) if axis and x.size > _SLAB else [slice(None)]:
        tmp = lines[s].copy()
        transform(tmp, axis=-1, norm="forward", out=tmp)
        lines[s] = tmp


def _move(lines: np.ndarray, axis: int, src: slice, dst: slice):
    """lines[..., dst, ...] = lines[..., src, ...] along axis.

    The two places lie in one array, so numpy copies the source first.  A
    move of more than _SLAB samples along an axis after the first goes in
    slabs of the first axis (the leading batch axis, when there is one), so
    that copy holds at most _SLAB samples, or those of one index.
    """
    at = (slice(None),) * axis
    width = src.stop - src.start
    if axis and lines.size // lines.shape[axis] * width > _SLAB:
        for s in _slabs(lines.shape[:axis] + (width,) + lines.shape[axis + 1 :], _SLAB):
            chunk = lines[s]
            chunk[at + (dst,)] = chunk[at + (src,)]
    else:
        lines[at + (dst,)] = lines[at + (src,)]


def _slabs(shape: tuple, most: int) -> list:
    """Slices along the first axis of an array of this shape, each holding at
    most `most` samples (_PASS for a streamed pass, _SLAB for the copies of
    _move and _along), or one index when that holds more."""
    step = max(1, most // math.prod(shape[1:]))
    return [slice(i, min(i + step, shape[0])) for i in range(0, shape[0], step)]


# -- lattice multipliers -----------------------------------------------------


def heat_multiplier_grid(grid: SpectralGrid, mu: float, dt: float) -> np.ndarray:
    """Diffusion factors over the whole lattice."""
    if mu <= 0 or dt <= 0:
        raise ValueError(f"viscosity and time step must be positive, got mu={mu!r}, dt={dt!r}")
    return np.exp(-(mu * dt / 4.0) * grid.zeta_sq)


def apply_dealias(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Zero all modes with any |zeta_a| > N/3 (idempotent)."""
    return coeffs * grid.dealias_mask


def apply_inv_laplacian(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Multiply modes by 4/|zeta|^2, zero mode mapped to 0."""
    return coeffs * grid.inv_laplacian_multiplier
