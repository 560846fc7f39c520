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

All derivative action is diagonal here.  The one-dimensional Cauchy-Riemann
operator along the j-th complex direction,

    dbar_j = (d/dx_j + i d/dx_{j+n}) / 2,

multiplies the mode e^{i zeta.x} by sigma_j(zeta) = (i/2)(zeta_j + i zeta_{j+n});
its conjugate companion del_j = (d/dx_j - i d/dx_{j+n}) / 2 has symbol
delta_j(zeta) = (i/2)(zeta_j - i zeta_{j+n}).  Summing, 4 sum_j |sigma_j|^2
= |zeta|^2, which is why the form Laplacian reduces to the scalar
multiplier |zeta|^2 / 4 (see dolbeault.py).
"""

import os

import numpy as np
import scipy.fft

PHYSICAL = "physical"
FOURIER = "fourier"

_WORKERS_ENV = "DOLBEAULT_NS_THREADS"


def _fft_workers() -> int:
    """Worker count for scipy.fft, overridable via DOLBEAULT_NS_THREADS."""
    raw = os.environ.get(_WORKERS_ENV, "")
    try:
        workers = int(raw)
    except ValueError:
        return 1
    return workers if workers >= 1 else 1


class SpectralGrid:
    """Uniform periodic grid on [0, 2*pi)^{2n} with N samples per axis.

    Caches the frequency lattice, derivative symbols, the 2/3-rule dealias
    mask and the inverse-Laplacian multiplier; all cached arrays are stored
    in broadcast-friendly shapes and must be treated as read-only.
    """

    def __init__(self, n: int, N: int):
        if n < 1:
            raise ValueError(f"complex dimension must be >= 1, got {n}")
        if N < 4 or (N & (N - 1)) != 0:
            raise ValueError(f"N must be a power of two >= 4, got {N}")
        self.n = n
        self.N = N
        self.dim = 2 * n
        self.shape = (N,) * self.dim
        self.size = N**self.dim
        self.volume = (2.0 * np.pi) ** self.dim
        self.cell_volume = self.volume / self.size
        self.dx = 2.0 * np.pi / N

        # integer frequencies in FFT layout, Nyquist assigned to +N/2
        freq = np.fft.fftfreq(N, 1.0 / N).astype(np.int64)
        freq[N // 2] = N // 2
        self.freq = freq
        self.freq.setflags(write=False)

        self._axes = tuple(range(-self.dim, 0))
        self._workers = _fft_workers()
        self._sigma: dict[int, np.ndarray] = {}
        self._delta: dict[int, np.ndarray] = {}
        self._zeta_sq: np.ndarray | None = None
        self._dealias: np.ndarray | None = None
        self._inv_lap: np.ndarray | None = None

    def __repr__(self):
        return f"SpectralGrid(n={self.n}, N={self.N})"

    def __eq__(self, other):
        return (
            isinstance(other, SpectralGrid)
            and self.n == other.n
            and self.N == other.N
        )

    def __hash__(self):
        return hash((self.n, self.N))

    # -- lattice geometry -------------------------------------------------

    def axis_frequency(self, axis: int) -> np.ndarray:
        """Integer frequencies along a real axis (0-based), broadcastable."""
        shape = [1] * self.dim
        shape[axis] = self.N
        return self.freq.reshape(shape)

    def coordinate(self, axis: int) -> np.ndarray:
        """Physical sample coordinates along a real axis, broadcastable."""
        shape = [1] * self.dim
        shape[axis] = self.N
        return (self.dx * np.arange(self.N)).reshape(shape)

    @property
    def zeta_sq(self) -> np.ndarray:
        """|zeta|^2 over the full lattice."""
        if self._zeta_sq is None:
            acc = np.zeros(self.shape, dtype=np.float64)
            for a in range(self.dim):
                acc = acc + self.axis_frequency(a).astype(np.float64) ** 2
            acc.setflags(write=False)
            self._zeta_sq = acc
        return self._zeta_sq

    @property
    def dealias_mask(self) -> np.ndarray:
        """Boolean mask keeping modes with |zeta_a| <= N/3 on every axis."""
        if self._dealias is None:
            keep = np.ones(self.shape, dtype=bool)
            for a in range(self.dim):
                keep = keep & (3 * np.abs(self.axis_frequency(a)) <= self.N)
            keep.setflags(write=False)
            self._dealias = keep
        return self._dealias

    @property
    def inv_laplacian_multiplier(self) -> np.ndarray:
        """4/|zeta|^2 with the zero mode set to 0 (torus convention)."""
        if self._inv_lap is None:
            zsq = self.zeta_sq.copy()
            zsq.flat[0] = 1.0
            mult = 4.0 / zsq
            mult.flat[0] = 0.0
            mult.setflags(write=False)
            self._inv_lap = mult
        return self._inv_lap

    def sigma(self, j: int) -> np.ndarray:
        """Symbol of dbar_j on the lattice, 1 <= j <= n; broadcastable."""
        if not 1 <= j <= self.n:
            raise ValueError(f"direction j={j} outside 1..{self.n}")
        if j not in self._sigma:
            zj = self.axis_frequency(j - 1).astype(np.float64)
            zjn = self.axis_frequency(j - 1 + self.n).astype(np.float64)
            s = 0.5 * (-zjn + 1j * zj)
            s.setflags(write=False)
            self._sigma[j] = s
        return self._sigma[j]

    def delta(self, j: int) -> np.ndarray:
        """Symbol of del_j on the lattice, 1 <= j <= n; broadcastable."""
        if not 1 <= j <= self.n:
            raise ValueError(f"direction j={j} outside 1..{self.n}")
        if j not in self._delta:
            zj = self.axis_frequency(j - 1).astype(np.float64)
            zjn = self.axis_frequency(j - 1 + self.n).astype(np.float64)
            d = 0.5 * (zjn + 1j * zj)
            d.setflags(write=False)
            self._delta[j] = d
        return self._delta[j]

    def mode_index(self, zeta) -> tuple:
        """Array index of a lattice point given as integer frequencies."""
        zeta = tuple(int(z) for z in zeta)
        if len(zeta) != self.dim:
            raise ValueError(f"expected {self.dim} frequencies, got {len(zeta)}")
        half = self.N // 2
        for z in zeta:
            if not -half + 1 <= z <= half:
                raise ValueError(f"frequency {z} outside lattice of N={self.N}")
        return tuple(z % self.N for z in zeta)

    # -- transforms --------------------------------------------------------

    def fft(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Physical samples -> mode amplitudes (1/N^{2n} normalization).

        Leading axes are a batch, so a stack of component fields is one
        call.  The scaling happens inside the transform and is exact, since
        N^{2n} is a power of two.  With overwrite the transform may work in
        the memory of `values`, which is then destroyed.
        """
        return scipy.fft.fftn(
            values, axes=self._axes, norm="forward", workers=self._workers, overwrite_x=overwrite
        )

    def ifft(self, coeffs: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Mode amplitudes -> physical samples (no scaling); batch and
        overwrite as in fft."""
        return scipy.fft.ifftn(
            coeffs, axes=self._axes, norm="forward", workers=self._workers, overwrite_x=overwrite
        )


# -- pointwise symbol/multiplier helpers ------------------------------------


def dbar_symbol(j: int, zeta) -> complex:
    """Eigenvalue of dbar_j on e^{i zeta.x}: (i/2)(zeta_j + i zeta_{j+n})."""
    zeta = tuple(zeta)
    n = len(zeta) // 2
    if not 1 <= j <= n:
        raise ValueError(f"direction j={j} outside 1..{n}")
    return 0.5j * (zeta[j - 1] + 1j * zeta[j - 1 + n])


def del_symbol(j: int, zeta) -> complex:
    """Eigenvalue of del_j on e^{i zeta.x}: (i/2)(zeta_j - i zeta_{j+n})."""
    zeta = tuple(zeta)
    n = len(zeta) // 2
    if not 1 <= j <= n:
        raise ValueError(f"direction j={j} outside 1..{n}")
    return 0.5j * (zeta[j - 1] - 1j * zeta[j - 1 + n])


def heat_multiplier(mu: float, dt: float, zeta) -> float:
    """Exact diffusion factor exp(-mu |zeta|^2 dt / 4) for one mode."""
    if mu <= 0 or dt <= 0:
        raise ValueError("viscosity and time step must be positive")
    zsq = float(sum(z * z for z in zeta))
    return float(np.exp(-mu * zsq * dt / 4.0))


def heat_multiplier_grid(grid: SpectralGrid, mu: float, dt: float) -> np.ndarray:
    """Diffusion factors over the whole lattice."""
    if mu <= 0 or dt <= 0:
        raise ValueError("viscosity and time step must be positive")
    return np.exp(-(mu * dt / 4.0) * grid.zeta_sq)


def apply_dealias(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Zero all modes with any |zeta_a| > N/3 (idempotent)."""
    return coeffs * grid.dealias_mask


def apply_inv_laplacian(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Multiply modes by 4/|zeta|^2, zero mode mapped to 0."""
    return coeffs * grid.inv_laplacian_multiplier
