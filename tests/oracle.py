"""Test oracles for the operator calculus: a brute-force dense-matrix
route, per-mode symbols and a sampled bound of B.

Materializes dbar, dbar*, the form Laplacian and the projection as explicit
matrices on tiny grids, in the physical basis (one grid point of one
component per column), and cross-checks the spectral implementations.

Two constructions are used.  `dense_build` applies the spectral operator to
every basis field, which pins down matrix-level algebra (adjointness as a
conjugate transpose, the Laplacian factorization, projector spectra).
`oracle_compare` instead assembles the operators independently from the
classical cotangent differentiation matrix

    D[a, b] = (1/2) (-1)^{a-b} cot((a-b) h / 2),   h = 2 pi / N,

which differentiates trigonometric interpolants exactly below the Nyquist
mode and never touches the FFT path; agreement is therefore a genuine
two-route check on band-limited (dealiased) fields.

The per-mode symbols (dbar_symbol, del_symbol, heat_multiplier), the
single-mode matrices of dbar and the projection and a sampled bound of B
serve the same checks: the grid's symbol arrays are compared against them
one mode at a time.  The solver never uses any of this.

The remaining references are the whole-series versions of what the
package streams: the list-based time-difference stencils behind the mixed
norms (time_derivative) and the full-lattice draw of random initial data
(random_initial), plus the physical sample coordinates of a grid
(coordinate).  q2_custom is the (0,2) tensor pair with live M1 products
that the stepping tests and the solution-map Taylor gate share.
"""

import functools
from dataclasses import dataclass

import numpy as np

from dolbeault_ns import dolbeault
from dolbeault_ns.dynamics import linearized_b
from dolbeault_ns.forms import (
    BilinearSpec,
    CustomTerm,
    FormField,
    index_of,
    insert_sign,
    l2_norm,
    multi_indices,
    num_components,
    random_form,
)
from dolbeault_ns.norms import sobolev_hs
from dolbeault_ns.spectral import FOURIER, PHYSICAL, SpectralGrid, apply_dealias

SIZE_LIMIT = 100_000

_OPERATORS = ("dbar", "dbar_star", "laplacian", "leray")


# -- per-mode symbols ----------------------------------------------------------------


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


# -- dense spectral construction ------------------------------------------------------


@dataclass
class DenseOperator:
    """Explicit matrix of one operator level on a tiny grid."""

    matrix: np.ndarray
    tag: str
    n: int
    q: int
    N: int


def _levels(tag: str, n: int, q: int) -> tuple:
    """(input bidegree, output bidegree) of the level-q operator."""
    if tag == "dbar":
        if q >= n:
            raise ValueError("dbar undefined at top bidegree")
        return q, q + 1
    if tag == "dbar_star":
        if q >= n:
            raise ValueError("dbar_star level q acts on (0,q+1) with q < n")
        return q + 1, q
    if tag in ("laplacian", "leray"):
        return q, q
    raise ValueError(f"unknown operator tag {tag!r}; expected one of {_OPERATORS}")


def _check_size(n: int, q_in: int, q_out: int, N: int):
    G = N ** (2 * n)
    for q in (q_in, q_out):
        dim = num_components(n, q) * G
        if dim > SIZE_LIMIT:
            raise ValueError(f"dense operator dimension {dim} exceeds the {SIZE_LIMIT} bound")


def _spectral_apply(tag: str, u: FormField) -> FormField:
    if tag == "dbar":
        return dolbeault.dbar(u)
    if tag == "dbar_star":
        return dolbeault.dbar_star(u)
    if tag == "laplacian":
        return dolbeault.laplacian_q(u)
    return dolbeault.leray_project(u)


def dense_build(tag: str, n: int, q: int, N: int) -> DenseOperator:
    """Materialize the level-q spectral operator column by column."""
    q_in, q_out = _levels(tag, n, q)
    _check_size(n, q_in, q_out, N)
    grid = SpectralGrid(n, N)
    G = grid.size
    ncomp_in = num_components(n, q_in)
    ncomp_out = num_components(n, q_out)
    matrix = np.empty((ncomp_out * G, ncomp_in * G), dtype=np.complex128)
    basis = FormField.zeros(grid, q_in, PHYSICAL)
    flat = basis.data.reshape(-1)
    for col in range(ncomp_in * G):
        flat[col] = 1.0
        matrix[:, col] = _spectral_apply(tag, basis).data.reshape(-1)
        flat[col] = 0.0
    return DenseOperator(matrix, tag, n, q, N)


# -- independent finite-difference construction ------------------------------------


@functools.lru_cache(maxsize=None)
def _cot_matrix(N: int) -> np.ndarray:
    """Fourier differentiation matrix on N periodic points (even N)."""
    h = 2.0 * np.pi / N
    D = np.zeros((N, N))
    for a in range(N):
        for b in range(N):
            if a != b:
                D[a, b] = 0.5 * (-1.0) ** (a - b) / np.tan((a - b) * h / 2.0)
    return D


@functools.lru_cache(maxsize=None)
def _axis_matrix(n: int, N: int, axis: int) -> np.ndarray:
    """d/dx_axis on the full grid as a Kronecker product of 1-D blocks."""
    dim = 2 * n
    M = np.eye(1)
    for a in range(dim):
        M = np.kron(M, _cot_matrix(N) if a == axis else np.eye(N))
    return M


@functools.lru_cache(maxsize=None)
def _fd_dbar(n: int, q: int, N: int) -> np.ndarray:
    """dbar at level q assembled from cotangent matrices."""
    G = N ** (2 * n)
    rows = multi_indices(n, q + 1)
    cols = multi_indices(n, q)
    out = np.zeros((len(rows) * G, len(cols) * G), dtype=np.complex128)
    for ci, J in enumerate(cols):
        for j in range(1, n + 1):
            if j in J:
                continue
            sign, K = insert_sign(j, J)
            ri = index_of(n, K)
            block = 0.5 * (_axis_matrix(n, N, j - 1) + 1j * _axis_matrix(n, N, j - 1 + n))
            out[ri * G : (ri + 1) * G, ci * G : (ci + 1) * G] += sign * block
    return out


@functools.lru_cache(maxsize=None)
def _fd_dense(tag: str, n: int, q: int, N: int) -> np.ndarray:
    if tag == "dbar":
        return _fd_dbar(n, q, N)
    if tag == "dbar_star":
        return _fd_dbar(n, q, N).conj().T
    G = N ** (2 * n)
    ncomp = num_components(n, q)
    lap = np.zeros((ncomp * G, ncomp * G), dtype=np.complex128)
    if q < n:
        S = _fd_dbar(n, q, N)
        lap += S.conj().T @ S
    if q >= 1:
        S_low = _fd_dbar(n, q - 1, N)
        lap += S_low @ S_low.conj().T
    if tag == "laplacian":
        return lap
    if tag == "leray":
        if q < 1:
            raise ValueError("leray oracle needs q >= 1")
        S = _fd_dbar(n, q, N) if q < n else np.zeros((1, ncomp * G), dtype=np.complex128)
        proj = np.linalg.pinv(lap, rcond=1e-10) @ (S.conj().T @ S)
        # zero modes are assigned to the solenoidal sector: add the grid mean
        mean = np.full((G, G), 1.0 / G)
        for c in range(ncomp):
            proj[c * G : (c + 1) * G, c * G : (c + 1) * G] += mean
        return proj
    raise ValueError(f"unknown operator tag {tag!r}")


def oracle_compare(tag: str, u: FormField) -> float:
    """Relative residual between the independent dense route and the
    spectral route on a band-limited field."""
    grid = u.grid
    if tag == "dbar":
        q_op = u.q
    elif tag == "dbar_star":
        if u.q < 1:
            raise ValueError("dbar_star oracle needs a (0,q>=1) input")
        q_op = u.q - 1
    else:
        q_op = u.q
    q_in, q_out = _levels(tag, grid.n, q_op)
    if u.q != q_in:
        raise ValueError(f"{tag} at level {q_op} expects a (0,{q_in}) input, got (0,{u.q})")
    _check_size(grid.n, q_in, q_out, grid.N)

    dense = _fd_dense(tag, grid.n, q_op, grid.N)
    u_phys = FormField(grid, u.q, apply_dealias(grid, u.to_fourier().data), FOURIER).to_physical()
    via_dense = dense @ u_phys.data.reshape(-1)
    via_spectral = _spectral_apply(tag, u_phys).to_physical().data.reshape(-1)
    scale = float(np.linalg.norm(u_phys.data.reshape(-1)))
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(via_dense - via_spectral) / scale)


def fiber_matrix(grid: SpectralGrid, q: int, zeta) -> np.ndarray:
    """Matrix of the projection on the component vector at one lattice point.

    Materialized on demand for oracle checks; the projection itself is
    applied through the operator composition, never through these matrices.
    """
    if not 1 <= q <= grid.n:
        raise ValueError(f"fiber matrix needs 1 <= q <= n, got q={q}")
    zeta = tuple(int(z) for z in zeta)
    ncomp = num_components(grid.n, q)
    zsq = sum(z * z for z in zeta)
    if zsq == 0:
        return np.eye(ncomp, dtype=np.complex128)
    S = dbar_component_matrix(grid.n, q, zeta)
    return (4.0 / zsq) * (S.conj().T @ S)


def dbar_component_matrix(n: int, q: int, zeta) -> np.ndarray:
    """Component matrix of dbar at a single mode (rows: level q+1)."""
    rows = multi_indices(n, q + 1)
    cols = multi_indices(n, q)
    S = np.zeros((len(rows), len(cols)), dtype=np.complex128)
    for ci, J in enumerate(cols):
        for j in range(1, n + 1):
            if j in J:
                continue
            sign, K = insert_sign(j, J)
            S[index_of(n, K), ci] += sign * dbar_symbol(j, zeta)
    return S


def b_continuity_ratio(
    spec: BilinearSpec,
    grid: SpectralGrid,
    q: int,
    trials: int = 100,
    seed: int = 0,
) -> float:
    """Max of ||B(w, u)|| / (||w||_{H^2} ||u||_{H^2}) over random smooth pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        w = random_form(grid, q, rng, decay=3.0)
        u = random_form(grid, q, rng, decay=3.0)
        num = l2_norm(linearized_b(w, u, spec))
        den = sobolev_hs(w, 2) * sobolev_hs(u, 2)
        if den > 0.0:
            worst = max(worst, num / den)
    return worst


# -- whole-series references ----------------------------------------------------------


def coordinate(grid: SpectralGrid, axis: int) -> np.ndarray:
    """Physical sample coordinates along a real axis, broadcastable."""
    shape = [1] * grid.dim
    shape[axis] = grid.N
    return (grid.dx * np.arange(grid.N)).reshape(shape)


def time_derivative(fields: list, j: int, h: float) -> list:
    """j-th time derivative of a uniformly spaced list of arrays, as a list:
    the reference of the streamed norms._time_derivative.

    Second-order centered differences with one-sided second-order stencils
    at the ends for j in {1, 2}; higher j composes these.
    """
    if j == 0:
        return fields
    if j == 1:
        if len(fields) < 3:
            raise ValueError("first time derivative needs at least 3 snapshots")
        out = []
        out.append((-3.0 * fields[0] + 4.0 * fields[1] - fields[2]) / (2.0 * h))
        for m in range(1, len(fields) - 1):
            out.append((fields[m + 1] - fields[m - 1]) / (2.0 * h))
        out.append((3.0 * fields[-1] - 4.0 * fields[-2] + fields[-3]) / (2.0 * h))
        return out
    if j == 2:
        if len(fields) < 4:
            raise ValueError("second time derivative needs at least 4 snapshots")
        h2 = h * h
        out = []
        out.append((2.0 * fields[0] - 5.0 * fields[1] + 4.0 * fields[2] - fields[3]) / h2)
        for m in range(1, len(fields) - 1):
            out.append((fields[m + 1] - 2.0 * fields[m] + fields[m - 1]) / h2)
        out.append((2.0 * fields[-1] - 5.0 * fields[-2] + 4.0 * fields[-3] - fields[-4]) / h2)
        return out
    return time_derivative(time_derivative(fields, 2, h), j - 2, h)


def random_initial(grid: SpectralGrid, q: int, seed: int, decay: float) -> FormField:
    """Random solenoidal initial data on grid drawn as a whole full-lattice
    field and then moved onto grid: the reference of io.gen_initial."""
    rng = np.random.default_rng(seed)
    return dolbeault.leray_project(random_form(grid.full, q, rng, decay=decay).on(grid))


def q2_custom() -> BilinearSpec:
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
