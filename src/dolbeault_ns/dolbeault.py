"""Operator calculus on (0,q)-form fields: dbar, its adjoint, the form
Laplacian, the Leray-type projection, Hodge splitting and pressure recovery.

Everything here is a Fourier-multiplier computation.  With the symbols
sigma_j, delta_j of spectral.py,

    (dbar u)_K    = sum_a (-1)^{a-1} sigma_{k_a} u_{K \\ k_a},
    (dbar* v)_J   = - sum_{j not in J} eps(j, J) delta_j v_{sort(J + j)},

and, mode by mode, the matrix of dbar* is the Hermitian transpose of the
matrix of dbar, so adjointness under the sesquilinear L^2 pairing is exact
rather than approximate.  The composition dbar* dbar + dbar dbar* collapses
to the scalar multiplier |zeta|^2 / 4 on every component; its inverse on
mean-zero fields is the multiplier 4/|zeta|^2.

The projection P = inv_laplacian . dbar* . dbar maps onto the constraint
space {(dbar^{q-1})* u = 0}.  Constants (the zeta = 0 modes) lie in the
kernel of every symbol; they are assigned to the solenoidal sector and
excluded from pressures, replacing the free-space decay and weight-function
normalizations by the torus mean-zero convention.
"""

from .forms import FormField, index_of, insert_sign, l2_norm, multi_indices
from .spectral import FOURIER, PHYSICAL, apply_inv_laplacian


class PressureConsistencyError(RuntimeError):
    """Raised when pressure recovery is fed a field with P F != 0."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"pressure source has solenoidal residual {residual:.3e} (tolerance {tol:.1e}); "
            "dbar p = F is only solvable for P F = 0"
        )


def _match_rep(result: FormField, like: FormField) -> FormField:
    return result.to_physical() if like.rep == PHYSICAL else result


def dbar(u: FormField) -> FormField:
    """Cauchy-Riemann operator (0,q) -> (0,q+1); result in the input rep."""
    grid = u.grid
    n = grid.n
    if u.q >= n:
        raise ValueError(f"dbar undefined at top bidegree q = n = {n}")
    uf = u.to_fourier()
    out = FormField.zeros(grid, u.q + 1, FOURIER)
    for ki, K in enumerate(multi_indices(n, u.q + 1)):
        acc = out.data[ki]
        for a, j in enumerate(K):
            Jsub = K[:a] + K[a + 1:]
            term = grid.sigma(j) * uf.data[index_of(n, Jsub)]
            if a % 2:
                acc -= term
            else:
                acc += term
    return _match_rep(out, u)


def dbar_star(v: FormField) -> FormField:
    """Formal adjoint of dbar, (0,q+1) -> (0,q); result in the input rep."""
    grid = v.grid
    n = grid.n
    if v.q < 1:
        raise ValueError("dbar_star undefined on (0,0)-forms")
    vf = v.to_fourier()
    out = FormField.zeros(grid, v.q - 1, FOURIER)
    for ji, J in enumerate(multi_indices(n, v.q - 1)):
        acc = out.data[ji]
        for j in range(1, n + 1):
            if j in J:
                continue
            sign, K = insert_sign(j, J)
            acc -= sign * grid.delta(j) * vf.data[index_of(n, K)]
    return _match_rep(out, v)


def laplacian_q(u: FormField) -> FormField:
    """Form Laplacian dbar* dbar + dbar dbar*, honest composition.

    Equals the scalar multiplier |zeta|^2/4 componentwise; the composition
    is kept explicit so that the diagonalization is a checkable property
    rather than a definition.
    """
    grid = u.grid
    uf = u.to_fourier()
    out = FormField.zeros(grid, u.q, FOURIER)
    if u.q < grid.n:
        out = out + dbar_star(dbar(uf))
    if u.q >= 1:
        out = out + dbar(dbar_star(uf))
    return _match_rep(out, u)


def inv_laplacian(u: FormField) -> FormField:
    """Componentwise 4/|zeta|^2 multiplier; zero mode mapped to 0."""
    uf = u.to_fourier()
    out = FormField(u.grid, u.q, apply_inv_laplacian(u.grid, uf.data), FOURIER)
    return _match_rep(out, u)


def leray_project(u: FormField) -> FormField:
    """Orthogonal projection onto {(dbar^{q-1})* u = 0}.

    For q = 0 there is no constraint and the input is returned unchanged.
    Zero modes (constants) are kept: they satisfy the constraint.
    """
    if u.q == 0:
        return u
    grid = u.grid
    uf = u.to_fourier()
    if u.q == grid.n:
        proj = FormField.zeros(grid, u.q, FOURIER)
    else:
        proj = FormField(
            grid,
            u.q,
            apply_inv_laplacian(grid, dbar_star(dbar(uf)).data),
            FOURIER,
        )
    zero = (slice(None),) + (0,) * grid.dim
    proj.data[zero] = uf.data[zero]
    return _match_rep(proj, u)


def hodge_split(u: FormField) -> tuple:
    """Split u = solenoidal + exact with the zero mode on the solenoidal side.

    The solver steps with leray_project alone; this split is kept as the
    Hodge splitting the package documents as part of its operator calculus."""
    if not 1 <= u.q <= u.grid.n:
        raise ValueError(f"hodge_split needs 1 <= q <= n, got q={u.q}")
    sol = leray_project(u)
    return sol, u - sol


# most relative solenoidal residual pressure_recover accepts in its source
_PRESSURE_TOL = 1e-8


def pressure_recover(F: FormField, check: bool = True) -> FormField:
    """Solve dbar p = F for the (0,q-1) pressure p = dbar* inv_laplacian F.

    Requires P F ~ 0 (F purely exact and mean-zero); with check the relative
    solenoidal residual is measured and a diagnostic error raised above
    _PRESSURE_TOL.  The zero mode of p is pinned to 0, which fixes the
    additive constant and makes the recovered pressure unique.
    """
    if not 1 <= F.q <= F.grid.n:
        raise ValueError(f"pressure recovery needs 1 <= q <= n, got q={F.q}")
    Ff = F.to_fourier()
    if check:
        scale = l2_norm(Ff)
        if scale > 0.0:
            residual = l2_norm(leray_project(Ff)) / scale
            if residual > _PRESSURE_TOL:
                raise PressureConsistencyError(residual, _PRESSURE_TOL)
    p = dbar_star(inv_laplacian(Ff))
    p.data[(slice(None),) + (0,) * F.grid.dim] = 0.0
    return _match_rep(p, F)
