"""Sobolev, Lebesgue and mixed space-time norms over fields and trajectories.

Spatial derivative norms are computed spectrally: the L^2 norm of the full
i-th gradient tensor is the multiplier moment

    ||grad^i v||^2 = vol * sum_zeta |zeta|^{2i} |v_hat(zeta)|^2,

exact for band-limited fields, and partial derivatives d_x^alpha contribute
the weight prod_a zeta_a^{2 alpha_a}.  Time derivatives of stored snapshots
use second-order finite differences (one-sided second-order stencils at the
interval endpoints).  C(I, .) norms are maxima over stored snapshots and
L^2(I, .) norms are trapezoidal, so both are as good as the output stride.

The three mixed scales measure velocities, forces and pressures with two
space derivatives counted per time derivative:

  vel:  sum_{i<=k} sum_{|alpha|+2j<=2s} ( ||grad^i da dt^j u||_C^2
                                          + mu ||grad^{i+1} da dt^j u||_L2^2 )
  for:  same double sum without the mu weight,
  pre:  the force norm of dbar p, plus sup-norm pieces switched on at the
        dimensional threshold 2s + k = n + 1.

The double sum runs over the Fourier layout of the fields' own grid.  Per
time-derivative order j, one pass streams the snapshots through the
difference stencil, which holds only its window (3 snapshots for j = 1,
4 for j = 2, one window per level for higher j), and fills one row of a
(snapshots x S) matrix of |.|^2 densities per snapshot; then, per
multi-index alpha, one (snapshots x S) by (S x (k + 2)) product.  The
extra memory is about that one density matrix, not a copy of the series.
A run stores its fields on the band view (S is 6 % of the lattice at
n = 3, N = 8); a full-lattice series sums over every mode.

The strong-solution monitor integrates ||u(t)||_{L^r}^s over time with
2/s + 2n/r = 1, r > 2n; finiteness of that integral is the discrete
regularity certificate for a run.

The energy report integrates the per-step dissipation with a local
Simpson rule (_simpson): the composite rule for irregular spacing, with
Cartwright's correction for the last interval when the point count is
even and the trapezoid for two points.  It follows scipy.integrate.simpson
(scipy >= 1.11) operation for operation, so the figures are the same bits
without importing scipy.integrate, whose import pulls in scipy.linalg,
sparse, optimize and spatial.
"""

import collections
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dolbeault import dbar
from .dynamics import _sample_diagnostics, lps_exponent
from .forms import FormField, l2_inner

# -- single-field norms ----------------------------------------------------------


def sobolev_hs(u: FormField, s: int) -> float:
    """H^s norm: (vol * sum_J sum_zeta (1+|zeta|^2)^s |u_hat|^2)^{1/2}."""
    if s < 0 or int(s) != s:
        raise ValueError(f"Sobolev order must be a nonnegative integer, got {s}")
    uf = u.to_fourier()
    weight = (1.0 + uf.grid.zeta_sq) ** s
    total = float(np.sum(weight * np.sum(np.abs(uf.data) ** 2, axis=0)))
    return float(np.sqrt(uf.grid.volume * total))


def lr_norm(u: FormField, r: float) -> float:
    """Componentwise L^r norm: (sum_J int |u_J|^r dx)^{1/r}."""
    if r < 1:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {r}")
    phys = u.to_physical()
    total = float(np.sum(np.abs(phys.data) ** r))
    return float((phys.grid.cell_volume * total) ** (1.0 / r))


def lps_integral(traj, r: float) -> float:
    """Trapezoidal int_0^T ||u(t)||_{L^r}^s dt over stored snapshots."""
    n = traj.velocities[0].grid.n
    s = lps_exponent(n, r)
    values = np.array([lr_norm(u, r) ** s for u in traj.velocities])
    return float(np.trapezoid(values, traj.stamps))


# -- time-difference stencils ----------------------------------------------------


def _time_derivative(snapshots, j: int, h: float):
    """j-th time derivative of a uniformly spaced stream of arrays, yielded
    one snapshot at a time.

    Second-order centered differences with one-sided second-order stencils
    at the ends for j in {1, 2}; higher j composes these (endpoint accuracy
    then degrades by one order per extra composition).  Only the stencil's
    window is held: 3 snapshots for j = 1, 4 for j = 2, one window per
    level of a composition.  A stream too short for its stencil raises
    ValueError when it runs out.
    """
    if j == 0:
        yield from snapshots
        return
    if j > 2:
        yield from _time_derivative(_time_derivative(snapshots, 2, h), j - 2, h)
        return
    stream = iter(snapshots)
    # the stencil's window: the last j + 2 snapshots read
    f = collections.deque(itertools.islice(stream, j + 2), maxlen=j + 2)
    if j == 1:
        if len(f) < 3:
            raise ValueError("first time derivative needs at least 3 snapshots")
        yield (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
        yield (f[2] - f[0]) / (2.0 * h)
        for snapshot in stream:
            f.append(snapshot)
            yield (f[-1] - f[-3]) / (2.0 * h)
        yield (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
        return
    if len(f) < 4:
        raise ValueError("second time derivative needs at least 4 snapshots")
    h2 = h * h
    yield (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h2
    yield (f[2] - 2.0 * f[1] + f[0]) / h2
    yield (f[3] - 2.0 * f[2] + f[1]) / h2
    for snapshot in stream:
        f.append(snapshot)
        yield (f[-1] - 2.0 * f[-2] + f[-3]) / h2
    yield (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2


def _alpha_indices(dim: int, max_order: int):
    """All derivative multi-indices alpha over `dim` axes with |alpha| <= max_order."""
    for total in range(max_order + 1):
        for alpha in itertools.combinations_with_replacement(range(dim), total):
            counts = [0] * dim
            for a in alpha:
                counts[a] += 1
            yield tuple(counts)


def _uniform_spacing(stamps: np.ndarray) -> float:
    if len(stamps) < 2:
        raise ValueError(f"need at least two snapshots, got {len(stamps)}")
    spacing = np.diff(stamps)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"snapshots are not uniformly spaced in time: spacings {spacing}")
    return float(spacing[0])


def _series(traj_like, attr: str):
    """Accept a Trajectory (using the named snapshot sequence) or (stamps,
    fields), one stamp per snapshot.  The sequence is not copied: a stored
    trajectory's reads each snapshot when it is used."""
    if isinstance(traj_like, tuple):
        stamps, fields = traj_like
    else:
        stamps, fields = traj_like.stamps, getattr(traj_like, attr)
    stamps = np.asarray(stamps, dtype=float)
    if stamps.shape != (len(fields),):
        raise ValueError(f"need one time stamp per snapshot, got {stamps.size} stamps for {len(fields)} snapshots")
    return stamps, fields


def _checked(fields):
    """The snapshots of fields one at a time, each checked to lie on the
    grid of the first and to have its bidegree."""
    first = fields[0]
    for f in fields:
        if f.grid != first.grid:
            raise ValueError(f"snapshots lie on different grids: {first.grid} and {f.grid}")
        if f.q != first.q:
            raise ValueError(f"snapshots have different bidegrees: (0,{first.q}) and (0,{f.q})")
        yield f


def _mixed_norm_sq(stamps, fields, k: int, s: int, l2_weight: float, apply=None) -> float:
    """Shared double sum over (i, alpha, j) for the vel/for scales.

    Each term is ||grad^i da dt^j u||_C^2 + l2_weight * ||grad^{i+1} da dt^j u||_L2^2,
    summed over the modes of the fields' grid; apply (bochner_pre passes
    dbar) maps each snapshot first.  Per j, one pass over the snapshots
    fills the (snapshots x S) density matrix a row at a time; the first
    pass checks the snapshots against the first (_checked).
    """
    if k < 0 or s < 0:
        raise ValueError(f"k and s must be nonnegative, got k={k}, s={s}")
    if len(fields) < 2 * s + 1:
        raise ValueError(f"need at least {2 * s + 1} snapshots for s = {s}")
    h = _uniform_spacing(stamps)
    grid = fields[0].grid

    def coefficients():
        # (components, S) coefficients of one snapshot at a time
        for f in _checked(fields):
            f = (f if apply is None else apply(f)).to_fourier()
            yield f.data.reshape(f.data.shape[0], -1)

    # |zeta|^{2i} for i = 0..k+1, one column each; integer-valued, so exact
    zsq_powers = grid.zeta_sq.reshape(-1, 1) ** np.arange(k + 2)
    densities = np.empty((len(fields), grid.zeta_sq.size))

    total = 0.0
    for j in range(s + 1):
        derivatives = _time_derivative(coefficients(), j, h)
        for row in densities:
            # |d|^2 summed over components in component order, as
            # np.sum(axis=0) adds the rows, through one component's buffer;
            # d goes before the stencil forms the next one (a zip of rows
            # and derivatives would hold it until then)
            d = next(derivatives)
            np.square(np.abs(d[0], out=row), out=row)
            square = np.empty_like(row) if len(d) > 1 else None
            for component in d[1:]:
                row += np.square(np.abs(component, out=square), out=square)
            d = component = square = None
        for alpha in _alpha_indices(grid.dim, 2 * s - 2 * j):
            weight = np.ones(grid.fourier_shape)
            for axis, power in enumerate(alpha):
                if power:
                    weight *= grid.axis_frequency(axis).astype(float) ** (2 * power)
            # moments[m, i] = vol * sum_zeta |zeta|^{2i} zeta^{2 alpha} D_m(zeta)
            moments = grid.volume * (densities @ (weight.reshape(-1, 1) * zsq_powers))
            for i in range(k + 1):
                total += float(np.max(moments[:, i]))
                total += l2_weight * float(np.trapezoid(moments[:, i + 1], stamps))
    return total


def bochner_vel(traj, k: int, s: int, mu: float | None = None) -> float:
    """Velocity-scale norm; mu defaults to the trajectory's viscosity."""
    stamps, fields = _series(traj, "velocities")
    if mu is None:
        if isinstance(traj, tuple):
            raise ValueError("a bare (stamps, fields) series needs an explicit mu, got mu=None")
        mu = traj.config.mu
    if not (math.isfinite(mu) and mu >= 0):
        raise ValueError(f"mu must be finite and >= 0, got {mu!r}")
    return float(np.sqrt(_mixed_norm_sq(stamps, fields, k, s, mu)))


def bochner_for(traj, k: int, s: int) -> float:
    """Force-scale norm (same double sum, unit weight on the L^2 part)."""
    stamps, fields = _series(traj, "velocities")
    return float(np.sqrt(_mixed_norm_sq(stamps, fields, k, s, 1.0)))


def bochner_pre(traj, k: int, s: int) -> float:
    """Pressure-scale norm with the three-case sup-norm augmentation.

    The base piece is the force norm of dbar p; at 2s + k = n + 1 (n the
    grid's) the L^2-in-time sup norm is added, above it also the uniform
    sup norm.
    """
    stamps, fields = _series(traj, "pressures")
    n = fields[0].grid.n
    base = float(np.sqrt(_mixed_norm_sq(stamps, fields, k, s, 1.0, dbar)))
    threshold = 2 * s + k
    if threshold <= n:
        return base
    cb = np.array([_sample_diagnostics(p.to_physical().data)[0] for p in fields])
    l2_cb = float(np.sqrt(np.trapezoid(cb**2, stamps)))
    if threshold == n + 1:
        return base + l2_cb
    return base + l2_cb + float(np.max(cb))


# -- reports ----------------------------------------------------------------------


def _divide(num, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den == 0."""
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Simpson's rule for samples y at increasing stamps x (both 1-D).

    Composite rule on the pairs of intervals, for irregular spacing; with
    an even number of points the last interval gets Cartwright's
    correction (J. Chem. Educ. 94 (2017)), with two points it is the
    trapezoid.  The formulas and their operation order are those of
    scipy.integrate.simpson, so the two agree bit for bit.
    """
    y, x = np.asarray(y), np.asarray(x)
    h = np.diff(x)
    # scipy adds the even-count results to 0.0, which turns -0.0 into 0.0
    if len(y) == 2:
        return float(0.5 * h[-1] * (y[-1] + y[-2]) + 0.0)
    # Simpson on the first `pairs` intervals
    pairs = 2 * ((len(y) - 1) // 2)
    h0, h1 = h[0:pairs:2], h[1:pairs:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _divide(h0, h1)
    result = np.sum(
        hsum / 6.0
        * (
            y[0:pairs:2] * (2.0 - _divide(1.0, h0divh1))
            + y[1:pairs:2] * (hsum * _divide(hsum, hprod))
            + y[2 : pairs + 1 : 2] * (2.0 - h0divh1)
        )
    )
    if len(y) % 2:
        return float(result)
    # Cartwright's correction for the last interval
    h0, h1 = h[-2:-1].squeeze(), h[-1:].squeeze()
    alpha = _divide(2 * h1**2 + 3 * h0 * h1, 6 * (h1 + h0))
    beta = _divide(h1**2 + 3.0 * h0 * h1, 6 * h0)
    eta = _divide(h1**3, 6 * h0 * (h0 + h1))
    result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(result + 0.0)


def _nearest_rows(t: np.ndarray, stamps: np.ndarray) -> list:
    """The row of the strictly increasing t nearest to each stamp, the
    earlier of two equally near ones (np.argmin's choice)."""
    i = np.searchsorted(t, stamps)
    below, above = np.maximum(i - 1, 0), np.minimum(i, len(t) - 1)
    nearer = np.abs(t[below] - stamps) <= np.abs(t[above] - stamps)
    return np.where(nearer, below, above).tolist()


@dataclass
class NormReport:
    """Labeled norm values plus the parameters they were evaluated with."""

    values: dict
    params: dict = field(default_factory=dict)
    dt: float = 0.0

    def to_json(self) -> dict:
        return {
            "values": {k: float(v) for k, v in self.values.items()},
            "params": self.params,
            "dt": self.dt,
            "stencil_order": 2,  # of _time_derivative's differences
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def energy_report(traj) -> NormReport:
    """Energy-inequality bookkeeping for a finished run.

    The balance being monitored is, per time interval,

        d/dt (||u||^2 / 2) + mu (||dbar u||^2 + ||dbar* u||^2) = Re (f, u),

    whose residual is reported for the whole run and for the worst output
    interval.  Dissipation integrals use Simpson quadrature on the per-step
    diagnostics so that the reported numbers see the time-stepping error
    rather than the bookkeeping quadrature.  The rule is this module's own
    _simpson: the irregular-spacing composite rule, which handles the
    refined steps of a cfl_mode="shrink" run, with Cartwright's correction
    of the last interval for an even point count; it gives the bits of
    scipy.integrate.simpson without importing it.  A nonzero forcing's
    work integral is recomputed from the stored snapshots, under the force
    prepared anew (a file force is read now), so it additionally carries
    the output-stride quadrature error.  The interval rows are found by
    binary search, which needs the strictly increasing t every run writes.

    u_norm_0qT is the energy-functional norm

        ( ||u(T)||^2 + 2 mu int_0^T (||dbar u||^2 + ||dbar* u||^2) dt )^{1/2},

    which the zero-forcing flow conserves exactly, so it is bounded by the
    initial datum up to the balance residual.  The sup-in-time L^2 norm is
    reported alongside; the C(I, L^2)-based velocity scale is bochner_vel.
    """
    cfg = traj.config
    d = traj.diagnostics
    t = d["t"]
    energy = d["energy"]
    dissipation = d["dbar_norm_sq"] + d["dbar_star_residual"] ** 2

    u_norm = float(np.sqrt(2.0 * energy[-1] + 2.0 * cfg.mu * _simpson(dissipation, t)))
    u_sup = float(np.sqrt(2.0 * np.max(energy)))

    if cfg.forcing.kind == "zero":
        work = np.zeros(len(traj.stamps))
    else:
        force = cfg.forcing.prepare(traj.velocities[0].grid, cfg.q)
        pairs = zip(traj.stamps, traj.velocities)
        work = np.array([np.real(l2_inner(force(float(tm)).to_physical(), um.to_physical())) for tm, um in pairs])

    # per-interval residuals: diagnostics rows nearest to each output stamp
    boundaries = _nearest_rows(t, traj.stamps)
    residuals = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        de = energy[b] - energy[a]
        diss = cfg.mu * _simpson(dissipation[a : b + 1], t[a : b + 1])
        residuals.append(de + diss)
    residuals = np.asarray(residuals)
    interval_work = 0.5 * (work[:-1] + work[1:]) * np.diff(traj.stamps)
    residuals = residuals - interval_work

    norm_u = np.sqrt(2.0 * energy)
    safe = np.where(norm_u > 0.0, norm_u, 1.0)
    constraint_max = float(np.max(d["dbar_star_residual"] / safe))

    r, s_exp = cfg.lps_exponents
    return NormReport(
        values={
            "u_norm_0qT": u_norm,
            "u_sup_l2": u_sup,
            "energy_balance_residual": float(np.sum(residuals)),
            "energy_balance_residual_max_interval": float(np.max(np.abs(residuals))),
            "constraint_residual_max": constraint_max,
            "lps_value": float(d["lps_accum"][-1]),
        },
        params={"q": cfg.q, "mu": cfg.mu, "T": cfg.T, "lps_r": r, "lps_s": s_exp},
        dt=float(t[1] - t[0]) if len(t) > 1 else cfg.dt,
    )
