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

The strong-solution monitor integrates ||u(t)||_{L^r}^s over time with
2/s + 2n/r = 1, r > 2n; finiteness of that integral is the discrete
regularity certificate for a run.
"""

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .dolbeault import dbar
from .dynamics import _max_abs
from .forms import FormField, l2_inner
from .spectral import FOURIER, PHYSICAL

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


def lps_exponent(n: int, r: float) -> float:
    """The time exponent s with 2/s + 2n/r = 1 (requires r > 2n)."""
    if r <= 2 * n:
        raise ValueError(f"strong-solution monitor needs r > 2n = {2 * n}, got r = {r}")
    return 2.0 / (1.0 - 2.0 * n / r)


def lps_integral(traj, r: float) -> float:
    """Trapezoidal int_0^T ||u(t)||_{L^r}^s dt over stored snapshots."""
    n = traj.velocities[0].grid.n
    s = lps_exponent(n, r)
    values = np.array([lr_norm(u, r) ** s for u in traj.velocities])
    return float(np.trapezoid(values, traj.stamps))


# -- time-difference stencils ----------------------------------------------------


def _time_derivative(fields: list, j: int, h: float) -> list:
    """j-th time derivative of a uniformly spaced list of arrays.

    Second-order centered differences with one-sided second-order stencils
    at the ends for j in {1, 2}; higher j composes these (endpoint accuracy
    then degrades by one order per extra composition).
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
    return _time_derivative(_time_derivative(fields, 2, h), j - 2, h)


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
        raise ValueError("need at least two snapshots")
    spacing = np.diff(stamps)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise ValueError("snapshots are not uniformly spaced in time")
    return float(spacing[0])


def _series(traj_like, attr: str):
    """Accept a Trajectory (using the named snapshot list) or (stamps, fields)."""
    if isinstance(traj_like, tuple):
        stamps, fields = traj_like
        return np.asarray(stamps, dtype=float), list(fields)
    return np.asarray(traj_like.stamps, dtype=float), list(getattr(traj_like, attr))


def _mixed_norm_sq(stamps, fields, k: int, s: int, l2_weight: float) -> float:
    """Shared double sum over (i, alpha, j) for the vel/for scales.

    Each term is ||grad^i da dt^j u||_C^2 + l2_weight * ||grad^{i+1} da dt^j u||_L2^2.
    """
    if k < 0 or s < 0:
        raise ValueError("k and s must be nonnegative")
    if len(fields) < 2 * s + 1:
        raise ValueError(f"need at least {2 * s + 1} snapshots for s = {s}")
    h = _uniform_spacing(stamps)
    grid = fields[0].grid
    vol = grid.volume
    zsq = grid.zeta_sq
    data = [f.to_fourier().data for f in fields]

    total = 0.0
    for j in range(s + 1):
        dseries = _time_derivative(data, j, h)
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


def bochner_vel(traj, k: int, s: int, mu: float | None = None) -> float:
    """Velocity-scale norm; mu defaults to the trajectory's viscosity."""
    stamps, fields = _series(traj, "velocities")
    if mu is None:
        if isinstance(traj, tuple):
            raise ValueError("a bare (stamps, fields) series needs an explicit mu")
        mu = traj.config.mu
    return float(np.sqrt(_mixed_norm_sq(stamps, fields, k, s, mu)))


def bochner_for(traj, k: int, s: int) -> float:
    """Force-scale norm (same double sum, unit weight on the L^2 part)."""
    stamps, fields = _series(traj, "velocities")
    return float(np.sqrt(_mixed_norm_sq(stamps, fields, k, s, 1.0)))


def bochner_pre(traj, k: int, s: int, n: int | None = None) -> float:
    """Pressure-scale norm with the three-case sup-norm augmentation.

    The base piece is the force norm of dbar p; at 2s + k = n + 1 the
    L^2-in-time sup norm is added, above it also the uniform sup norm.
    """
    stamps, fields = _series(traj, "pressures")
    if n is None:
        n = fields[0].grid.n
    dbar_p = [dbar(p) for p in fields]
    base = float(np.sqrt(_mixed_norm_sq(stamps, dbar_p, k, s, 1.0)))
    threshold = 2 * s + k
    if threshold <= n:
        return base
    cb = np.array([_max_abs(p.to_physical().data) for p in fields])
    l2_cb = float(np.sqrt(np.trapezoid(cb**2, stamps)))
    if threshold == n + 1:
        return base + l2_cb
    return base + l2_cb + float(np.max(cb))


# -- reports ----------------------------------------------------------------------


@dataclass
class NormReport:
    """Labeled norm values plus the parameters they were evaluated with."""

    values: dict
    params: dict = field(default_factory=dict)
    dt: float = 0.0
    stencil_order: int = 2

    def to_json(self) -> dict:
        return {
            "values": {k: float(v) for k, v in self.values.items()},
            "params": self.params,
            "dt": self.dt,
            "stencil_order": self.stencil_order,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def energy_report(traj, forcing=None) -> NormReport:
    """Energy-inequality bookkeeping for a finished run.

    The balance being monitored is, per time interval,

        d/dt (||u||^2 / 2) + mu (||dbar u||^2 + ||dbar* u||^2) = Re (f, u),

    whose residual is reported for the whole run and for the worst output
    interval.  Dissipation integrals use Simpson quadrature on the per-step
    diagnostics so that the reported numbers see the time-stepping error
    rather than the bookkeeping quadrature; a nonzero forcing's work
    integral is recomputed from the stored snapshots, so it additionally
    carries the output-stride quadrature error.

    u_norm_0qT is the energy-functional norm

        ( ||u(T)||^2 + 2 mu int_0^T (||dbar u||^2 + ||dbar* u||^2) dt )^{1/2},

    which the zero-forcing flow conserves exactly, so it is bounded by the
    initial datum up to the balance residual.  The sup-in-time L^2 norm is
    reported alongside; the C(I, L^2)-based velocity scale is bochner_vel.
    """
    from scipy.integrate import simpson

    cfg = traj.config
    d = traj.diagnostics
    t = d["t"]
    energy = d["energy"]
    dissipation = d["dbar_norm_sq"] + d["dbar_star_residual"] ** 2

    u_norm = float(np.sqrt(2.0 * energy[-1] + 2.0 * cfg.mu * simpson(dissipation, x=t)))
    u_sup = float(np.sqrt(2.0 * np.max(energy)))

    frc = forcing if forcing is not None else cfg.forcing
    if frc is None or frc.kind == "zero":
        work = np.zeros(len(traj.stamps))
    else:
        grid = traj.velocities[0].grid
        work = np.array(
            [
                float(
                    np.real(
                        l2_inner(
                            frc.evaluate(grid, cfg.q, float(tm)).to_physical(),
                            um.to_physical(),
                        )
                    )
                )
                for tm, um in zip(traj.stamps, traj.velocities)
            ]
        )

    # per-interval residuals: diagnostics rows nearest to each output stamp
    boundaries = [int(np.argmin(np.abs(t - stamp))) for stamp in traj.stamps]
    residuals = []
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        de = energy[b] - energy[a]
        diss = cfg.mu * simpson(dissipation[a : b + 1], x=t[a : b + 1])
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
