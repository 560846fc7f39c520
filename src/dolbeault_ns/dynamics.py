"""Constrained nonlinear evolution on the solenoidal sector.

The evolved system, after applying the projection P to kill the pressure
gradient, is

    du/dt = -mu Lap u - P N(u) + P f,      (dbar^{q-1})* u = 0,

with N(u) = M1(dbar u, u) + dbar M2(u, u).  P kills every exact form:
(dbar phi, v) = (phi, dbar* v) = 0 whenever dbar* v = 0.  So the gradient
part dbar M2 never reaches the velocity and only enters the pressure.  The
diffusion is diagonal in Fourier space (multiplier mu |zeta|^2 / 4), so it
is integrated exactly by the factor E = exp(-mu |zeta|^2 dt / 4), while the
projected source P g, with g(u, t) = f(t) - dealias(M1(dbar u, u)), is
advanced with Heun's method on the transformed variable (ETD-Heun; the
exponential time differencing framework of Cox & Matthews, J. Comput.
Phys. 176 (2002)):

    k1 = P g(u_m, t_m)
    u_mid = E (u_m + dt k1)
    u_{m+1} = P [ E (u_m + dt/2 k1) + dt/2 g(u_mid, t_m + dt) ]

This is u_{m+1} = P [ E u_m + dt/2 (E k1 + k2) ] with k2 = P g(u_mid, .):
P is linear, idempotent and commutes with E, so one projection serves k2
and the new state.  A stage reads [u, dbar u] from one inverse FFT, forms
M1 pointwise and returns with one forward FFT; the first stage reuses the
samples the diagnostics of u_m already made, so a Lamb step makes 4 FFT
calls and 2 projections.  A zero source (no M1 term, zero forcing) is
stepped exactly, u_{m+1} = E u_m, with no transform and no projection.

Second order in dt, exact for the pure heat flow, unconditionally stable in
the stiff linear part.  N and its linearization share one evaluator of the
quadratic term Q(a, b) = M1(dbar a, b) + dbar M2(a, b): N(v) = Q(v, v) and
B(w, v) = Q(w, v) + Q(v, w).  Products are formed pointwise in physical
space, all of them go through one forward FFT and the result is dealiased
once (2/3 rule), so the quadratic algebra N(w + v) = N(w) + B(w, v) + N(v)
survives discretization to rounding.  The stages take the M1 part only.

Pressure never enters the time stepping; it is reconstructed at output
strides from the full f - N(u) (or f - B(w, u)) through pressure_recover().
A snapshot evaluates Q on the samples the diagnostics of u already made
(and on the cached samples of w), so it makes no inverse FFT and one
forward FFT.  The CFL bound is checked before every step.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dolbeault import dbar, dbar_star, leray_project, pressure_recover
from .forms import (
    BilinearSpec,
    FormField,
    apply_m1,
    apply_m2,
    index_of,
    l2_inner,
    l2_norm,
    num_components,
    random_form,
)
from .spectral import FOURIER, PHYSICAL, SpectralGrid, apply_dealias, heat_multiplier_grid


class BlowUpError(RuntimeError):
    """Raised when the state stops being finite."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"solution lost finiteness at t = {time:.6g}")


class CFLError(RuntimeError):
    """Raised when the advective CFL bound rejects the configured step."""

    def __init__(self, time: float, dt: float, dt_max: float):
        self.time = time
        self.dt = dt
        self.dt_max = dt_max
        super().__init__(
            f"dt = {dt:.3e} violates the CFL bound {dt_max:.3e} at t = {time:.6g}"
        )


# -- configuration -------------------------------------------------------------


@dataclass
class ForcingSpec:
    """External force, evaluated to a (0,q) Fourier field at any time.

    kinds:
      zero         - no forcing
      single_mode  - amplitude * e^{i zeta.x} e^{i omega t} in one component
      file         - a saved field used as a time-independent force
    """

    kind: str = "zero"
    zeta: tuple = ()
    component: tuple = ()
    amplitude: complex = 0.0
    omega: float = 0.0
    path: str = ""
    _loaded: FormField | None = field(default=None, repr=False, compare=False)

    def validate_for(self, grid: SpectralGrid, q: int):
        if self.kind == "zero":
            return
        if self.kind == "single_mode":
            grid.mode_index(self.zeta)
            index_of(grid.n, tuple(self.component))
            if len(tuple(self.component)) != q:
                raise ValueError(f"forcing component {self.component} is not a (0,{q}) index")
            return
        if self.kind == "file":
            if not self.path:
                raise ValueError("file forcing needs a path")
            return
        raise ValueError(f"unknown forcing kind {self.kind!r}")

    def evaluate(self, grid: SpectralGrid, q: int, t: float) -> FormField:
        if self.kind == "zero":
            return FormField.zeros(grid, q, FOURIER)
        if self.kind == "single_mode":
            f = FormField.zeros(grid, q, FOURIER)
            idx = (index_of(grid.n, tuple(self.component)),) + grid.mode_index(self.zeta)
            f.data[idx] = complex(self.amplitude) * np.exp(1j * self.omega * t)
            return f
        if self.kind == "file":
            if self._loaded is None:
                from .io import load_field

                self._loaded = load_field(self.path, grid=grid).to_fourier()
            if self._loaded.q != q or self._loaded.grid != grid:
                raise ValueError("forcing file does not match the run's grid/bidegree")
            return self._loaded
        raise ValueError(f"unknown forcing kind {self.kind!r}")

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == "single_mode":
            doc.update(
                zeta=list(self.zeta),
                component=list(self.component),
                amplitude=[complex(self.amplitude).real, complex(self.amplitude).imag],
                omega=self.omega,
            )
        if self.kind == "file":
            doc["path"] = self.path
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ForcingSpec":
        kind = doc.get("kind", "zero")
        if kind == "single_mode":
            amp = doc.get("amplitude", [0.0, 0.0])
            return cls(
                kind=kind,
                zeta=tuple(doc["zeta"]),
                component=tuple(doc["component"]),
                amplitude=complex(amp[0], amp[1]),
                omega=float(doc.get("omega", 0.0)),
            )
        if kind == "file":
            return cls(kind=kind, path=doc.get("path", ""))
        if kind != "zero":
            raise ValueError(f"unknown forcing kind {kind!r}")
        return cls(kind="zero")


@dataclass
class SimConfig:
    """Run parameters; mirrors the JSON config schema field for field."""

    n: int
    q: int
    N: int
    mu: float
    T: float
    dt: float
    nonlinearity: BilinearSpec = field(default_factory=BilinearSpec.stokes)
    forcing: ForcingSpec = field(default_factory=ForcingSpec)
    output_stride: int = 1
    cfl_safety: float = 0.5
    cfl_mode: str = "fail"
    seed: int = 0
    lps_r: float | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not 1 <= self.q <= self.n - 1:
            raise ValueError(f"bidegree q={self.q} outside 1..{self.n - 1}")
        for name in ("mu", "T", "dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be at least 1, got {self.output_stride}")
        steps = self.T / self.dt
        if not 1.0 - 1e-9 <= steps <= 1e7:
            raise ValueError(f"T/dt = {steps:.3g} outside 1..1e7")
        if abs(steps - round(steps)) > 1e-8 * max(steps, 1.0):
            raise ValueError("T must be an integer multiple of dt")
        if round(steps) % self.output_stride != 0:
            raise ValueError("output_stride must divide the number of steps")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.cfl_mode not in ("fail", "shrink"):
            raise ValueError(f"cfl_mode must be 'fail' or 'shrink', got {self.cfl_mode!r}")
        if self.lps_r is not None and not (math.isfinite(self.lps_r) and self.lps_r > 2 * self.n):
            # the time exponent 2 / (1 - 2n/r) needs r > 2n
            raise ValueError(f"lps_r must be finite and above 2n = {2 * self.n}, got {self.lps_r!r}")
        self.nonlinearity.validate_for(self.n, self.q)

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)

    def make_grid(self) -> SpectralGrid:
        return SpectralGrid(self.n, self.N)

    @property
    def lps_exponents(self) -> tuple:
        r = self.lps_r if self.lps_r is not None else 2 * self.n + 1
        return r, 2.0 / (1.0 - 2.0 * self.n / r)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "N": self.N,
            "mu": self.mu,
            "T": self.T,
            "dt": self.dt,
            "nonlinearity": self.nonlinearity.to_json(),
            "forcing": self.forcing.to_json(),
            "output_stride": self.output_stride,
            "cfl_safety": self.cfl_safety,
            "cfl_mode": self.cfl_mode,
            "seed": self.seed,
            "lps_r": self.lps_r,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SimConfig":
        return cls(
            n=int(doc["n"]),
            q=int(doc["q"]),
            N=int(doc["N"]),
            mu=float(doc["mu"]),
            T=float(doc["T"]),
            dt=float(doc["dt"]),
            nonlinearity=BilinearSpec.from_json(doc.get("nonlinearity", {"kind": "stokes"})),
            forcing=ForcingSpec.from_json(doc.get("forcing", {"kind": "zero"})),
            output_stride=int(doc.get("output_stride", 1)),
            cfl_safety=float(doc.get("cfl_safety", 0.5)),
            cfl_mode=str(doc.get("cfl_mode", "fail")),
            seed=int(doc.get("seed", 0)),
            lps_r=None if doc.get("lps_r") is None else float(doc["lps_r"]),
        )


DIAGNOSTIC_COLUMNS = (
    "t",
    "energy",
    "dbar_norm_sq",
    "dbar_star_residual",
    "max_abs_u",
    "lps_accum",
)


@dataclass
class Trajectory:
    """Velocity/pressure snapshots at uniform output stamps plus per-step
    diagnostics (columns as in DIAGNOSTIC_COLUMNS; energy = ||u||^2 / 2,
    dbar_star_residual = ||dbar* u||)."""

    stamps: np.ndarray
    velocities: list
    pressures: list
    diagnostics: dict
    config: SimConfig


# -- nonlinearity and linearization ---------------------------------------------


def _has_terms(spec: BilinearSpec) -> tuple:
    """(M1 is nonzero, M2 is nonzero) for the spec."""
    if spec.kind == "lamb":
        return True, True
    if spec.kind == "custom":
        return bool(spec.m1_terms), bool(spec.m2_terms)
    return False, False


def _samples(u: FormField, with_dbar: bool, du: FormField | None = None) -> np.ndarray:
    """Physical samples of u (Fourier), stacked over those of dbar u when
    with_dbar, from one inverse FFT."""
    if not with_dbar:
        return u.grid.ifft(u.data)
    if du is None:
        du = dbar(u)
    return u.grid.ifft(np.concatenate((u.data, du.data)), overwrite=True)


def _quadratic(
    spec: BilinearSpec, grid: SpectralGrid, q: int, v: np.ndarray, w: np.ndarray | None = None, exact: bool = True
) -> np.ndarray:
    """The quadratic term Q(a, b) = M1(dbar a, b) + dbar M2(a, b) as
    dealiased Fourier coefficients, in a new array:

        Q(v, v)           = N(v)        (w None)
        Q(w, v) + Q(v, w) = B(w, v)

    v and w are physical samples stacked as _samples() makes them; the
    dbar rows are read only for M1 terms.  Without exact the part dbar M2,
    which P annihilates, is left out.  All products go through one forward
    FFT.
    """
    has_m1, has_m2 = _has_terms(spec)
    has_m2 = has_m2 and exact
    a = num_components(grid.n, q)
    pairs = ((v, v),) if w is None else ((w, v), (v, w))

    def summed(apply, first_q, first_rows):
        terms = (
            apply(spec, FormField(grid, first_q, x[first_rows], PHYSICAL), FormField(grid, q, y[:a], PHYSICAL)).data
            for x, y in pairs
        )
        out = next(terms)
        for term in terms:
            out += term
        return out

    parts = []
    if has_m1:
        parts.append(summed(apply_m1, q + 1, slice(a, None)))  # M1(dbar x, y)
    if has_m2:
        parts.append(summed(apply_m2, q, slice(None, a)))  # M2(x, y)
    if not parts:
        return np.zeros((a,) + grid.shape, dtype=np.complex128)
    hat = grid.fft(parts[0] if len(parts) == 1 else np.concatenate(parts), overwrite=True)
    if has_m2:
        total = dbar(FormField(grid, q - 1, hat[a if has_m1 else 0 :], FOURIER)).data
        if has_m1:
            total += hat[:a]
        hat = total
    return apply_dealias(grid, hat)


def nonlinearity(u: FormField, spec: BilinearSpec) -> FormField:
    """N(u) = M1(dbar u, u) + dbar M2(u, u), dealiased Fourier output."""
    grid = u.grid
    spec.validate_for(grid.n, u.q)
    if spec.kind == "stokes":
        return FormField.zeros(grid, u.q, FOURIER)
    v = _samples(u.to_fourier(), _has_terms(spec)[0])
    return FormField(grid, u.q, _quadratic(spec, grid, u.q, v), FOURIER)


def linearized_b(w: FormField, u: FormField, spec: BilinearSpec) -> FormField:
    """Symmetrized bilinear form B(w, u); N(w + v) = N(w) + B(w, v) + N(v)."""
    if w.grid != u.grid or w.q != u.q:
        raise ValueError("B needs two (0,q) forms on one grid")
    grid = u.grid
    spec.validate_for(grid.n, u.q)
    if spec.kind == "stokes":
        return FormField.zeros(grid, u.q, FOURIER)
    with_dbar = _has_terms(spec)[0]
    v = _samples(u.to_fourier(), with_dbar)
    return FormField(grid, u.q, _quadratic(spec, grid, u.q, v, _samples(w.to_fourier(), with_dbar)), FOURIER)


def frechet_residual(w: FormField, v: FormField, eps: float, spec: BilinearSpec) -> float:
    """||N(w + eps v) - N(w) - eps B(w, v)||; equals eps^2 ||N(v)|| exactly."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return 0.0
    lhs = nonlinearity(w + eps * v, spec) - nonlinearity(w, spec) - eps * linearized_b(w, v, spec)
    return l2_norm(lhs)


def verify_key1(
    spec: BilinearSpec,
    grid: SpectralGrid,
    q: int,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> dict:
    """Empirical check of the energy-cancellation hypothesis.

    Draws random band-limited w and random solenoidal v and measures the
    pairing |(M1(dbar w, v), v)| normalized by its Cauchy-Schwarz bound
    ||M1(dbar w, v)|| ||v||, so the figure is the cancellation quality and
    is insensitive to the overall size of the tensor coefficients.
    Returns a report dict with the max over trials and a PASS flag.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    spec.validate_for(grid.n, q)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        w = random_form(grid, q, rng, decay=2.0)
        v = leray_project(random_form(grid, q, rng, decay=2.0)).to_physical()
        m1 = apply_m1(spec, dbar(w).to_physical(), v)
        pairing = abs(l2_inner(m1, v))
        scale = l2_norm(m1) * l2_norm(v)
        if scale > 0.0:
            worst = max(worst, pairing / scale)
    return {
        "max_normalized_pairing": worst,
        "trials": trials,
        "tol": tol,
        "pass": worst < tol,
    }


def b_continuity_ratio(
    spec: BilinearSpec,
    grid: SpectralGrid,
    q: int,
    trials: int = 100,
    seed: int = 0,
) -> float:
    """Max of ||B(w, u)|| / (||w||_{H^2} ||u||_{H^2}) over random smooth pairs."""
    from .norms import sobolev_hs

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


# -- time stepping ---------------------------------------------------------------


def _max_abs(u_phys_data: np.ndarray) -> float:
    """Max over grid points of the pointwise modulus of the form."""
    return float(np.sqrt(np.max(np.sum(np.abs(u_phys_data) ** 2, axis=0))))


class _EtdHeun:
    """The ETD-Heun step of one run, as set out in the module docstring.

    The stages use the unprojected source

        g(v, t) = f(t) - dealias(M1(dbar v, v))                  (nonlinear)
        g(v, t) = f(t) - dealias(M1(dbar w, v) + M1(dbar v, w))  (linearized)

    with base[m] the linearization point w at step m (base None: w = 0).
    A stage reads v from the samples of [v, dbar v], made by physical() in
    one inverse FFT.  The run loop stores the samples of the current state
    in `phys` when it records its diagnostics, and step() takes them over,
    so the first stage costs no transform.  Without M1 products the stages
    need no samples at all, and with a zero source a step is exactly
    u <- E u.  source(..., exact=True) gives the full f - N(v) (or
    f - B(w, v)), whose exact part is the pressure.
    """

    def __init__(self, config: SimConfig, grid: SpectralGrid, forcing: ForcingSpec, linearized=False, base=None):
        self.grid = grid
        self.q = config.q
        self.spec = config.nonlinearity
        self.forcing = forcing
        self.dt_base = config.dt
        self.linearized = linearized
        self.base = base
        live = base is not None or not linearized  # B(0, .) = 0
        m1, m2 = _has_terms(self.spec)
        self.m1, self.m2 = live and m1, live and m2
        self.forced = forcing.kind != "zero"
        self.phys = None
        self._base_phys = (None, None)  # (step index, samples of [w, dbar w])

    def physical(self, u: FormField, du: FormField | None = None) -> np.ndarray:
        """Samples of u (Fourier), stacked over those of dbar u when the
        stages form products, from one inverse FFT."""
        return _samples(u, self.m1, du)

    def _base_physical(self, t: float) -> np.ndarray:
        m = int(round(t / self.dt_base))
        if self._base_phys[0] != m:
            self._base_phys = (None, None)  # free the old samples first
            self._base_phys = (m, self.physical(self.base[m]))
        return self._base_phys[1]

    def source(self, phys: np.ndarray | None, t: float, exact: bool = False) -> np.ndarray:
        """g(v, t) in Fourier space as a new array, from phys = physical(v);
        with exact, the full f - N(v) (or f - B(w, v))."""
        grid = self.grid
        if not (self.m1 or (exact and self.m2)):
            return self.forcing.evaluate(grid, self.q, t).data.copy()
        w = self._base_physical(t) if self.linearized else None
        g = _quadratic(self.spec, grid, self.q, phys, w, exact)
        np.negative(g, out=g)
        if self.forced:
            g += self.forcing.evaluate(grid, self.q, t).data
        return g

    def step(self, u: FormField, t: float, dt: float, E: np.ndarray) -> FormField:
        """Advance u (Fourier, solenoidal) from t by dt; self.phys must hold
        physical(u) and is consumed."""
        grid, q = self.grid, self.q
        phys, self.phys = self.phys, None
        if not (self.m1 or self.forced):
            return FormField(grid, q, E * u.data, FOURIER)
        k1 = leray_project(FormField(grid, q, self.source(phys, t), FOURIER)).data
        # each stacked sample buffer is released as soon as it is used: at
        # n = 3, N = 8 one holds 25 MB
        phys = None
        if self.m1:
            mid = dt * k1
            mid += u.data
            mid *= E
            phys = self.physical(FormField(grid, q, mid, FOURIER))
            mid = None
        g2 = self.source(phys, t + dt)
        phys = None
        k1 *= 0.5 * dt
        k1 += u.data
        k1 *= E
        g2 *= 0.5 * dt
        k1 += g2
        return leray_project(FormField(grid, q, k1, FOURIER))


def step_etd_heun(u_m: FormField, t_m: float, config: SimConfig) -> FormField:
    """Advance one step of the configured problem from a solenoidal u_m at t_m."""
    grid = u_m.grid
    if (grid.n, grid.N) != (config.n, config.N) or u_m.q != config.q:
        raise ValueError("state does not match the configuration")
    kernel = _EtdHeun(config, grid, config.forcing)
    u = u_m.to_fourier()
    kernel.phys = kernel.physical(u)
    out = kernel.step(u, t_m, config.dt, heat_multiplier_grid(grid, config.mu, config.dt))
    if not np.all(np.isfinite(out.data)):
        raise BlowUpError(t_m + config.dt)
    return out


def _prepare_initial(config: SimConfig, grid: SpectralGrid, u0: FormField) -> FormField:
    if u0.grid != grid or u0.q != config.q:
        raise ValueError("initial data does not match the configuration")
    uf = FormField(grid, config.q, apply_dealias(grid, u0.to_fourier().data), FOURIER)
    u = leray_project(uf)
    scale = l2_norm(u0)
    if scale > 0.0:
        moved = l2_norm(u - u0.to_fourier()) / scale
        if moved > 1e-6:
            raise ValueError(
                f"initial data is not solenoidal/band-limited: projection moved it by {moved:.3e}"
            )
    return u


def _run_loop(config: SimConfig, grid: SpectralGrid, u0: FormField, kernel: _EtdHeun, cfl: bool) -> Trajectory:
    """Shared integration loop: per-step diagnostics, interval snapshots,
    optional CFL check before every step.  In shrink mode a violation
    refines dt by an integer factor and restarts the current interval from
    its start state, so output stamps never move."""
    r_lps, s_lps = config.lps_exponents
    cell = grid.cell_volume

    u = _prepare_initial(config, grid, u0)
    dt = config.dt
    stride = config.output_stride
    intervals = config.steps // stride
    interval_len = stride * config.dt
    E = heat_multiplier_grid(grid, config.mu, dt)

    diag = {name: [] for name in DIAGNOSTIC_COLUMNS}
    lps_accum = 0.0
    g_prev = None

    def record(t, state):
        """Append the diagnostics of state; leaves its samples in kernel.phys."""
        nonlocal lps_accum, g_prev
        du = dbar(state)
        energy = 0.5 * l2_norm(state) ** 2
        dbn = l2_norm(du) ** 2
        dbs = l2_norm(dbar_star(state))
        kernel.phys = kernel.physical(state, du)
        u_phys = kernel.phys[: state.data.shape[0]]
        mx = _max_abs(u_phys)
        g = float((cell * np.sum(np.abs(u_phys) ** r_lps)) ** (1.0 / r_lps)) ** s_lps
        if g_prev is not None:
            lps_accum += 0.5 * (g_prev + g) * (t - diag["t"][-1])
        g_prev = g
        diag["t"].append(t)
        diag["energy"].append(energy)
        diag["dbar_norm_sq"].append(dbn)
        diag["dbar_star_residual"].append(dbs)
        diag["max_abs_u"].append(mx)
        diag["lps_accum"].append(lps_accum)
        return mx

    velocities, pressures = [], []

    def snapshot(t, state):
        # F = f - N(u) (or f - B(w, u)) from the samples record() left in
        # kernel.phys.  dbar* annihilates the solenoidal part of F, so
        # recovering p from F itself equals recovering it from F - P F
        F = FormField(grid, config.q, kernel.source(kernel.phys, t, exact=True), FOURIER)
        velocities.append(state)
        pressures.append(pressure_recover(F, check=False))

    umax = record(0.0, u)
    snapshot(0.0, u)

    for k in range(intervals):
        t0 = k * interval_len
        start = (u, len(diag["t"]), lps_accum, g_prev)
        m = 0
        while m < stride:
            t = t0 + m * dt
            if cfl:
                dt_max = config.cfl_safety * grid.dx / max(1.0, umax)
                if dt > dt_max * (1.0 + 1e-12):
                    factor = math.ceil(dt / dt_max)
                    # honor the T/dt <= 1e7 budget even while refining
                    if config.cfl_mode == "fail" or stride * factor * intervals > 1e7:
                        raise CFLError(t, dt, dt_max)
                    dt = dt / factor
                    stride = stride * factor
                    E = heat_multiplier_grid(grid, config.mu, dt)
                    if m > 0:
                        u, rows, lps_accum, g_prev = start
                        for column in diag.values():
                            del column[rows:]
                        kernel.phys = kernel.physical(u)
                        m, t = 0, t0
            u = kernel.step(u, t, dt, E)
            if not np.all(np.isfinite(u.data)):
                raise BlowUpError(t + dt)
            umax = record(t + dt, u)
            m += 1
        snapshot((k + 1) * interval_len, u)

    stamps = np.arange(intervals + 1) * interval_len
    diagnostics = {name: np.asarray(vals) for name, vals in diag.items()}
    return Trajectory(stamps, velocities, pressures, diagnostics, config)


def _pairing_cancels(spec: BilinearSpec, tol: float = 1e-12) -> bool:
    """Exact sufficient test that (M1(omega, v), v) vanishes pointwise.

    A term c[K][A][B] contributes c omega_A v_B conj(v_K) to the pointwise
    pairing, or c omega_A conj(v_B) conj(v_K) with conj_u set, which is
    symmetric in B and K.  When the coefficients of every such monomial sum
    to zero (relative to sum |c|), the pairing is the zero polynomial.
    """
    sums: dict = {}
    for t in spec.m1_terms:
        b, k = tuple(t.b), tuple(t.k)
        key = (tuple(t.a), t.conj_u) + ((min(b, k), max(b, k)) if t.conj_u else (b, k))
        sums[key] = sums.get(key, 0.0) + complex(t.coeff)
    total = sum(abs(complex(t.coeff)) for t in spec.m1_terms)
    return all(abs(s) <= tol * total for s in sums.values())


def simulate(config: SimConfig, u0: FormField) -> Trajectory:
    """Integrate the nonlinear problem from u0 to T.

    Custom nonlinearities are admitted only if they satisfy the
    energy-cancellation hypothesis: exactly, when the M1 coefficients of
    every monomial of the pairing cancel, otherwise empirically through
    verify_key1.  The built-in kinds satisfy it by construction and are not
    re-checked.
    """
    grid = u0.grid
    if (grid.n, grid.N) != (config.n, config.N):
        raise ValueError("initial data grid does not match the configuration")
    config.forcing.validate_for(grid, config.q)
    spec = config.nonlinearity
    if spec.kind == "custom" and not _pairing_cancels(spec):
        gate = verify_key1(spec, grid, config.q, trials=20, seed=config.seed)
        if not gate["pass"]:
            raise ValueError(
                "custom nonlinearity violates the energy-cancellation hypothesis: "
                f"max normalized pairing {gate['max_normalized_pairing']:.3e}"
            )
    return _run_loop(config, grid, u0, _EtdHeun(config, grid, config.forcing), cfl=True)


def solve_linearized(
    w: Trajectory | None,
    config: SimConfig,
    forcing: ForcingSpec | None = None,
    u0: FormField | None = None,
) -> Trajectory:
    """Integrate the problem linearized around the trajectory w.

    B(w(t), u) replaces N(u); w must be stored at every step of this run
    (stamp spacing equal to dt), or be None for w = 0.  No advective CFL
    adaptation is applied: the problem is linear in u.
    """
    if u0 is None:
        raise ValueError("linearized solve needs initial data")
    grid = u0.grid
    if (grid.n, grid.N) != (config.n, config.N):
        raise ValueError("initial data grid does not match the configuration")
    frc = forcing if forcing is not None else config.forcing
    frc.validate_for(grid, config.q)

    if w is None:
        w_fields = None
    else:
        spacing = np.diff(w.stamps)
        if len(w.velocities) < config.steps + 1 or not np.allclose(
            spacing, config.dt, rtol=0, atol=1e-9 * config.dt
        ):
            raise ValueError(
                "base trajectory must be stored at every step (stamp spacing == dt)"
            )
        w_fields = [v.to_fourier() for v in w.velocities]

    kernel = _EtdHeun(config, grid, frc, linearized=True, base=w_fields)
    return _run_loop(replace(config, forcing=frc), grid, u0, kernel, cfl=False)
