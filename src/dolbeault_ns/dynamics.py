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
and the new state.  A stage is one streamed pass over the samples of
[u, dbar u] (spectral.SlabStream): the last axis is inverse-transformed
once, and slab by slab of last-axis indices the other axes are finished,
M1 is formed pointwise one output component at a time and each component
is transformed back into an accumulator; no buffer holds the samples
whole.  The pass that takes the diagnostics of u_m also forms g(u_m, t_m),
the first stage's source, so a Lamb step makes 2 passes, one forward
field transform per component and stage (4 at n = 2, 6 at n = 3) and 2
projections.  A zero source (no M1 term, zero forcing) is stepped
exactly, u_{m+1} = E u_m, with no transform and no projection.

Second order in dt, exact for the pure heat flow, unconditionally stable in
the stiff linear part.  N and its linearization share one evaluator of the
quadratic term Q(a, b) = M1(dbar a, b) + dbar M2(a, b): N(v) = Q(v, v) and
B(w, v) = Q(w, v) + Q(v, w).  Products are formed pointwise in physical
space, and each output component goes through its own forward FFT onto
the band, which dealiases it (2/3 rule), so the quadratic algebra
N(w + v) = N(w) + B(w, v) + N(v) survives discretization to rounding.
Stages take M1 only.

Pressure never enters the time stepping; it is reconstructed at output
strides from the full f - N(u) (or f - B(w, u)) through pressure_recover().
Before a snapshot the diagnostics pass of u forms M2 as well (and reads
the cached samples of w), so a snapshot makes no transform of its own;
the M1 part of that pass is the next step's stage-1 source.  The CFL
bound is checked before every step.

Every stepped state is band-limited by the 2/3 rule, and a run lives on
the band view of its grid (spectral.py; SimConfig.make_grid returns it):
its state, its stored velocities and pressures and the trajectory files
hold the 2/3-rule modes only, with the per-mode arithmetic of a full-grid
run.  The initial data may be given on the full lattice; it is dealiased
(and rejected if that moves it).  Every other field enters the band
through FormField.on, which rejects a mode outside it: forcing files (once
per run, when its kernel is made), linearization bases (all checked at
entry, each moved when the step that needs it reads it), the state of
step_etd_heun and the arguments of the public N and B, which answer on
their argument's grid.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dolbeault import dbar, dbar_star, leray_project, pressure_recover
from .forms import (
    BilinearSpec,
    FormField,
    _json_fields,
    _json_object,
    apply_m1,
    apply_m2,
    index_of,
    l2_inner,
    l2_norm,
    num_components,
    random_form,
)
from .spectral import FOURIER, PHYSICAL, SlabStream, SpectralGrid, heat_multiplier_grid


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


def lps_exponent(n: int, r: float) -> float:
    """The time exponent s with 2/s + 2n/r = 1 of the strong-solution
    monitor int ||u||_{L^r}^s dt; requires a finite r > 2n."""
    if not (math.isfinite(r) and r > 2 * n):
        raise ValueError(f"lps_r must be finite and above 2n = {2 * n}, got {r!r}")
    return 2.0 / (1.0 - 2.0 * n / r)


@dataclass
class ForcingSpec:
    """External force, as plain data: prepare() checks it against a run
    and gives f(t), its (0,q) Fourier field at time t.

    kinds:
      zero         - no forcing
      single_mode  - amplitude * e^{i zeta.x} e^{i omega t} in one component
      file         - a saved field used as a time-independent force; each
                     prepare() reads it, so each run reads it when it starts
    """

    kind: str = "zero"
    zeta: tuple = ()
    component: tuple = ()
    amplitude: complex = 0.0
    omega: float = 0.0
    path: str = ""

    def prepare(self, grid: SpectralGrid, q: int):
        """The force of a run at bidegree q on grid, as f(t), its Fourier
        field on grid at time t.  The force must be band-limited, since the
        2/3 rule dealiases the quadratic term only for band-limited states;
        a file force is loaded here, once, and f returns that one field."""
        if self.kind == "zero":
            return lambda t: FormField.zeros(grid, q, FOURIER)
        if self.kind == "single_mode":
            grid.band.mode_index(self.zeta)
            idx = (index_of(grid.n, tuple(self.component)),) + grid.mode_index(self.zeta)
            if len(tuple(self.component)) != q:
                raise ValueError(f"forcing component {self.component} is not a (0,{q}) index")
            amplitude, omega = complex(self.amplitude), self.omega

            def single_mode(t: float) -> FormField:
                f = FormField.zeros(grid, q, FOURIER)
                f.data[idx] = amplitude * np.exp(1j * omega * t)
                return f

            return single_mode
        if self.kind == "file":
            if not self.path:
                raise ValueError(f"file forcing needs a path, got {self.path!r}")
            from .io import load_field

            f = load_field(self.path)
            f = f.on(f.grid.band, "forcing file").to_fourier()
            if f.q != q or (f.grid.n, f.grid.N) != (grid.n, grid.N):
                raise ValueError(f"forcing file with q={f.q} on {f.grid.full} does not match q={q} on {grid.full}")
            f = f.on(grid)
            return lambda t: f
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
        _json_object(doc, "forcing")
        required = ("zeta", "component") if doc.get("kind") == "single_mode" else ()
        spec = cls(**_json_fields(cls, doc, "forcing", required))
        if spec.kind not in ("zero", "single_mode", "file"):
            raise ValueError(f"unknown forcing kind {spec.kind!r}")
        return spec


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
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety!r}")
        if self.cfl_mode not in ("fail", "shrink"):
            raise ValueError(f"cfl_mode must be 'fail' or 'shrink', got {self.cfl_mode!r}")
        if self.lps_r is not None:
            lps_exponent(self.n, self.lps_r)
        self.nonlinearity.validate_for(self.n, self.q)

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)

    def make_grid(self) -> SpectralGrid:
        """The grid of a run: the 2/3-rule band view of the (n, N) lattice."""
        return SpectralGrid(self.n, self.N).band

    @property
    def lps_exponents(self) -> tuple:
        r = self.lps_r if self.lps_r is not None else 2 * self.n + 1
        return r, lps_exponent(self.n, r)

    def to_json(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: value.to_json() if hasattr(value, "to_json") else value for key, value in doc.items()}

    @classmethod
    def from_json(cls, doc: dict) -> "SimConfig":
        """The config of a JSON object; a missing required key or an
        ill-typed value raises ValueError naming the key."""
        return cls(**_json_fields(cls, _json_object(doc, "a config"), "config"))


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
    dbar_star_residual = ||dbar* u||).  A run stores its snapshots as
    Fourier fields on the band view of its grid (SimConfig.make_grid).
    velocities and pressures are sequences: lists for a run kept in
    memory, sequences that read each snapshot from disk when it is used
    for a stored one (io.load_trajectory, io.TrajectoryWriter)."""

    stamps: np.ndarray
    velocities: Sequence
    pressures: Sequence
    diagnostics: dict
    config: SimConfig


class SnapshotSink:
    """Where a run hands its recorded snapshots: append(velocity, pressure)
    once per snapshot, in order, then finish(stamps, diagnostics, config)
    once, which returns the run's Trajectory.  This sink keeps them in
    memory; io.TrajectoryWriter writes them to disk as they come."""

    def __init__(self):
        self.velocities, self.pressures = [], []

    def append(self, velocity: FormField, pressure: FormField):
        self.velocities.append(velocity)
        self.pressures.append(pressure)

    def finish(self, stamps: np.ndarray, diagnostics: dict, config: SimConfig) -> Trajectory:
        return Trajectory(stamps, self.velocities, self.pressures, diagnostics, config)


# -- nonlinearity and linearization ---------------------------------------------


def _samples(u: FormField, with_dbar: bool, out: np.ndarray | None = None) -> np.ndarray:
    """Physical samples of u (Fourier), stacked over those of dbar u when
    with_dbar, each inverse-transformed into its rows of out (a new array
    when not given)."""
    if not with_dbar:
        return u.grid.ifft(u.data, out=out)
    a = len(u.data)
    du = dbar(u).data
    if out is None:
        out = np.empty((a + len(du),) + u.grid.shape, dtype=np.complex128)
    u.grid.ifft(u.data, out=out[:a])
    u.grid.ifft(du, out=out[a:])
    return out


def _quadratic(
    spec: BilinearSpec,
    v: FormField,
    w: np.ndarray | None = None,
    exact: bool = True,
    r: float | None = None,
    out: np.ndarray | None = None,
    du: FormField | None = None,
) -> tuple:
    """The quadratic term Q(a, b) = M1(dbar a, b) + dbar M2(a, b) as
    Fourier coefficients on the band view of v (Fourier), in a new array:

        Q(v, v)           = N(v)        (w None)
        Q(w, v) + Q(v, w) = B(w, v)

    w holds the physical samples of [w, dbar w] stacked as _samples() makes
    them; the dbar rows are read only for M1 terms, and dbar v is du when
    given.  Without exact the part dbar M2, which P annihilates, is left
    out.  One pass over the samples of [v, dbar v] goes slab by slab
    (spectral.SlabStream, through the flat buffer out when given): on each
    slab the products are formed one output component at a time, M1's and
    then M2's, and each is transformed on the slab as soon as it is formed.
    With r the pass also takes _sample_diagnostics(v, r): the max over the
    slabs and the exact sum (math.fsum) of the N per-index power sums, so
    neither depends on the slabs.  Returns (Q, Q1, diagnostics): Q is None
    when there are no products to form, Q1 is the M1 part alone (Q itself
    when there is no M2 part, None when there are no M1 terms), and
    diagnostics is None without r.  Each field transforms on its own and
    sums in table order, so Q1 is bit for bit what a call without exact
    gives.
    """
    grid, q = v.grid, v.q
    m1_terms, m2_terms = spec.tables(grid.n, q)
    has_m1, has_m2 = bool(m1_terms), bool(m2_terms) and exact
    a = num_components(grid.n, q)
    parts = []
    if has_m1:
        parts.append((apply_m1, q + 1, slice(a, None), a))  # M1(dbar x, y)
    if has_m2:
        parts.append((apply_m2, q, slice(None, a), num_components(grid.n, q - 1)))  # M2(x, y)
    rows = [(part, k) for part, (_, _, _, size) in enumerate(parts) for k in range(size)]
    if not (rows or r is not None):
        return None, None, None
    stream = SlabStream(grid, (v.data, (dbar(v) if du is None else du).data) if has_m1 else (v.data,), len(rows), out)
    peak, power = 0.0, np.empty(grid.N)
    for s, x in stream:
        if r is not None:
            top, power[s] = _sample_diagnostics(x[:a], r)
            peak = float(np.maximum(peak, top))
        if not rows:
            continue
        pairs = ((x, x),) if w is None else ((w[..., s], x), (x, w[..., s]))
        args = [
            [(FormField.slab(grid, first_q, y[first_rows]), FormField.slab(grid, q, z[:a])) for y, z in pairs]
            for _, first_q, first_rows, _ in parts
        ]
        # made per slab, so that no product buffer lives through an inverse
        prod = np.empty_like(x[0])
        other = None if w is None else np.empty_like(x[0])
        for row, (part, k) in enumerate(rows):
            apply = parts[part][0]
            for i, pair in enumerate(args[part]):
                if i:
                    prod += apply(spec, *pair, k, other)
                else:
                    apply(spec, *pair, k, prod)
            stream.forward(row, prod)
        args = prod = other = None
    diagnostics = None if r is None else (peak, math.fsum(power))
    if not rows:
        return None, None, diagnostics
    hat = stream.coefficients()
    if not has_m2:
        return hat, hat, diagnostics
    total = dbar(FormField(grid, q - 1, hat[a if has_m1 else 0 :], FOURIER)).data
    if has_m1:
        total += hat[:a]
    return total, hat[:a] if has_m1 else None, diagnostics


def _band_quadratic(spec: BilinearSpec, u: FormField, w: FormField | None = None) -> FormField:
    """N(u) (w None) or B(w, u) from _quadratic on the band view, as a
    Fourier field on u's grid."""
    band = u.grid.band
    with_dbar = bool(spec.tables(band.n, u.q)[0])
    v = u.on(band, "u").to_fourier()
    w = None if w is None else _samples(w.on(band, "w").to_fourier(), with_dbar)
    out = _quadratic(spec, v, w)[0]
    out = FormField.zeros(band, u.q) if out is None else FormField(band, u.q, out, FOURIER)
    return out.on(u.grid)


def nonlinearity(u: FormField, spec: BilinearSpec) -> FormField:
    """N(u) = M1(dbar u, u) + dbar M2(u, u) of a band-limited u, dealiased Fourier output."""
    return _band_quadratic(spec, u)


def linearized_b(w: FormField, u: FormField, spec: BilinearSpec) -> FormField:
    """Symmetrized B(w, u) of band-limited w, u; N(w + v) = N(w) + B(w, v) + N(v)."""
    if w.grid != u.grid or w.q != u.q:
        raise ValueError(f"B needs two (0,q) forms on one grid, got q={w.q} on {w.grid} and q={u.q} on {u.grid}")
    return _band_quadratic(spec, u, w)


def frechet_residual(w: FormField, v: FormField, eps: float, spec: BilinearSpec) -> float:
    """||N(w + eps v) - N(w) - eps B(w, v)||; equals eps^2 ||N(v)|| exactly."""
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    if eps == 0.0:
        return 0.0
    lhs = nonlinearity(w + eps * v, spec) - nonlinearity(w, spec) - eps * linearized_b(w, v, spec)
    return l2_norm(lhs)


# most normalized pairing verify_key1 passes, and its default number of draws
_KEY1_TOL, _KEY1_TRIALS = 1e-10, 100


def verify_key1(spec: BilinearSpec, grid: SpectralGrid, q: int, trials: int = _KEY1_TRIALS, seed: int = 0) -> dict:
    """Empirical check of the energy-cancellation hypothesis.

    Draws random band-limited w and random solenoidal v and measures the
    pairing |(M1(dbar w, v), v)| normalized by its Cauchy-Schwarz bound
    ||M1(dbar w, v)|| ||v||, so the figure is the cancellation quality and
    is insensitive to the overall size of the tensor coefficients.
    Returns a report dict with the max over trials and a PASS flag.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        w = random_form(grid, q, rng, decay=2.0)
        v = leray_project(random_form(grid, q, rng, decay=2.0)).to_physical()
        m1 = apply_m1(spec, dbar(w).to_physical(), v)
        pairing = abs(l2_inner(m1, v))
        scale = l2_norm(m1) * l2_norm(v)
        if scale != 0.0:  # a NaN pairing or scale propagates
            worst = float(np.maximum(worst, pairing / scale))
    return {
        "max_normalized_pairing": worst,
        "trials": trials,
        "tol": _KEY1_TOL,
        "pass": worst < _KEY1_TOL,
    }


# -- time stepping ---------------------------------------------------------------


def _sample_diagnostics(u_phys: np.ndarray, r: float | None = None) -> tuple:
    """(max over points of sqrt(sum_J |u_J|^2), with r the sums over
    components and points of |u_J|^r per last-axis index, else None) of
    stacked samples u_phys (a slab of a pass in a run, a snapshot in
    norms.bochner_pre).  Three buffers of one component hold the moduli
    and their squares, summed in component order as np.sum(axis=0) sums
    them, so the max is bit for bit that of whole-array arithmetic; the
    powers go into the squares' buffer with each last-axis index's samples
    in one row, so an index's sum is the same whatever slab holds it."""
    modulus, square, total = (np.empty(u_phys.shape[1:]) for _ in range(3))
    width = u_phys.shape[-1]
    power = None if r is None else np.zeros(width)
    for J, component in enumerate(u_phys):
        np.abs(component, out=modulus)
        if J:
            np.multiply(modulus, modulus, out=square)
            total += square
        else:
            np.multiply(modulus, modulus, out=total)
        if r is not None:
            power += np.power(modulus.reshape(-1, width).T, r, out=square.reshape(width, -1)).sum(axis=1)
    return float(np.sqrt(total.max())), power


class _EtdHeun:
    """The ETD-Heun step of one run, as set out in the module docstring.

    The stages use the unprojected source

        g(v, t) = f(t) - dealias(M1(dbar v, v))                  (nonlinear)
        g(v, t) = f(t) - dealias(M1(dbar w, v) + M1(dbar v, w))  (linearized)

    with base[m] the linearization point w at step m (base None: the
    nonlinear source; solve_linearized steps w = 0 with the Stokes table).
    States, sources, multipliers and base[m] (moved there when it is read,
    once per step) live on the band view of the run's grid; base is read
    one state at a time, so a stored base is never held whole.  A kernel
    checks grid, its initial data's, and prepares the run's force once.

    source() evaluates g in one streamed pass of _quadratic over the
    samples of [v, dbar v].  The run loop hands each recorded state to
    load(), whose pass also takes its diagnostics and, before a snapshot,
    the full f - N(u) (or f - B(w, u)) for the pressure, and keeps the M1
    part, g(u, t), in `g1` for step() to take over as its first stage's
    source.  Without M1 products a step makes no pass, and with a zero
    source it is exactly u <- E u.  Two buffers outlive a pass: `_slab`,
    the samples of one slab, and `_base_phys`, the samples of [w, dbar w]
    at one step index; the rest of a pass's scratch lives in _quadratic.
    """

    def __init__(self, config: SimConfig, grid: SpectralGrid, base=None):
        if (grid.n, grid.N) != (config.n, config.N):
            raise ValueError(f"initial data on {grid} does not match n={config.n}, N={config.N}")
        self.grid = grid.band
        self.q = config.q
        self.spec = config.nonlinearity
        self.force = config.forcing.prepare(self.grid, self.q)
        self.forced = config.forcing.kind != "zero"
        self.dt_base = config.dt
        self.base = base
        self.m1, self.m2 = (bool(terms) for terms in self.spec.tables(self.grid.n, self.q))
        self.g1 = None
        rows = num_components(self.grid.n, self.q) + (num_components(self.grid.n, self.q + 1) if self.m1 else 0)
        # reused by every pass: a fresh one each faulted its pages in (custom-n3N8 1.033x slower, 2-vCPU host)
        self._slab = np.empty(SlabStream.size(self.grid, rows), dtype=np.complex128)
        # [w, dbar w] at step _base_m, whole: streaming them cost 6 % of linearize-n2N8's solve time
        self._base_phys = None if base is None else np.empty((rows,) + self.grid.shape, dtype=np.complex128)
        self._base_m = None

    def _base_physical(self, t: float) -> np.ndarray:
        m = int(round(t / self.dt_base))
        if self._base_m != m:
            self._base_m = None
            w = self.base[m].on(self.grid, f"base state {m}").to_fourier()
            _samples(w, self.m1, out=self._base_phys)
            self._base_m = m
        return self._base_phys

    def source(
        self, v: FormField | None, t: float, exact: bool = False, r: float | None = None, du: FormField | None = None
    ) -> tuple:
        """(g, g1, diagnostics) of v (Fourier) at t from one pass over its
        samples: g = g(v, t) as a new array, or with exact the full f - N(v)
        (or f - B(w, v)); g1 = g(v, t) from the same transforms when the
        stages form products, else None; diagnostics = _sample_diagnostics
        of v with r, else None.  v (and du = dbar v, when given) is read
        only for those.  A pass for the diagnostics alone (r, no products,
        not exact) gives g None."""
        products = self.m1 or (exact and self.m2)
        g = g1 = diagnostics = None
        if products or r is not None:
            w = None if self.base is None or not products else self._base_physical(t)
            g, g1, diagnostics = _quadratic(self.spec, v, w, exact, r, self._slab, du)
        if not products:
            # f alone, unless the pass was for the diagnostics only
            if exact or r is None:
                g = self.force(t).data.copy()
            return g, None, diagnostics
        f = self.force(t).data if self.forced else None
        for part in (g,) if g1 is None or g1 is g else (g, g1):
            np.negative(part, out=part)
            if f is not None:
                part += f
        return g, g1, diagnostics

    def load(
        self, u: FormField, t: float, exact: bool = False, r: float | None = None, du: FormField | None = None
    ) -> tuple:
        """Hand g(u, t) to the next step (when the stages need it) from one
        pass over the samples of u; returns (F, diagnostics): F the full
        f - N(u) (or f - B(w, u)) with exact, else None, and diagnostics
        as source() gives them."""
        g, self.g1, diagnostics = self.source(u, t, exact, r, du)
        return (g if exact else None), diagnostics

    def step(self, u: FormField, t: float, dt: float, E: np.ndarray) -> FormField:
        """Advance u (Fourier, solenoidal) from t by dt; takes over self.g1,
        g(u, t) when load() kept it, and forms it otherwise."""
        grid, q = self.grid, self.q
        # taken over: as an argument g1 lived through stage 2 (n = 3, N = 8 peak 3.91 -> 4.09 components)
        g1, self.g1 = self.g1, None
        if not (self.m1 or self.forced):
            return FormField(grid, q, E * u.data, FOURIER)
        k1 = leray_project(FormField(grid, q, self.source(u, t)[0] if g1 is None else g1, FOURIER)).data
        g1 = mid = None
        if self.m1:
            mid = dt * k1
            mid += u.data
            mid *= E
            mid = FormField(grid, q, mid, FOURIER)
        g2 = self.source(mid, t + dt)[0]
        mid = None
        k1 *= 0.5 * dt
        k1 += u.data
        k1 *= E
        g2 *= 0.5 * dt
        k1 += g2
        return leray_project(FormField(grid, q, k1, FOURIER))


def step_etd_heun(u_m: FormField, t_m: float, config: SimConfig) -> FormField:
    """Advance one step of the configured problem from a solenoidal,
    band-limited u_m at t_m."""
    grid = u_m.grid
    if (grid.n, grid.N) != (config.n, config.N) or u_m.q != config.q:
        raise ValueError(f"state with q={u_m.q} on {grid} does not match n={config.n}, N={config.N}, q={config.q}")
    kernel = _EtdHeun(config, grid)
    u = u_m.on(kernel.grid, "state").to_fourier()
    out = kernel.step(u, t_m, config.dt, heat_multiplier_grid(kernel.grid, config.mu, config.dt))
    if not np.all(np.isfinite(out.data)):
        raise BlowUpError(t_m + config.dt)
    return out.on(grid)


def _prepare_initial(config: SimConfig, u0: FormField) -> FormField:
    """The dealiased, projected initial state on the band view of its grid.
    Physical samples are transformed on the full lattice, so that a mode
    outside the band counts as moved on a band view too."""
    if u0.q != config.q:
        raise ValueError(f"initial data with q={u0.q} does not match q={config.q}")
    band = u0.grid.band
    u0f = u0.on(u0.grid.full).to_fourier() if u0.rep == PHYSICAL else u0
    coeffs = u0f.data if u0f.grid.banded else band.gather(u0f.data)
    u = leray_project(FormField(band, config.q, coeffs, FOURIER))
    scale = l2_norm(u0)
    if scale > 0.0:
        moved = l2_norm(u.on(u0f.grid) - u0f) / scale
        if moved > 1e-6:
            raise ValueError(
                f"initial data is not solenoidal/band-limited: projection moved it by {moved:.3e}"
            )
    return u


def _run_loop(config: SimConfig, u0: FormField, kernel: _EtdHeun, cfl: bool, sink=None) -> Trajectory:
    """Shared integration loop: per-step diagnostics, interval snapshots,
    optional CFL check before every step.  In shrink mode a violation
    refines dt by an integer factor and restarts the current interval from
    its start state, so output stamps never move.  Stepping, diagnostics,
    pressures and the stored snapshots all live on the kernel's band view.
    Each snapshot goes to sink (a SnapshotSink by default) as soon as it is
    recorded, and the sink's finish() makes the returned Trajectory."""
    r_lps, s_lps = config.lps_exponents
    band = kernel.grid
    cell = band.cell_volume

    u = _prepare_initial(config, u0)
    dt = config.dt
    stride = config.output_stride
    intervals = config.steps // stride
    interval_len = stride * config.dt
    E = heat_multiplier_grid(band, config.mu, dt)

    # the lps_accum column holds ||u||_{L^r}^s of each recorded state until
    # the loop ends, and then its integral
    diag = {name: [] for name in DIAGNOSTIC_COLUMNS}
    sink = SnapshotSink() if sink is None else sink

    def record(t, state, t_source, snapshot):
        """Append the diagnostics of state at t and hand its source at
        t_source to the kernel, in one pass over its samples; with snapshot,
        store state and its pressure, recovered from the full f - N(u) (or
        f - B(w, u)) of that pass.  Returns max |u|."""
        du = dbar(state)
        energy = 0.5 * l2_norm(state) ** 2
        dbn = l2_norm(du) ** 2
        dbs = l2_norm(dbar_star(state))
        F, (mx, power) = kernel.load(state, t_source, snapshot, r_lps, du)
        diag["lps_accum"].append(float((cell * power) ** (1.0 / r_lps)) ** s_lps)
        diag["t"].append(t)
        diag["energy"].append(energy)
        diag["dbar_norm_sq"].append(dbn)
        diag["dbar_star_residual"].append(dbs)
        diag["max_abs_u"].append(mx)
        if snapshot:
            # dbar* annihilates the solenoidal part of F, so recovering p
            # from F itself equals recovering it from F - P F
            sink.append(state, pressure_recover(FormField(band, config.q, F, FOURIER), check=False))
        return mx

    umax = record(0.0, u, 0.0, True)

    for k in range(intervals):
        t0 = k * interval_len
        start = (u, len(diag["t"]))
        m = 0
        while m < stride:
            t = t0 + m * dt
            if cfl:
                dt_max = config.cfl_safety * band.dx / max(1.0, umax)
                if dt > dt_max * (1.0 + 1e-12):
                    factor = math.ceil(dt / dt_max)
                    # honor the T/dt <= 1e7 budget even while refining
                    if config.cfl_mode == "fail" or stride * factor * intervals > 1e7:
                        raise CFLError(t, dt, dt_max)
                    dt = dt / factor
                    stride = stride * factor
                    E = heat_multiplier_grid(band, config.mu, dt)
                    if m > 0:
                        u, rows = start
                        for column in diag.values():
                            del column[rows:]
                        kernel.load(u, t0)
                        m, t = 0, t0
            u = kernel.step(u, t, dt, E)
            if not np.all(np.isfinite(u.data)):
                raise BlowUpError(t + dt)
            m += 1
            # the source goes to the next step at its t (a snapshot's t is
            # the next interval's t0)
            last = m == stride
            umax = record(t + dt, u, (k + 1) * interval_len if last else t0 + m * dt, last)

    stamps = np.arange(intervals + 1) * interval_len
    diagnostics = {name: np.asarray(vals) for name, vals in diag.items()}
    # the trapezoid rule, one interval after another
    g = diagnostics["lps_accum"]
    diagnostics["lps_accum"] = np.concatenate(([0.0], np.cumsum(0.5 * (g[:-1] + g[1:]) * np.diff(diagnostics["t"]))))
    return sink.finish(stamps, diagnostics, config)


# most |sum of a monomial's coefficients| / sum |c| that _pairing_cancels takes for zero
_PAIRING_TOL = 1e-12


def _pairing_cancels(m1_terms: tuple) -> bool:
    """Exact sufficient test that (M1(omega, v), v) vanishes pointwise.

    A term c[K][A][B] contributes c omega_A v_B conj(v_K) to the pointwise
    pairing, or c omega_A conj(v_B) conj(v_K) with conj_u set, which is
    symmetric in B and K.  When the coefficients of every such monomial sum
    to zero (relative to sum |c|), the pairing is the zero polynomial.
    """
    sums: dict = {}
    for t in m1_terms:
        b, k = tuple(t.b), tuple(t.k)
        key = (tuple(t.a), t.conj_u) + ((min(b, k), max(b, k)) if t.conj_u else (b, k))
        sums[key] = sums.get(key, 0.0) + complex(t.coeff)
    total = sum(abs(complex(t.coeff)) for t in m1_terms)
    return all(abs(s) <= _PAIRING_TOL * total for s in sums.values())


def simulate(config: SimConfig, u0: FormField, sink=None) -> Trajectory:
    """Integrate the nonlinear problem from u0 to T, handing each snapshot
    to sink (see SnapshotSink; default: kept in memory).

    The nonlinearity is admitted only if it satisfies the
    energy-cancellation hypothesis: exactly, when the M1 coefficients of
    every monomial of the pairing cancel (as they do for the Lamb and
    Stokes tables), otherwise empirically through verify_key1.
    """
    kernel = _EtdHeun(config, u0.grid)
    spec = config.nonlinearity
    if not _pairing_cancels(spec.tables(config.n, config.q)[0]):
        gate = verify_key1(spec, u0.grid.full, config.q, trials=20, seed=config.seed)
        if not gate["pass"]:
            raise ValueError(
                "nonlinearity violates the energy-cancellation hypothesis: "
                f"max normalized pairing {gate['max_normalized_pairing']:.3e}"
            )
    return _run_loop(config, u0, kernel, cfl=True, sink=sink)


def solve_linearized(w: Trajectory | None, config: SimConfig, u0: FormField, sink=None) -> Trajectory:
    """Integrate the problem linearized around the trajectory w, handing
    each snapshot to sink (see SnapshotSink; default: kept in memory).

    B(w(t), u) replaces N(u); w must be stored at every step of this run
    (stamp spacing equal to dt), or be None for w = 0.  Every base state's
    grid, bidegree and band membership is checked at entry, one state at a
    time, and the kernel reads w.velocities[m] again at step m, so a base
    read from disk on demand is never held whole.  No advective CFL
    adaptation is applied: the problem is linear in u.
    """
    grid = u0.grid
    if w is None:
        # B(0, .) = 0: the kernel steps the Stokes problem
        stokes = replace(config, nonlinearity=BilinearSpec.stokes())
        return _run_loop(config, u0, _EtdHeun(stokes, grid), cfl=False, sink=sink)
    kernel = _EtdHeun(config, grid, w.velocities)
    spacing = np.diff(w.stamps)
    if len(w.velocities) < config.steps + 1 or not np.allclose(spacing, config.dt, rtol=0, atol=1e-9 * config.dt):
        raise ValueError("base trajectory must be stored at every step (stamp spacing == dt)")
    for m, v in enumerate(w.velocities):
        if (v.grid.n, v.grid.N) != (grid.n, grid.N) or v.q != config.q:
            raise ValueError(f"base state {m} with q={v.q} on {v.grid} does not match q={config.q} on {grid}")
        v.on(grid.band, f"base state {m}")
    return _run_loop(config, u0, kernel, cfl=False, sink=sink)

