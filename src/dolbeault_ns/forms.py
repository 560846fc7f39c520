"""Multi-index bookkeeping, (0,q)-form fields, pairings and zero-order maps.

A (0,q)-form is stored as one complex scalar field per strictly increasing
multi-index J = (j_1 < ... < j_q), j_a in 1..n, in lexicographic order.
The component stack lives in a single array of shape (binom(n,q),) + grid
shape, tagged physical or fourier.

The two zero-order bilinear maps are

    M1 : (0,q+1) x (0,q) -> (0,q)      M2 : (0,q) x (0,q) -> (0,q-1)

with constant coefficients.  The built-in "lamb" choice (q = 1 only)

    M1(w, u)_k = sum_{j != k} eps(j,k) w_{sort(j,k)} conj(u_j),
    M2(u, w)   = sum_j u_j conj(w_j),

is the complex-torus counterpart of writing the advection term of the
incompressible equations in Lamb form (vorticity x velocity plus a
gradient).  Because the antisymmetric extension of w is contracted against
the symmetric tensor conj(v_j) conj(v_k), the pairing (M1(dbar w, v), v)
vanishes at every grid point, which is exactly the cancellation that
removes the nonlinearity from the energy balance.  Conjugation of the
second argument makes both maps R-bilinear rather than C-bilinear.
"""

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .spectral import FOURIER, PHYSICAL, SpectralGrid, apply_dealias

# -- multi-index algebra -----------------------------------------------------


@functools.lru_cache(maxsize=None)
def multi_indices(n: int, q: int) -> tuple:
    """All strictly increasing q-tuples from 1..n, lexicographically ordered."""
    if q < 0 or q > n:
        return ()
    return tuple(itertools.combinations(range(1, n + 1), q))


@functools.lru_cache(maxsize=None)
def _index_map(n: int, q: int) -> dict:
    return {J: m for m, J in enumerate(multi_indices(n, q))}


def index_of(n: int, J: tuple) -> int:
    """Position of J in the canonical enumeration of its length."""
    J = tuple(J)
    try:
        return _index_map(n, len(J))[J]
    except KeyError:
        raise ValueError(f"{J} is not a valid multi-index for n={n}") from None


def num_components(n: int, q: int) -> int:
    return len(multi_indices(n, q))


def insert_sign(j: int, J: tuple) -> tuple:
    """Sign and target of reordering dzbar_j ^ dzbar_J into canonical order.

    Returns (sign, K) with K = sorted(J + (j,)) and sign = (-1)^p where p
    counts the elements of J below j.  Raises if j already occurs in J.
    """
    J = tuple(J)
    if j < 1:
        raise ValueError(f"index {j} must be >= 1")
    if j in J:
        raise ValueError(f"duplicate index {j} in {J}")
    p = sum(1 for m in J if m < j)
    K = tuple(sorted(J + (j,)))
    return (-1) ** p, K


# -- form fields ---------------------------------------------------------------


@dataclass
class FormField:
    """A (0,q)-form on the grid: stacked component fields plus a rep flag.

    data has shape (binom(n,q),) + grid.shape, complex128.  Instances are
    treated as immutable; arithmetic returns new fields.
    """

    grid: SpectralGrid
    q: int
    data: np.ndarray
    rep: str

    def __post_init__(self):
        if not 0 <= self.q <= self.grid.n:
            raise ValueError(f"bidegree q={self.q} outside 0..{self.grid.n}")
        if self.rep not in (PHYSICAL, FOURIER):
            raise ValueError(f"unknown representation flag {self.rep!r}")
        want = (num_components(self.grid.n, self.q),) + self.grid.shape
        if self.data.shape != want:
            raise ValueError(f"component stack has shape {self.data.shape}, expected {want}")
        if self.data.dtype != np.complex128:
            self.data = self.data.astype(np.complex128)

    @classmethod
    def zeros(cls, grid: SpectralGrid, q: int, rep: str = FOURIER) -> "FormField":
        shape = (num_components(grid.n, q),) + grid.shape
        return cls(grid, q, np.zeros(shape, dtype=np.complex128), rep)

    @property
    def components(self) -> tuple:
        return multi_indices(self.grid.n, self.q)

    def component(self, J) -> np.ndarray:
        return self.data[index_of(self.grid.n, tuple(J))]

    def copy(self) -> "FormField":
        return FormField(self.grid, self.q, self.data.copy(), self.rep)

    def to_fourier(self) -> "FormField":
        if self.rep == FOURIER:
            return self
        return FormField(self.grid, self.q, self.grid.fft(self.data), FOURIER)

    def to_physical(self) -> "FormField":
        if self.rep == PHYSICAL:
            return self
        return FormField(self.grid, self.q, self.grid.ifft(self.data), PHYSICAL)

    def dealias(self) -> "FormField":
        f = self.to_fourier()
        out = FormField(self.grid, self.q, apply_dealias(self.grid, f.data), FOURIER)
        return out.to_physical() if self.rep == PHYSICAL else out

    # arithmetic (same grid, bidegree and representation)

    def _check_compatible(self, other: "FormField"):
        if self.grid != other.grid:
            raise ValueError("grid mismatch")
        if self.q != other.q:
            raise ValueError(f"bidegree mismatch: {self.q} vs {other.q}")
        if self.rep != other.rep:
            raise ValueError(f"representation mismatch: {self.rep} vs {other.rep}")

    def __add__(self, other: "FormField") -> "FormField":
        self._check_compatible(other)
        return FormField(self.grid, self.q, self.data + other.data, self.rep)

    def __sub__(self, other: "FormField") -> "FormField":
        self._check_compatible(other)
        return FormField(self.grid, self.q, self.data - other.data, self.rep)

    def __mul__(self, scalar) -> "FormField":
        return FormField(self.grid, self.q, self.data * scalar, self.rep)

    __rmul__ = __mul__

    def __neg__(self) -> "FormField":
        return FormField(self.grid, self.q, -self.data, self.rep)


def l2_inner(u: FormField, v: FormField) -> complex:
    """Sesquilinear L^2 pairing (u, v) = sum_J int u_J conj(v_J) dx.

    Rectangle-rule quadrature on physical samples, exact for trigonometric
    polynomials below the Nyquist limit.
    """
    u._check_compatible(v)
    if u.rep != PHYSICAL:
        raise ValueError("l2_inner requires physical representation")
    return complex(np.sum(u.data * np.conj(v.data)) * u.grid.cell_volume)


def l2_norm(u: FormField) -> float:
    """L^2 norm, computed in either representation (Parseval)."""
    s = float(np.sum(np.abs(u.data) ** 2))
    w = u.grid.cell_volume if u.rep == PHYSICAL else u.grid.volume
    return float(np.sqrt(w * s))


def random_form(
    grid: SpectralGrid,
    q: int,
    rng: np.random.Generator,
    decay: float = 2.0,
    band_limit: bool = True,
    mean_zero: bool = True,
) -> FormField:
    """Random band-limited Fourier field with |zeta|^{-decay} mode amplitudes."""
    shape = (num_components(grid.n, q),) + grid.shape
    coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    zsq = grid.zeta_sq.copy()
    zsq.flat[0] = 1.0
    coeffs *= zsq ** (-decay / 2.0)
    if mean_zero:
        coeffs[(slice(None),) + (0,) * grid.dim] = 0.0
    if band_limit:
        coeffs = apply_dealias(grid, coeffs)
    return FormField(grid, q, coeffs, FOURIER)


# -- bilinear zero-order maps ---------------------------------------------------

KIND_STOKES = "stokes"
KIND_LAMB = "lamb"
KIND_CUSTOM = "custom"


@dataclass(frozen=True)
class CustomTerm:
    """One sparse tensor entry c[k][a][b] of a custom bilinear map.

    The term contributes coeff * first[a] * second[b] to component k, with
    the second argument conjugated when conj_u is set.
    """

    k: tuple
    a: tuple
    b: tuple
    coeff: complex
    conj_u: bool = False


@dataclass(frozen=True)
class BilinearSpec:
    """Choice of the (M1, M2) pair: stokes (both zero), lamb, or custom tensors."""

    kind: str
    m1_terms: tuple = ()
    m2_terms: tuple = ()

    @classmethod
    def stokes(cls) -> "BilinearSpec":
        return cls(KIND_STOKES)

    @classmethod
    def lamb(cls) -> "BilinearSpec":
        return cls(KIND_LAMB)

    @classmethod
    def custom(cls, m1_terms, m2_terms) -> "BilinearSpec":
        return cls(KIND_CUSTOM, tuple(m1_terms), tuple(m2_terms))

    def validate_for(self, n: int, q: int):
        if self.kind not in (KIND_STOKES, KIND_LAMB, KIND_CUSTOM):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind == KIND_LAMB and q != 1:
            raise ValueError("lamb nonlinearity is only admissible for q = 1")
        if self.kind == KIND_CUSTOM:
            for t in self.m1_terms:
                _check_term(n, t, len_k=q, len_a=q + 1, len_b=q)
            for t in self.m2_terms:
                _check_term(n, t, len_k=q - 1, len_a=q, len_b=q)

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.kind == KIND_CUSTOM:
            doc["m1"] = {"entries": [_term_to_json(t) for t in self.m1_terms]}
            doc["m2"] = {"entries": [_term_to_json(t) for t in self.m2_terms]}
        return doc

    @classmethod
    def from_json(cls, doc) -> "BilinearSpec":
        if isinstance(doc, str):
            doc = json.loads(doc)
        kind = doc.get("kind")
        if kind in (KIND_STOKES, KIND_LAMB):
            return cls(kind)
        if kind != KIND_CUSTOM:
            raise ValueError(f"unknown nonlinearity kind {kind!r}")
        m1 = tuple(_term_from_json(e) for e in doc.get("m1", {}).get("entries", ()))
        m2 = tuple(_term_from_json(e) for e in doc.get("m2", {}).get("entries", ()))
        return cls.custom(m1, m2)


def _check_term(n: int, t: CustomTerm, len_k: int, len_a: int, len_b: int):
    for label, idx, want in (("K", t.k, len_k), ("A", t.a, len_a), ("B", t.b, len_b)):
        idx = tuple(idx)
        if len(idx) != want:
            raise ValueError(f"tensor entry {label}={idx} has length {len(idx)}, expected {want}")
        if any(not 1 <= m <= n for m in idx) or list(idx) != sorted(set(idx)):
            raise ValueError(f"tensor entry {label}={idx} is not a strictly increasing multi-index in 1..{n}")


def _term_to_json(t: CustomTerm) -> dict:
    return {
        "K": list(t.k),
        "A": list(t.a),
        "B": list(t.b),
        "re": t.coeff.real,
        "im": t.coeff.imag,
        "conj_u": t.conj_u,
    }


def _term_from_json(e: dict) -> CustomTerm:
    return CustomTerm(
        k=tuple(e["K"]),
        a=tuple(e["A"]),
        b=tuple(e["B"]),
        coeff=complex(e.get("re", 0.0), e.get("im", 0.0)),
        conj_u=bool(e.get("conj_u", False)),
    )


def apply_m1(spec: BilinearSpec, omega: FormField, u: FormField) -> FormField:
    """Pointwise M1(omega, u): (0,q+1) x (0,q) -> (0,q)."""
    if omega.grid != u.grid:
        raise ValueError("grid mismatch")
    if omega.q != u.q + 1:
        raise ValueError(f"M1 needs bidegrees (q+1, q), got ({omega.q}, {u.q})")
    if omega.rep != PHYSICAL or u.rep != PHYSICAL:
        raise ValueError("apply_m1 requires physical representation")
    spec.validate_for(u.grid.n, u.q)

    out = FormField.zeros(u.grid, u.q, PHYSICAL)
    if spec.kind == KIND_STOKES:
        return out
    n = u.grid.n
    if spec.kind == KIND_LAMB:
        uc = np.conj(u.data)
        for k in range(1, n + 1):
            acc = out.data[index_of(n, (k,))]
            for j in range(1, n + 1):
                if j == k:
                    continue
                eps = 1.0 if j < k else -1.0
                pair = (j, k) if j < k else (k, j)
                acc += eps * omega.component(pair) * uc[index_of(n, (j,))]
        return out
    for t in spec.m1_terms:
        second = u.component(t.b)
        if t.conj_u:
            second = np.conj(second)
        out.data[index_of(n, t.k)] += t.coeff * omega.component(t.a) * second
    return out


def apply_m2(spec: BilinearSpec, u: FormField, w: FormField) -> FormField:
    """Pointwise M2(u, w): (0,q) x (0,q) -> (0,q-1)."""
    u._check_compatible(w)
    if u.q < 1:
        raise ValueError("M2 requires bidegree q >= 1")
    if u.rep != PHYSICAL:
        raise ValueError("apply_m2 requires physical representation")
    spec.validate_for(u.grid.n, u.q)

    out = FormField.zeros(u.grid, u.q - 1, PHYSICAL)
    if spec.kind == KIND_STOKES:
        return out
    n = u.grid.n
    if spec.kind == KIND_LAMB:
        out.data[0] = np.sum(u.data * np.conj(w.data), axis=0)
        return out
    for t in spec.m2_terms:
        second = w.component(t.b)
        if t.conj_u:
            second = np.conj(second)
        out.data[index_of(n, t.k)] += t.coeff * u.component(t.a) * second
    return out
