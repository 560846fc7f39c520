"""Multi-index bookkeeping, (0,q)-form fields, pairings and zero-order maps.

A (0,q)-form is stored as one complex scalar field per strictly increasing
multi-index J = (j_1 < ... < j_q), j_a in 1..n, in lexicographic order.
The component stack lives in a single array of shape (binom(n,q),) + grid
shape, tagged physical or fourier.

The two zero-order bilinear maps are

    M1 : (0,q+1) x (0,q) -> (0,q)      M2 : (0,q) x (0,q) -> (0,q-1)

with constant coefficients: each is a sparse tensor table of entries
c[K][A][B] (CustomTerm), and every table is evaluated by the same term
loop, one output component K at a time, so a caller can form and use one
component before the next.  The built-in "lamb" choice (q = 1 only) is
the constant table of

    M1(w, u)_k = sum_{j != k} eps(j,k) w_{sort(j,k)} conj(u_j),
    M2(u, w)   = sum_j u_j conj(w_j),

the complex-torus counterpart of writing the advection term of the
incompressible equations in Lamb form (vorticity x velocity plus a
gradient); "stokes" is the empty table.  Because the antisymmetric
extension of w is contracted against the symmetric tensor
conj(v_j) conj(v_k), the pairing (M1(dbar w, v), v) vanishes at every grid
point, which is exactly the cancellation that removes the nonlinearity from
the energy balance.  Conjugation of the second argument makes both maps
R-bilinear rather than C-bilinear.
"""

import dataclasses
import functools
import itertools
import math
import typing
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


def _rep_shape(grid: SpectralGrid, rep: str) -> tuple:
    return grid.fourier_shape if rep == FOURIER else grid.shape


# bound on what the forward transform of band-limited samples leaves outside
# the band, relative to its largest coefficient; measured at most 1.5e-16
# (random_form samples at n = 2..4, N = 4..16)
_BAND_ROUNDING = 1e-13


def _outside_band(what: str, grid: SpectralGrid) -> ValueError:
    return ValueError(f"{what} has nonzero modes outside the 2/3-rule band |zeta_a| <= N/3 = {grid.N // 3}")


@dataclass
class FormField:
    """A (0,q)-form on the grid: stacked component fields plus a rep flag.

    data has shape (binom(n,q),) + grid.shape in the physical and
    (binom(n,q),) + grid.fourier_shape in the Fourier representation,
    complex128.  Instances are treated as immutable; arithmetic returns new
    fields.
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
        want = (num_components(self.grid.n, self.q),) + _rep_shape(self.grid, self.rep)
        if self.data.shape != want:
            raise ValueError(f"component stack has shape {self.data.shape}, expected {want}")
        if self.data.dtype != np.complex128:
            self.data = self.data.astype(np.complex128)

    @classmethod
    def zeros(cls, grid: SpectralGrid, q: int, rep: str = FOURIER) -> "FormField":
        shape = (num_components(grid.n, q),) + _rep_shape(grid, rep)
        return cls(grid, q, np.zeros(shape, dtype=np.complex128), rep)

    @classmethod
    def slab(cls, grid: SpectralGrid, q: int, data: np.ndarray) -> "FormField":
        """Physical samples of one slab of last-axis indices (spectral.
        SlabStream), shape (binom(n,q),) + grid.shape[:-1] + (width,): an
        argument of apply_m1 and apply_m2 with k, the only maps that take it."""
        want = (num_components(grid.n, q),) + grid.shape[:-1]
        if data.shape[:-1] != want or not 0 < data.shape[-1] <= grid.N or data.dtype != np.complex128:
            raise ValueError(f"slab samples have shape {data.shape} and dtype {data.dtype}, expected {want} + (width,)")
        field = object.__new__(cls)
        field.grid, field.q, field.data, field.rep = grid, q, data, PHYSICAL
        return field

    @property
    def components(self) -> tuple:
        return multi_indices(self.grid.n, self.q)

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

    def on(self, grid: SpectralGrid, what: str = "field") -> "FormField":
        """This field on grid, the full lattice or the band view of its own
        (n, N), in its own representation: the one way into and out of
        the 2/3-rule band.

        Onto the full lattice, band coefficients are scattered and anything
        else is re-tagged.  Onto the band, band coefficients pass as they
        are, full-lattice ones are gathered and samples are re-tagged.  The
        2/3 rule dealiases only band-limited fields, so a field with a mode
        outside the band raises ValueError naming what: full-lattice
        coefficients must be exactly zero there, and samples, on either
        view, may leave no more than rounding there in their full-lattice
        transform.  Nothing is copied that keeps its layout.
        """
        if self.rep == FOURIER and self.grid.banded != grid.banded:
            if self.grid.banded:
                return FormField(grid, self.q, self.grid.scatter(self.data), FOURIER)
            if np.any(self.data, where=~self.grid.dealias_mask):
                raise _outside_band(what, grid)
            return FormField(grid, self.q, grid.gather(self.data), FOURIER)
        if self.rep == PHYSICAL and grid.banded:
            modulus = np.abs(grid.full.fft(self.data))
            outside = np.max(modulus, where=~grid.full.dealias_mask, initial=0.0)
            if outside > _BAND_ROUNDING * np.max(modulus):
                raise _outside_band(what, grid)
        return self if self.grid == grid else FormField(grid, self.q, self.data, self.rep)

    # arithmetic (same grid, bidegree and representation)

    def _check_compatible(self, other: "FormField"):
        if self.grid != other.grid:
            raise ValueError(f"grid mismatch: {self.grid} vs {other.grid}")
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
    shape = (num_components(grid.n, q),) + grid.fourier_shape
    coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return _shaped_modes(grid, q, coeffs, decay, band_limit, mean_zero)


def _random_lattice_form(grid: SpectralGrid, q: int, rng: np.random.Generator, decay: float) -> FormField:
    """random_form(grid.full, q, rng, decay).on(grid), bit for bit, without a
    full-lattice field: the same draws, one full-lattice component at a time
    (the real parts of every component, then the imaginary parts, the order
    of random_form's two draws), keeping only grid's modes of each."""
    parts = np.empty((2, num_components(grid.n, q)) + grid.fourier_shape)
    for part in parts.reshape((-1,) + grid.fourier_shape):
        part[...] = grid.gather(rng.standard_normal(grid.full.shape))
    coeffs = (parts[0] + 1j * parts[1]) / np.sqrt(2.0)
    return _shaped_modes(grid, q, coeffs, decay, True, True)


def _shaped_modes(grid, q, coeffs, decay, band_limit, mean_zero) -> FormField:
    """Gaussian coefficients scaled by |zeta|^{-decay}, with the zero mode
    and the modes outside the band optionally zeroed, as a Fourier field."""
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
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def stokes(cls) -> "BilinearSpec":
        return cls(KIND_STOKES)

    @classmethod
    def lamb(cls) -> "BilinearSpec":
        return cls(KIND_LAMB)

    @classmethod
    def custom(cls, m1_terms, m2_terms) -> "BilinearSpec":
        return cls(KIND_CUSTOM, tuple(m1_terms), tuple(m2_terms))

    def tables(self, n: int, q: int) -> tuple:
        """The (M1, M2) tensor entries at (n, q), validated on first use:
        none for stokes, the q = 1 tensor of the module docstring for lamb
        (k ascending, then j != k ascending), the given entries for custom."""
        return self._compile(n, q)[0]

    def _compile(self, n: int, q: int) -> tuple:
        """(tables, rows): rows[t][k] holds the entries of table t on output
        component k, in table order, as the component indices and
        coefficient (a, b, coeff, conj_u) that _contract reads."""
        entry = self._cache.get((n, q))
        if entry is None:
            self.validate_for(n, q)
            tables = _lamb_tables(n) if self.kind == KIND_LAMB else (self.m1_terms, self.m2_terms)
            rows = tuple(
                _component_rows(n, terms, num_components(n, out_q)) for terms, out_q in zip(tables, (q, q - 1))
            )
            entry = self._cache[(n, q)] = (tables, rows)
        return entry

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
    def from_json(cls, doc: dict) -> "BilinearSpec":
        kind = _json_value(_json_object(doc, "nonlinearity"), "kind", str, "nonlinearity", None)
        if kind in (KIND_STOKES, KIND_LAMB):
            return cls(kind)
        if kind != KIND_CUSTOM:
            raise ValueError(f"unknown nonlinearity kind {kind!r}")
        tables = []
        for part in ("m1", "m2"):
            block = _json_value(doc, part, dict, "nonlinearity", {})
            entries = _json_value(block, "entries", list, f"nonlinearity {part}", [])
            tables.append(tuple(_term_from_json(e, f"nonlinearity {part} entry {i}") for i, e in enumerate(entries)))
        return cls.custom(*tables)


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


def _term_from_json(e, where: str) -> CustomTerm:
    _json_object(e, where)
    return CustomTerm(
        k=_json_value(e, "K", (int,), where),
        a=_json_value(e, "A", (int,), where),
        b=_json_value(e, "B", (int,), where),
        coeff=complex(_json_value(e, "re", float, where, 0.0), _json_value(e, "im", float, where, 0.0)),
        conj_u=_json_value(e, "conj_u", bool, where, False),
    )


def _lamb_tables(n: int) -> tuple:
    """The q = 1 Lamb pair of the module docstring as tensor entries."""
    m1 = tuple(
        CustomTerm(k=(k,), a=(min(j, k), max(j, k)), b=(j,), coeff=complex(1.0 if j < k else -1.0), conj_u=True)
        for k in range(1, n + 1)
        for j in range(1, n + 1)
        if j != k
    )
    m2 = tuple(CustomTerm(k=(), a=(j,), b=(j,), coeff=1 + 0j, conj_u=True) for j in range(1, n + 1))
    return m1, m2


def _component_rows(n: int, terms: tuple, size: int) -> tuple:
    """The entries of terms grouped by output component, each group in
    table order."""
    rows = [[] for _ in range(size)]
    for t in terms:
        rows[index_of(n, t.k)].append((index_of(n, t.a), index_of(n, t.b), t.coeff, t.conj_u))
    return tuple(map(tuple, rows))


def _contract(rows: tuple, first: np.ndarray, second: np.ndarray, out: np.ndarray):
    """out = sum of (coeff * first[a]) * second[b] over the entries of one
    output component, in their order, with second[b] conjugated when conj_u
    is set; zero for no entries.  A coefficient of +-1 becomes the sign of
    the accumulation, which rounds the same.

    The products are pointwise over the whole of out: one slab of a
    streamed pass (spectral.SlabStream) in a run, a whole component
    elsewhere.  The first entry is formed in out, its conjugate in place;
    later entries, and a first one that needs both a general coefficient
    and a conjugate, go through scratch of out's size.
    """
    if not rows:
        out.fill(0.0)
        return
    tmp = scaled = None
    for i, (a, b, coeff, conj_u) in enumerate(rows):
        x, y = first[a], second[b]
        if i:
            tmp = np.empty_like(out) if tmp is None else tmp
        target = tmp if i else out
        if coeff not in (1, -1):
            if conj_u:
                scaled = np.empty_like(out) if scaled is None else scaled
            x = np.multiply(coeff, x, out=scaled if conj_u else target)
        if conj_u:
            y = np.conj(y, out=target)
        np.multiply(x, y, out=target)
        if i:
            (np.subtract if coeff == -1 else np.add)(out, target, out=out)
        elif coeff == -1:
            # 0 - x, as a sum started from zero rounds
            np.subtract(0.0, out, out=out)


def _apply(rows: tuple, first: np.ndarray, second: np.ndarray, grid: SpectralGrid, q: int, k, out):
    """The (0,q) field of the rows' contraction, or its component k (see apply_m1)."""
    if k is not None:
        out = np.empty(second.shape[1:], dtype=np.complex128) if out is None else out
        _contract(rows[k], first, second, out)
        return out
    f = FormField(grid, q, np.empty((len(rows),) + grid.shape, dtype=np.complex128), PHYSICAL)
    for k, rows_k in enumerate(rows):
        _contract(rows_k, first, second, f.data[k])
    return f


def apply_m1(spec: BilinearSpec, omega: FormField, u: FormField, k: int | None = None, out=None):
    """Pointwise M1(omega, u): (0,q+1) x (0,q) -> (0,q), a new field formed
    one component at a time; with k, only component k, as an array of one
    component's samples: out when given, else a new one.  With k the
    arguments may hold the samples of one slab (FormField.slab)."""
    if omega.grid != u.grid:
        raise ValueError(f"grid mismatch: {omega.grid} vs {u.grid}")
    if omega.q != u.q + 1:
        raise ValueError(f"M1 needs bidegrees (q+1, q), got ({omega.q}, {u.q})")
    if omega.rep != PHYSICAL or u.rep != PHYSICAL:
        raise ValueError(f"apply_m1 requires physical representation, got {omega.rep} and {u.rep}")
    return _apply(spec._compile(u.grid.n, u.q)[1][0], omega.data, u.data, u.grid, u.q, k, out)


def apply_m2(spec: BilinearSpec, u: FormField, w: FormField, k: int | None = None, out=None):
    """Pointwise M2(u, w): (0,q) x (0,q) -> (0,q-1), a new field formed one
    component at a time; with k, only component k, as in apply_m1."""
    u._check_compatible(w)
    if u.q < 1:
        raise ValueError("M2 requires bidegree q >= 1")
    if u.rep != PHYSICAL:
        raise ValueError(f"apply_m2 requires physical representation, got {u.rep}")
    return _apply(spec._compile(u.grid.n, u.q)[1][1], u.data, w.data, u.grid, u.q - 1, k, out)


# -- JSON documents ------------------------------------------------------------

_REQUIRED = object()
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false", list: "a list",
               dict: "a JSON object", (int,): "a list of integers", (float,): "a list of numbers"}


def _json_object(doc, where: str) -> dict:
    """doc, checked to be a JSON object."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    return doc


def _json_value(doc: dict, key: str, kind, where: str, default=_REQUIRED):
    """doc[key] as kind, or default when the key is absent; ValueError
    naming the key otherwise.  int takes integral numbers, float any
    number (neither takes a bool), and (int,) or (float,) a list of them."""
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"{where} lacks the required key {key!r}")
        return default
    value = doc[key]
    if isinstance(kind, tuple):
        if isinstance(value, (list, tuple)) and all(_is_number(v, kind[0]) for v in value):
            return tuple(kind[0](v) for v in value)
    elif kind in (int, float):
        if _is_number(value, kind):
            return kind(value)
    elif isinstance(value, kind):
        return value
    raise ValueError(f"{where} key {key!r} must be {_KIND_NAMES[kind]}, got {value!r:.40}")


def _json_fields(cls, doc: dict, where: str, required: tuple = ()) -> dict:
    """The keyword arguments of dataclass cls that the JSON object doc
    holds, in field order, each read as its field's type: a tuple as a list
    of integers, a complex number as a number or [re, im], an optional type
    as null or that type, and a type with from_json as a JSON object handed
    to it.  A missing key keeps its field's default; a field without one,
    or one named in required, raises ValueError naming the key."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in doc:
            kwargs[f.name] = _json_typed(doc, f.name, f.type, where)
        elif f.name in required or (f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING):
            raise ValueError(f"{where} lacks the required key {f.name!r}")
    return kwargs


def _json_typed(doc: dict, key: str, kind, where: str):
    """doc[key] read as the annotated type kind (see _json_fields)."""
    options = typing.get_args(kind)
    if type(None) in options:
        return None if doc[key] is None else _json_typed(doc, key, options[0], where)
    if hasattr(kind, "from_json"):
        return kind.from_json(_json_value(doc, key, dict, where))
    if kind is complex:
        if not isinstance(doc[key], list):
            return complex(_json_value(doc, key, float, where))
        parts = _json_value(doc, key, (float,), where)
        if len(parts) != 2:
            raise ValueError(f"{where} key {key!r} must be [re, im], got {list(parts)!r:.40}")
        return complex(*parts)
    return _json_value(doc, key, (int,) if kind is tuple else kind, where)


def _is_number(value, kind) -> bool:
    """Whether value is a finite JSON number that converts to kind exactly:
    any for float (short of overflow), an integral one for int.  Python's
    json reads NaN and Infinity, which no key takes."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if isinstance(value, float):
        return math.isfinite(value) and (kind is float or value.is_integer())
    return kind is int or abs(value) < 2**1023
