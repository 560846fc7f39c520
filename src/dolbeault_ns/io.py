"""Field and trajectory persistence, initial-data generation, config files.

A field on disk is a directory with a JSON manifest plus one raw binary
blob per component: little-endian IEEE-754 double pairs (re, im), row-major
over the grid axes, components in canonical multi-index order.  Every blob
carries a CRC-32 in the manifest; loads verify schema version, byte counts
and checksums before any field is constructed.  The manifest's time stamp
is the simulation time of the snapshot (never the wall clock), so rerunning
the same configuration and seed reproduces output directories bit for bit.

A trajectory directory is

    manifest.json        config echo, config hash, stamps
    diagnostics.csv      t, energy, dbar_norm_sq, dbar_star_residual,
                         max_abs_u, lps_accum (one row per time step)
    u_000000/ ...        velocity snapshots
    p_000000/ ...        pressure snapshots
"""

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dolbeault import leray_project
from .dynamics import DIAGNOSTIC_COLUMNS, SimConfig, Trajectory
from .forms import FormField, index_of, multi_indices, num_components, random_form
from .spectral import FOURIER, SpectralGrid, apply_dealias

FIELD_SCHEMA = "dolbeault-ns.field/1"
TRAJECTORY_SCHEMA = "dolbeault-ns.trajectory/1"


class FieldFormatError(RuntimeError):
    """Version mismatch, truncation or checksum failure in stored data."""


# -- initial data -------------------------------------------------------------------


@dataclass
class InitialSpec:
    """Initial-condition generator choice.

    kinds:
      random_solenoidal  - Gaussian modes with |zeta|^{-decay} amplitudes,
                           dealiased and projected
      single_mode        - one Fourier mode, projected
      taylor_green_analog- q = 1 low-mode stencil u_k = sin(x_k + x_{k+n}),
                           projected
      file               - load a stored field
    """

    kind: str = "random_solenoidal"
    decay: float = 3.0
    zeta: tuple = ()
    component: tuple = ()
    amplitude: complex = 1.0
    path: str = ""

    @classmethod
    def from_json(cls, doc) -> "InitialSpec":
        if isinstance(doc, str):
            doc = json.loads(doc)
        kind = doc.get("kind", "random_solenoidal")
        amp = doc.get("amplitude", [1.0, 0.0])
        if isinstance(amp, (int, float)):
            amp = [float(amp), 0.0]
        return cls(
            kind=kind,
            decay=float(doc.get("decay", 3.0)),
            zeta=tuple(doc.get("zeta", ())),
            component=tuple(doc.get("component", ())),
            amplitude=complex(amp[0], amp[1]),
            path=str(doc.get("path", "")),
        )


def gen_initial(spec: InitialSpec, config: SimConfig, grid: SpectralGrid | None = None) -> FormField:
    """Build a solenoidal, band-limited initial condition for the run."""
    if grid is None:
        grid = config.make_grid()
    q = config.q
    if spec.kind == "random_solenoidal":
        rng = np.random.default_rng(config.seed)
        return leray_project(random_form(grid, q, rng, decay=spec.decay))
    if spec.kind == "single_mode":
        u = FormField.zeros(grid, q, FOURIER)
        idx = (index_of(grid.n, tuple(spec.component)),) + grid.mode_index(spec.zeta)
        u.data[idx] = complex(spec.amplitude)
        u = FormField(grid, q, apply_dealias(grid, u.data), FOURIER)
        return leray_project(u)
    if spec.kind == "taylor_green_analog":
        if q != 1:
            raise ValueError("taylor_green_analog is a (0,1)-form initial condition")
        u = FormField.zeros(grid, q, FOURIER)
        # u_k = sin(x_{k'} + x_{k'+n}) with k' the cyclically next complex
        # direction: coefficients -i/2 and +i/2 at +/-(e_{k'} + e_{k'+n}).
        # The cross structure makes every component solenoidal outright,
        # mirroring the classical cellular-vortex initial data.
        for k in range(1, grid.n + 1):
            kn = k % grid.n + 1
            plus = [0] * grid.dim
            plus[kn - 1] = 1
            plus[kn - 1 + grid.n] = 1
            minus = [-z for z in plus]
            ci = index_of(grid.n, (k,))
            u.data[(ci,) + grid.mode_index(plus)] = -0.5j
            u.data[(ci,) + grid.mode_index(minus)] = 0.5j
        return leray_project(u)
    if spec.kind == "file":
        return load_field(spec.path, grid=grid)
    raise ValueError(f"unknown initial-condition kind {spec.kind!r}")


# -- config files --------------------------------------------------------------------


def config_hash(config: SimConfig) -> str:
    canonical = json.dumps(config.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_config(path) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        return SimConfig.from_json(json.load(fh))


def save_config(path, config: SimConfig):
    Path(path).write_text(json.dumps(config.to_json(), indent=2, sort_keys=True), encoding="utf-8")


# -- field persistence ----------------------------------------------------------------


def _component_bytes(field: FormField, ci: int) -> bytes:
    return np.ascontiguousarray(field.data[ci]).astype("<c16", copy=False).tobytes()


def save_field(path, field: FormField, sim_time: float = 0.0, seed=None, cfg_hash=None):
    """Write a field directory: manifest.json plus one blob per component."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    blobs = []
    for ci in range(field.data.shape[0]):
        raw = _component_bytes(field, ci)
        name = f"comp_{ci:03d}.bin"
        (out / name).write_bytes(raw)
        blobs.append({"file": name, "crc32": zlib.crc32(raw)})
    manifest = {
        "schema": FIELD_SCHEMA,
        "n": field.grid.n,
        "N": field.grid.N,
        "q": field.q,
        "representation": field.rep,
        "components": [list(J) for J in field.components],
        "bytes_per_component": field.grid.size * 16,
        "blobs": blobs,
        "sim_time": sim_time,
        "seed": seed,
        "config_hash": cfg_hash,
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )


def load_field(path, grid: SpectralGrid | None = None) -> FormField:
    """Read a field directory back; verifies schema, sizes, checksums and
    that every value is finite."""
    root = Path(path)
    try:
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise FieldFormatError(f"no field manifest under {root}") from exc
    if manifest.get("schema") != FIELD_SCHEMA:
        raise FieldFormatError(
            f"unsupported field schema {manifest.get('schema')!r}, expected {FIELD_SCHEMA}"
        )
    n, N, q = int(manifest["n"]), int(manifest["N"]), int(manifest["q"])
    if grid is None:
        grid = SpectralGrid(n, N)
    elif (grid.n, grid.N) != (n, N):
        raise FieldFormatError(f"stored grid (n={n}, N={N}) does not match {grid}")
    expected = [list(J) for J in multi_indices(n, q)]
    if manifest["components"] != expected:
        raise FieldFormatError("component list does not match the canonical enumeration")
    nbytes = int(manifest["bytes_per_component"])
    if nbytes != grid.size * 16:
        raise FieldFormatError("byte layout does not match the grid size")

    data = np.empty((num_components(n, q),) + grid.shape, dtype=np.complex128)
    for ci, blob in enumerate(manifest["blobs"]):
        raw = (root / blob["file"]).read_bytes()
        if len(raw) != nbytes:
            raise FieldFormatError(f"blob {blob['file']} is truncated ({len(raw)} of {nbytes} bytes)")
        if zlib.crc32(raw) != blob["crc32"]:
            raise FieldFormatError(f"checksum failure in {blob['file']}")
        data[ci] = np.frombuffer(raw, dtype="<c16").reshape(grid.shape)
        if not np.all(np.isfinite(data[ci])):
            raise FieldFormatError(f"non-finite values in {blob['file']}")
    return FormField(grid, q, data, manifest["representation"])


# -- trajectory persistence --------------------------------------------------------------


def save_trajectory(path, traj: Trajectory):
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    cfg = traj.config
    h = config_hash(cfg)
    manifest = {
        "schema": TRAJECTORY_SCHEMA,
        "config": cfg.to_json(),
        "config_hash": h,
        "stamps": [float(t) for t in traj.stamps],
        "snapshots": len(traj.velocities),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    lines = [",".join(DIAGNOSTIC_COLUMNS)]
    for row in range(len(traj.diagnostics["t"])):
        lines.append(",".join(repr(float(traj.diagnostics[c][row])) for c in DIAGNOSTIC_COLUMNS))
    (out / "diagnostics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for m, (u, p) in enumerate(zip(traj.velocities, traj.pressures)):
        t = float(traj.stamps[m])
        save_field(out / f"u_{m:06d}", u, sim_time=t, seed=cfg.seed, cfg_hash=h)
        save_field(out / f"p_{m:06d}", p, sim_time=t, seed=cfg.seed, cfg_hash=h)


def load_trajectory(path) -> Trajectory:
    root = Path(path)
    try:
        manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise FieldFormatError(f"no trajectory manifest under {root}") from exc
    if manifest.get("schema") != TRAJECTORY_SCHEMA:
        raise FieldFormatError(
            f"unsupported trajectory schema {manifest.get('schema')!r}, expected {TRAJECTORY_SCHEMA}"
        )
    cfg = SimConfig.from_json(manifest["config"])
    grid = cfg.make_grid()
    stamps = np.asarray(manifest["stamps"], dtype=float)
    count = int(manifest["snapshots"])
    velocities = [load_field(root / f"u_{m:06d}", grid=grid) for m in range(count)]
    pressures = [load_field(root / f"p_{m:06d}", grid=grid) for m in range(count)]

    text = (root / "diagnostics.csv").read_text(encoding="utf-8").strip().splitlines()
    header = text[0].split(",")
    if tuple(header) != DIAGNOSTIC_COLUMNS:
        raise FieldFormatError(f"unexpected diagnostics columns {header}")
    rows = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    diagnostics = {c: rows[:, i] for i, c in enumerate(DIAGNOSTIC_COLUMNS)}
    return Trajectory(stamps, velocities, pressures, diagnostics, cfg)
