"""Field and trajectory persistence, initial-data generation, config files.

A stored component is a raw blob of little-endian IEEE-754 double pairs
(re, im), row-major over the grid axes, with its CRC-32 in a JSON manifest.
Loads verify the schema version, the manifest keys, byte counts, checksums
and that every value is finite before any field is constructed.  Time
stamps are simulation time (never the wall clock), so rerunning the same
configuration and seed reproduces output directories bit for bit.

A field directory (schema dolbeault-ns.field/1: --u0, forcing files and the
pressure tool) is manifest.json plus one blob comp_NNN.bin per component,
components in canonical multi-index order.  Its blobs hold the full lattice
(N^{2n} values each): a field moves to it with FormField.on when saved, and
back onto a band view, with the band check of FormField.on, when loaded
there.

A trajectory directory (schema dolbeault-ns.trajectory/3) is three files,
written in this order:

    fields.bin           one record per field in snapshot order u_0, p_0,
                         u_1, p_1, ...; a record is the field's component
                         blobs laid end to end, on the band view of the
                         run's grid: binom(n, q) x M^{2n} values for a
                         Fourier field (M = 2 (N // 3) + 1, the 2/3-rule
                         modes), binom(n, q) x N^{2n} for physical samples
    diagnostics.csv      t, energy, dbar_norm_sq, dbar_star_residual,
                         max_abs_u, lps_accum (one row per time step)
    manifest.json        config echo, config hash, stamps, snapshot count,
                         the total byte count of fields.bin and its index:
                         per record kind, snapshot, q, representation, byte
                         offset and one CRC-32 per component

In both kinds of directory the manifest is written last, to a temporary
file renamed into place, after any old manifest is removed, so a directory
with a manifest holds a complete field or trajectory; what a power loss
could leave behind fails the size or checksum checks.  Loads also check the
config echo against its hash.  Trajectories of schema
dolbeault-ns.trajectory/2 (the same files with full-lattice records) and
dolbeault-ns.trajectory/1 (one field directory per snapshot, u_000000/,
p_000000/, ...) are still read: each record moves onto the band with
FormField.on, and one with a mode outside it is rejected.
"""

import hashlib
import json
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dolbeault import leray_project
from .dynamics import DIAGNOSTIC_COLUMNS, SimConfig, Trajectory
from .forms import (
    FormField,
    _json_fields,
    _json_object,
    _json_value,
    _random_lattice_form,
    index_of,
    multi_indices,
    num_components,
)
from .spectral import FOURIER, SpectralGrid

FIELD_SCHEMA = "dolbeault-ns.field/1"
TRAJECTORY_SCHEMA = "dolbeault-ns.trajectory/3"
TRAJECTORY_SCHEMA_V2 = "dolbeault-ns.trajectory/2"
TRAJECTORY_SCHEMA_V1 = "dolbeault-ns.trajectory/1"
FIELDS_FILE = "fields.bin"
# the records of one snapshot in fields.bin; kind k has bidegree config.q - k
KINDS = ("u", "p")


class FieldFormatError(RuntimeError):
    """Version mismatch, truncation, checksum failure or an invalid value in
    stored data."""


@contextmanager
def _stored_data():
    """Report a ValueError raised while reading stored data (an ill-typed
    manifest key, an invalid grid, config echo or representation, a mode
    outside the band) as FieldFormatError."""
    try:
        yield
    except ValueError as exc:
        raise FieldFormatError(str(exc)) from exc


# -- initial data -------------------------------------------------------------------


@dataclass
class InitialSpec:
    """Initial-condition generator choice.

    kinds:
      random_solenoidal  - Gaussian modes with |zeta|^{-decay} amplitudes,
                           dealiased and projected
      single_mode        - one Fourier mode in the band, projected; a
                           pure-gradient mode, which projects to zero, is
                           rejected
      taylor_green_analog- q = 1 low-mode stencil u_k = sin(x_k + x_{k+n}),
                           projected

    A stored initial field is not a kind: the CLI loads it with --u0.
    """

    kind: str = "random_solenoidal"
    decay: float = 3.0
    zeta: tuple = ()
    component: tuple = ()
    amplitude: complex = 1.0

    @classmethod
    def from_json(cls, doc: dict) -> "InitialSpec":
        """The spec of a JSON object; an ill-typed value raises ValueError
        naming the key.  amplitude is a number or [re, im]."""
        return cls(**_json_fields(cls, _json_object(doc, "initial"), "initial"))


def gen_initial(spec: InitialSpec, config: SimConfig, grid: SpectralGrid | None = None) -> FormField:
    """Build a solenoidal, band-limited initial condition for the run, on
    grid (default: the run's band view).  Random data is the full-lattice
    draw in every case, so that on a band view it is the band of the
    full-lattice field bit for bit, but only grid's modes of it are kept
    (forms._random_lattice_form)."""
    if grid is None:
        grid = config.make_grid()
    q = config.q
    if spec.kind == "random_solenoidal":
        rng = np.random.default_rng(config.seed)
        return leray_project(_random_lattice_form(grid, q, rng, spec.decay))
    if spec.kind == "single_mode":
        if len(spec.component) != q:
            raise ValueError(f"initial component {list(spec.component)} is not a (0,{q}) index")
        u = FormField.zeros(grid, q, FOURIER)
        idx = (index_of(grid.n, tuple(spec.component)),) + grid.mode_index(spec.zeta)
        u.data[idx] = complex(spec.amplitude)
        u = leray_project(u.on(grid.band, "initial single_mode"))
        if not np.any(u.data):
            raise ValueError(
                f"initial single_mode at zeta {list(spec.zeta)} projects to zero: a pure gradient or zero amplitude"
            )
        return u.on(grid)
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
    raise ValueError(f"unknown initial-condition kind {spec.kind!r}")


# -- config files --------------------------------------------------------------------


def _doc_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def config_hash(config: SimConfig) -> str:
    return _doc_hash(config.to_json())


def load_config(path) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        return SimConfig.from_json(json.load(fh))


def save_config(path, config: SimConfig):
    Path(path).write_text(json.dumps(config.to_json(), indent=2, sort_keys=True), encoding="utf-8")


# -- field persistence ----------------------------------------------------------------


def _read_manifest(path: Path, what: str) -> dict:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise FieldFormatError(f"no {what} manifest under {path.parent}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FieldFormatError(f"{what} manifest {path} is not JSON: {exc}") from exc
    return _json_object(doc, f"{what} manifest {path}")


def _write_component(fh, component: np.ndarray) -> int:
    """Append one component's blob to fh, without a copy of a contiguous
    little-endian component; returns the blob's CRC-32."""
    raw = np.ascontiguousarray(component, dtype="<c16").reshape(-1).view(np.uint8)
    fh.write(raw)
    return zlib.crc32(raw)


def _read_component(fh, dest: np.ndarray, crc, what: str):
    """Read one blob from fh straight into dest (a C-contiguous "<c16"
    component), then verify its CRC-32 and that every value is finite."""
    raw = dest.reshape(-1).view(np.uint8)
    got = fh.readinto(raw)
    if got != raw.nbytes:
        raise FieldFormatError(f"{what} is truncated ({got} of {raw.nbytes} bytes)")
    if zlib.crc32(raw) != crc:
        raise FieldFormatError(f"checksum failure in {what}")
    if not np.isfinite(dest).all():
        raise FieldFormatError(f"non-finite values in {what}")


def _save_directory(path, write_data):
    """Write a directory whose manifest.json is written last: remove a
    manifest already there, let write_data(out) write the data files and
    return the manifest, then write it to a temporary file and rename that
    into place.  So an interrupted write never leaves a manifest beside
    partial data, and a directory with a manifest holds complete data."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    manifest = write_data(out)
    staged = out / "manifest.json.tmp"
    staged.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    os.replace(staged, manifest_path)


def save_field(path, field: FormField, sim_time: float = 0.0, seed=None, cfg_hash=None):
    """Write a field directory: one blob per component, then manifest.json
    (see _save_directory), on the full lattice."""
    field = field.on(field.grid.full)

    def write(out: Path) -> dict:
        blobs = []
        for ci, component in enumerate(field.data):
            name = f"comp_{ci:03d}.bin"
            with open(out / name, "wb") as fh:
                blobs.append({"file": name, "crc32": _write_component(fh, component)})
        return {
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

    _save_directory(path, write)


@_stored_data()
def load_field(path, grid: SpectralGrid | None = None) -> FormField:
    """Read a field directory back, on grid (default: the full lattice);
    verifies schema, manifest keys, sizes, checksums and that every value
    is finite.  A band view gets the stored field moved onto it by
    FormField.on."""
    root = Path(path)
    where = f"field manifest {root / 'manifest.json'}"
    manifest = _read_manifest(root / "manifest.json", "field")
    if manifest.get("schema") != FIELD_SCHEMA:
        raise FieldFormatError(
            f"unsupported field schema {manifest.get('schema')!r}, expected {FIELD_SCHEMA}"
        )
    n, N, q = (_json_value(manifest, key, int, where) for key in ("n", "N", "q"))
    if grid is None:
        grid = SpectralGrid(n, N)
    elif (grid.n, grid.N) != (n, N):
        raise FieldFormatError(f"stored grid (n={n}, N={N}) does not match {grid}")
    expected = [list(J) for J in multi_indices(n, q)]
    if _json_value(manifest, "components", list, where) != expected:
        raise FieldFormatError(f"component list {manifest['components']} is not the canonical {expected}")
    nbytes = _json_value(manifest, "bytes_per_component", int, where)
    if nbytes != grid.size * 16:
        raise FieldFormatError(f"{nbytes} bytes per component do not match the grid size ({grid.size * 16})")
    blobs = _json_value(manifest, "blobs", list, where)
    if len(blobs) != len(expected):
        raise FieldFormatError(f"{where} lists {len(blobs)} blobs for {len(expected)} components")
    rep = _json_value(manifest, "representation", str, where)

    data = np.empty((len(expected),) + grid.shape, dtype="<c16")
    for ci, blob in enumerate(blobs):
        at = f"{where} blob {ci}"
        name = _json_value(_json_object(blob, at), "file", str, at)
        crc = _json_value(blob, "crc32", int, at)
        with open(root / name, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != nbytes:
                state = "truncated" if size < nbytes else "overlong"
                raise FieldFormatError(f"blob {name} is {state} ({size} of {nbytes} bytes)")
            _read_component(fh, data[ci], crc, f"blob {name}")
    return FormField(grid.full, q, data, rep).on(grid, f"field {root}")


# -- trajectory persistence --------------------------------------------------------------


def save_trajectory(path, traj: Trajectory):
    """Write a trajectory directory of schema /3: fields.bin, diagnostics.csv,
    then manifest.json (see _save_directory).  Every field must lie on the
    band view of the run's grid, as a run stores them."""
    grid = traj.config.make_grid()
    for field in traj.velocities + traj.pressures:
        if field.grid != grid:
            raise ValueError(f"trajectory field on {field.grid}, expected the run's band view {grid}")

    def write(out: Path) -> dict:
        cfg = traj.config
        index = []
        with open(out / FIELDS_FILE, "wb") as fh:
            for m, snapshot in enumerate(zip(traj.velocities, traj.pressures)):
                for kind, field in zip(KINDS, snapshot):
                    offset = fh.tell()
                    crcs = [_write_component(fh, component) for component in field.data]
                    index.append(
                        {"kind": kind, "snapshot": m, "q": field.q, "representation": field.rep,
                         "offset": offset, "crc32": crcs}
                    )
            total = fh.tell()
        lines = [",".join(DIAGNOSTIC_COLUMNS)]
        for row in range(len(traj.diagnostics["t"])):
            lines.append(",".join(repr(float(traj.diagnostics[c][row])) for c in DIAGNOSTIC_COLUMNS))
        (out / "diagnostics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {
            "schema": TRAJECTORY_SCHEMA,
            "config": cfg.to_json(),
            "config_hash": config_hash(cfg),
            "stamps": [float(t) for t in traj.stamps],
            "snapshots": len(traj.velocities),
            "bytes": total,
            "fields": index,
        }

    _save_directory(path, write)


def _load_packed(root: Path, manifest: dict, cfg: SimConfig, count: int, where: str, grid: SpectralGrid) -> tuple:
    """The velocities and pressures of a /3 trajectory (grid the band view)
    or a /2 one (grid the full lattice), checked against its fields index,
    read from fields.bin in one pass, on the band view."""
    index = _json_value(manifest, "fields", list, where)
    total = _json_value(manifest, "bytes", int, where)
    if len(index) != len(KINDS) * count:
        raise FieldFormatError(f"{where} indexes {len(index)} fields for {count} snapshots")
    band = grid.band
    fields = tuple([] for _ in KINDS)
    with open(root / FIELDS_FILE, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != total:
            raise FieldFormatError(f"{FIELDS_FILE} size mismatch: {size} bytes, the manifest says {total}")
        for i, record in enumerate(index):
            m, k = divmod(i, len(KINDS))
            at = f"{where} fields[{i}]"
            q = cfg.q - k
            _json_object(record, at)
            for key, want in (("kind", KINDS[k]), ("snapshot", m), ("q", q), ("offset", fh.tell())):
                got = _json_value(record, key, type(want), at)
                if got != want:
                    raise FieldFormatError(f"{at} has {key} {got!r}, expected {want!r}")
            rep = _json_value(record, "representation", str, at)
            crcs = _json_value(record, "crc32", list, at)
            shape = grid.fourier_shape if rep == FOURIER else grid.shape
            data = np.empty((num_components(grid.n, q),) + shape, dtype="<c16")
            if len(crcs) != len(data):
                raise FieldFormatError(f"{at} lists {len(crcs)} checksums for {len(data)} components")
            what = f"{FIELDS_FILE} record {i} ({KINDS[k]}_{m})"
            for ci, crc in enumerate(crcs):
                _read_component(fh, data[ci], crc, f"{what} component {ci}")
            fields[k].append(FormField(grid, q, data, rep).on(band, what))
        if fh.tell() != total:
            raise FieldFormatError(f"{FIELDS_FILE} size mismatch: records end at byte {fh.tell()} of {total}")
    return fields


@_stored_data()
def load_trajectory(path) -> Trajectory:
    """Read a trajectory directory of schema /3 (or /2, /1) onto the band
    view of its run's grid; verifies the manifest keys, the config hash
    and every stored field."""
    root = Path(path)
    where = f"trajectory manifest {root / 'manifest.json'}"
    manifest = _read_manifest(root / "manifest.json", "trajectory")
    schema = manifest.get("schema")
    schemas = (TRAJECTORY_SCHEMA, TRAJECTORY_SCHEMA_V2, TRAJECTORY_SCHEMA_V1)
    if schema not in schemas:
        raise FieldFormatError(f"unsupported trajectory schema {schema!r}, expected one of {', '.join(schemas)}")
    echo = _json_value(manifest, "config", dict, where)
    if _doc_hash(echo) != _json_value(manifest, "config_hash", str, where):
        raise FieldFormatError(f"{where}: the config does not match its config_hash")
    cfg = SimConfig.from_json(echo)
    stamps = np.asarray(_json_value(manifest, "stamps", (float,), where))
    count = _json_value(manifest, "snapshots", int, where)
    if stamps.shape != (count,):
        raise FieldFormatError(f"{where} has {stamps.size} stamps for {count} snapshots")
    grid = cfg.make_grid()
    if schema == TRAJECTORY_SCHEMA:
        velocities, pressures = _load_packed(root, manifest, cfg, count, where, grid)
    elif schema == TRAJECTORY_SCHEMA_V2:
        velocities, pressures = _load_packed(root, manifest, cfg, count, where, grid.full)
    else:
        velocities = [load_field(root / f"u_{m:06d}", grid=grid) for m in range(count)]
        pressures = [load_field(root / f"p_{m:06d}", grid=grid) for m in range(count)]

    text = (root / "diagnostics.csv").read_text(encoding="utf-8").strip()
    table = [line.split(",") for line in text.splitlines()]
    if not table or tuple(table[0]) != DIAGNOSTIC_COLUMNS:
        raise FieldFormatError(f"unexpected diagnostics columns {table[0] if table else []}")
    if len(table) < 2 or any(len(row) != len(DIAGNOSTIC_COLUMNS) for row in table[1:]):
        raise FieldFormatError(f"diagnostics.csv needs one or more rows of {len(DIAGNOSTIC_COLUMNS)} values")
    rows = np.array([[float(v) for v in row] for row in table[1:]])
    diagnostics = {c: rows[:, i] for i, c in enumerate(DIAGNOSTIC_COLUMNS)}
    return Trajectory(stamps, velocities, pressures, diagnostics, cfg)
