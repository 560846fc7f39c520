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
                         max_abs_u, lps_accum (one row per time step, t
                         strictly increasing)
    manifest.json        config echo, config hash, stamps, snapshot count,
                         the total byte count of fields.bin and its index:
                         per record kind, snapshot, q, representation, byte
                         offset and one CRC-32 per component

In both kinds of directory the manifest is written last, to a temporary
file renamed into place, after any old manifest is removed, so a directory
with a manifest holds a complete field or trajectory; what a power loss
could leave behind fails the size or checksum checks.  A trajectory is
written as its run goes (TrajectoryWriter, the run's snapshot sink):
records are appended to fields.bin as they are recorded, and
save_trajectory is the same writer run over a trajectory in memory.

A trajectory is verified when it is opened and read on demand.
load_trajectory checks the manifest keys, the config echo against its
hash, the size of fields.bin and, in one streaming pass through one
record-sized buffer, every index entry, checksum, value and the band rule,
so every fault it can find raises FieldFormatError at load.  Its velocities
and pressures are then sequences that read a record from the open file
when it is used, checking its checksums and values again; so a series is
never held whole, and damage done after the load raises FieldFormatError
when the record is read.  Trajectories of schema dolbeault-ns.trajectory/2
(the same files with full-lattice records) and dolbeault-ns.trajectory/1
(one field directory per snapshot, u_000000/, p_000000/, ...) are still
read, through the same sequences: each record moves onto the band with
FormField.on, and one with a mode outside it is rejected.
"""

import hashlib
import json
import math
import operator
import os
import weakref
import zlib
from array import array
from collections.abc import Sequence
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


def _open_directory(path) -> Path:
    """The first half of writing a directory whose manifest.json comes last:
    make the directory and remove a manifest already there, so an
    interrupted write never leaves a manifest beside partial data."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").unlink(missing_ok=True)
    return out


def _write_manifest(out: Path, manifest: dict):
    """The second half, once the data files are complete: write the manifest
    to a temporary file and rename that into place, so a directory with a
    manifest holds complete data."""
    staged = out / "manifest.json.tmp"
    staged.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    os.replace(staged, out / "manifest.json")


def save_field(path, field: FormField, sim_time: float = 0.0, seed=None, cfg_hash=None):
    """Write a field directory: one blob per component, then manifest.json
    (_open_directory, _write_manifest), on the full lattice."""
    field = field.on(field.grid.full)
    out = _open_directory(path)
    blobs = []
    for ci, component in enumerate(field.data):
        name = f"comp_{ci:03d}.bin"
        with open(out / name, "wb") as fh:
            blobs.append({"file": name, "crc32": _write_component(fh, component)})
    _write_manifest(
        out,
        {
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
        },
    )


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


class TrajectoryWriter:
    """A run's snapshot sink that writes it to a trajectory directory of
    schema /3 as it goes; simulate and solve_linearized take it as sink.
    append() adds one snapshot's records to fields.bin, and finish() writes
    diagnostics.csv and then the manifest (_open_directory, _write_manifest)
    and returns the run's Trajectory, its series read back from fields.bin
    on demand.  The directory is opened at the first snapshot, so a run
    that fails its input checks leaves it as it was, and one that fails
    later leaves no manifest.  Use it in a with statement, which closes
    fields.bin when the run fails."""

    def __init__(self, path):
        self.path = Path(path)
        self._fh = None
        self._index = []

    def __enter__(self) -> "TrajectoryWriter":
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """Close fields.bin; finish() does, and a with statement."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _start(self):
        if self._fh is None:
            out = _open_directory(self.path)
            # a new file: a trajectory loaded from this directory reads on from the old one
            (out / FIELDS_FILE).unlink(missing_ok=True)
            self._fh = open(out / FIELDS_FILE, "wb")

    def append(self, velocity: FormField, pressure: FormField):
        self._start()
        m = len(self._index) // len(KINDS)
        for kind, field in zip(KINDS, (velocity, pressure)):
            offset = self._fh.tell()
            crcs = [_write_component(self._fh, component) for component in field.data]
            self._index.append(
                {"kind": kind, "snapshot": m, "q": field.q, "representation": field.rep,
                 "offset": offset, "crc32": crcs}
            )

    def finish(self, stamps: np.ndarray, diagnostics: dict, config: SimConfig) -> Trajectory:
        self._start()
        total = self._fh.tell()
        self.close()
        with open(self.path / "diagnostics.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join(DIAGNOSTIC_COLUMNS) + "\n")
            for row in zip(*(diagnostics[c] for c in DIAGNOSTIC_COLUMNS)):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        manifest = {
            "schema": TRAJECTORY_SCHEMA,
            "config": config.to_json(),
            "config_hash": config_hash(config),
            "stamps": [float(t) for t in stamps],
            "snapshots": len(self._index) // len(KINDS),
            "bytes": total,
            "fields": self._index,
        }
        _write_manifest(self.path, manifest)
        records = _Records(self.path / FIELDS_FILE, config.make_grid(), total)
        records.entries = self._index
        return Trajectory(np.asarray(stamps), *records.series(), diagnostics, config)


def save_trajectory(path, traj: Trajectory):
    """Write a trajectory directory of schema /3 through TrajectoryWriter.
    Every field must lie on the band view of the run's grid, as a run
    stores them; this is checked before anything is written."""
    grid = traj.config.make_grid()
    for field in traj.velocities + traj.pressures:
        if field.grid != grid:
            raise ValueError(f"trajectory field on {field.grid}, expected the run's band view {grid}")
    with TrajectoryWriter(path) as writer:
        for velocity, pressure in zip(traj.velocities, traj.pressures):
            writer.append(velocity, pressure)
        writer.finish(traj.stamps, traj.diagnostics, traj.config)


class _Series(Sequence):
    """A sequence whose item i is read(i), made each time it is used: the
    snapshots of a stored trajectory.  + with another sequence chains the
    two, as lazily."""

    def __init__(self, length: int, read):
        self._length, self._read = length, read

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int):
        i = operator.index(i)
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError(f"snapshot {i} out of range for {self._length} snapshots")
        return self._read(i)

    def __add__(self, other: Sequence) -> "_Series":
        head = len(self)
        return _Series(head + len(other), lambda i: self[i] if i < head else other[i - head])


class _Records:
    """The records of a fields.bin of total bytes, read one at a time from a
    handle that stays open until close() or until the object is collected.
    entries holds each record's checked index entry, in file order; grid is
    the view its records are stored on (the band view for /3, the full
    lattice for /2)."""

    def __init__(self, path: Path, grid: SpectralGrid, total: int):
        self.grid = grid
        self.entries = []
        self._fh = open(path, "rb")
        # close() closes the file once, and so does collecting self
        self.close = weakref.finalize(self, self._fh.close)
        size = os.fstat(self._fh.fileno()).st_size
        if size != total:
            self.close()
            raise FieldFormatError(f"{FIELDS_FILE} size mismatch: {size} bytes, the manifest says {total}")

    def shape(self, i: int) -> tuple:
        """The stored shape of record i."""
        entry = self.entries[i]
        return (len(entry["crc32"]),) + (self.grid.fourier_shape if entry["representation"] == FOURIER else self.grid.shape)

    def read(self, i: int, buffer: np.ndarray | None = None) -> FormField:
        """Record i on the band view, its checksums and values checked, read
        into a new array (or into the first values of the flat "<c16"
        buffer)."""
        entry = self.entries[i]
        m, k = divmod(i, len(KINDS))
        what = f"{FIELDS_FILE} record {i} ({KINDS[k]}_{m})"
        shape = self.shape(i)
        data = np.empty(shape, dtype="<c16") if buffer is None else buffer[: math.prod(shape)].reshape(shape)
        self._fh.seek(entry["offset"])
        for ci, crc in enumerate(entry["crc32"]):
            _read_component(self._fh, data[ci], crc, f"{what} component {ci}")
        with _stored_data():
            return FormField(self.grid, entry["q"], data, entry["representation"]).on(self.grid.band, what)

    def series(self) -> tuple:
        """The velocities and pressures, read on demand."""
        count = len(self.entries) // len(KINDS)
        return tuple(_Series(count, lambda m, k=k: self.read(len(KINDS) * m + k)) for k in range(len(KINDS)))


def _open_packed(root: Path, manifest: dict, cfg: SimConfig, count: int, where: str, grid: SpectralGrid) -> _Records:
    """fields.bin of a /3 trajectory (grid the band view) or a /2 one (grid
    the full lattice), verified against its fields index in one streaming
    pass through one record-sized buffer."""
    index = _json_value(manifest, "fields", list, where)
    total = _json_value(manifest, "bytes", int, where)
    if len(index) != len(KINDS) * count:
        raise FieldFormatError(f"{where} indexes {len(index)} fields for {count} snapshots")
    records = _Records(root / FIELDS_FILE, grid, total)
    buffer, offset = np.empty(0, dtype="<c16"), 0
    try:
        for i, record in enumerate(index):
            m, k = divmod(i, len(KINDS))
            at = f"{where} fields[{i}]"
            q = cfg.q - k
            _json_object(record, at)
            for key, want in (("kind", KINDS[k]), ("snapshot", m), ("q", q), ("offset", offset)):
                got = _json_value(record, key, type(want), at)
                if got != want:
                    raise FieldFormatError(f"{at} has {key} {got!r}, expected {want!r}")
            _json_value(record, "representation", str, at)
            crcs = _json_value(record, "crc32", list, at)
            if len(crcs) != num_components(grid.n, q):
                raise FieldFormatError(f"{at} lists {len(crcs)} checksums for {num_components(grid.n, q)} components")
            records.entries.append(record)
            values = math.prod(records.shape(i))
            if buffer.size < values:
                buffer = np.empty(values, dtype="<c16")
            records.read(i, buffer)
            offset += 16 * values
        if offset != total:
            raise FieldFormatError(f"{FIELDS_FILE} size mismatch: records end at byte {offset} of {total}")
    except BaseException:
        records.close()
        raise
    return records


def _open_directories(root: Path, grid: SpectralGrid, count: int) -> tuple:
    """The velocities and pressures of a /1 trajectory, one field directory
    per snapshot, each verified now and read again on demand."""
    series = tuple(
        _Series(count, lambda m, kind=kind: load_field(root / f"{kind}_{m:06d}", grid=grid)) for kind in KINDS
    )
    for fields in series:
        for _ in fields:
            pass
    return series


@_stored_data()
def load_trajectory(path) -> Trajectory:
    """Open a trajectory directory of schema /3 (or /2, /1) on the band view
    of its run's grid: verifies the manifest keys, the config hash and
    every stored field now, and returns velocities and pressures that read
    each field again, checked again, when it is used (see the module
    docstring)."""
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
        velocities, pressures = _open_packed(root, manifest, cfg, count, where, grid).series()
    elif schema == TRAJECTORY_SCHEMA_V2:
        velocities, pressures = _open_packed(root, manifest, cfg, count, where, grid.full).series()
    else:
        velocities, pressures = _open_directories(root, grid, count)

    lines = (root / "diagnostics.csv").read_text(encoding="utf-8").strip().splitlines()
    header = lines.pop(0).split(",") if lines else []
    if tuple(header) != DIAGNOSTIC_COLUMNS:
        raise FieldFormatError(f"unexpected diagnostics columns {header}")
    width = len(DIAGNOSTIC_COLUMNS)
    if not lines or any(line.count(",") != width - 1 for line in lines):
        raise FieldFormatError(f"diagnostics.csv needs one or more rows of {width} values")
    values = array("d")
    for line in lines:
        values.extend(map(float, line.split(",")))
    rows = np.frombuffer(values).reshape(-1, width)
    if not np.all(np.diff(rows[:, 0]) > 0):
        raise FieldFormatError("diagnostics.csv column t is not strictly increasing")
    diagnostics = {c: rows[:, i] for i, c in enumerate(DIAGNOSTIC_COLUMNS)}
    return Trajectory(stamps, velocities, pressures, diagnostics, cfg)
