import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dolbeault_ns import (
    BilinearSpec,
    FieldFormatError,
    ForcingSpec,
    FormField,
    InitialSpec,
    SimConfig,
    bochner_vel,
    dbar_star,
    gen_initial,
    l2_norm,
    load_field,
    load_trajectory,
    random_form,
    save_field,
    save_trajectory,
    simulate,
    sobolev_hs,
    solve_linearized,
)
from dolbeault_ns.cli import main
from dolbeault_ns.forms import CustomTerm, _random_lattice_form, num_components
from dolbeault_ns.io import config_hash, load_config, save_config
from dolbeault_ns.spectral import FOURIER, PHYSICAL, SpectralGrid
from oracle import random_initial

# no shrink phase: a derandomized failure reproduces as drawn
PROPERTY = settings(derandomize=True, deadline=None, phases=(Phase.explicit, Phase.generate))


def _tree_digest(root):
    h = hashlib.sha256()
    for f in sorted(root.rglob("*")):
        if f.is_file():
            h.update(f.relative_to(root).as_posix().encode())
            h.update(f.read_bytes())
    return h.hexdigest()


# -- field round trips ----------------------------------------------------------


def test_field_round_trip_bit_exact(grid8, rng, tmp_path):
    u = random_form(grid8, 1, rng)
    save_field(tmp_path / "f", u, sim_time=0.25)
    back = load_field(tmp_path / "f", grid=grid8)
    assert np.array_equal(back.data, u.data)
    assert back.rep == u.rep and back.q == u.q


def test_field_round_trip_physical(grid8, rng, tmp_path):
    u = random_form(grid8, 2, rng).to_physical()
    save_field(tmp_path / "f", u)
    back = load_field(tmp_path / "f")
    assert np.array_equal(back.data, u.data)
    assert back.rep == "physical"


@pytest.mark.parametrize("n, N", [(1, 4), (1, 8), (2, 4), (2, 8), (3, 4), (3, 8)])
@pytest.mark.parametrize("rep", [FOURIER, PHYSICAL])
@settings(PROPERTY, max_examples=3)
@given(data=st.data())
def test_field_round_trip_property(n, N, rep, data):
    grid = SpectralGrid(n, N)
    q = data.draw(st.integers(0, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (num_components(n, q),) + grid.shape
    u = FormField(grid, q, rng.standard_normal(shape) + 1j * rng.standard_normal(shape), rep)
    with tempfile.TemporaryDirectory() as tmp:
        save_field(Path(tmp) / "f", u)
        back = load_field(Path(tmp) / "f")
    assert np.array_equal(back.data, u.data)
    assert (back.grid, back.q, back.rep) == (grid, q, rep)


def test_band_field_round_trip(grid8, rng, tmp_path):
    # a field directory holds the full lattice: a band-view field is
    # scattered when saved and gathered back when loaded onto the band
    band = grid8.band
    u = FormField(band, 1, band.gather(random_form(grid8, 1, rng).data), FOURIER)
    save_field(tmp_path / "f", u)
    assert (tmp_path / "f" / "comp_000.bin").stat().st_size == 8**4 * 16
    back = load_field(tmp_path / "f", grid=band)
    assert back.grid == band and back.rep == FOURIER
    assert np.array_equal(back.data, u.data)
    assert np.array_equal(load_field(tmp_path / "f").data, band.scatter(u.data))
    phys = u.to_physical()
    save_field(tmp_path / "g", phys)
    back = load_field(tmp_path / "g", grid=band)
    assert back.grid == band and back.rep == PHYSICAL
    assert np.array_equal(back.data, phys.data)


def test_aliased_field_rejected_on_band(grid8, rng, tmp_path):
    u = random_form(grid8, 1, rng)
    u.data[(1,) + grid8.mode_index((0, 3, 0, 0))] = 1e-9
    save_field(tmp_path / "f", u)
    load_field(tmp_path / "f")
    with pytest.raises(FieldFormatError, match="2/3-rule band"):
        load_field(tmp_path / "f", grid=grid8.band)


def test_field_manifest_contents(grid8, rng, tmp_path):
    u = random_form(grid8, 1, rng)
    save_field(tmp_path / "f", u, sim_time=1.5, seed=3, cfg_hash="abc")
    doc = json.loads((tmp_path / "f" / "manifest.json").read_text())
    assert doc["schema"] == "dolbeault-ns.field/1"
    assert doc["components"] == [[1], [2]]
    assert doc["sim_time"] == 1.5
    assert doc["seed"] == 3
    assert doc["bytes_per_component"] == 8**4 * 16


def test_field_truncation_detected(grid8, rng, tmp_path):
    u = random_form(grid8, 1, rng)
    save_field(tmp_path / "f", u)
    blob = tmp_path / "f" / "comp_001.bin"
    blob.write_bytes(blob.read_bytes()[:-16])
    with pytest.raises(FieldFormatError, match="truncated"):
        load_field(tmp_path / "f")


def test_field_corruption_detected(grid8, rng, tmp_path):
    u = random_form(grid8, 1, rng)
    save_field(tmp_path / "f", u)
    blob = tmp_path / "f" / "comp_000.bin"
    raw = bytearray(blob.read_bytes())
    raw[100] ^= 0xFF
    blob.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError, match="checksum"):
        load_field(tmp_path / "f")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_non_finite_data_rejected(grid8, rng, tmp_path, bad):
    # a blob that is intact (its CRC matches) but holds a non-finite value
    save_field(tmp_path / "f", random_form(grid8, 1, rng))
    blob = tmp_path / "f" / "comp_001.bin"
    values = np.frombuffer(blob.read_bytes(), dtype="<c16").copy()
    values[7] = complex(0.5, bad)
    raw = values.tobytes()
    blob.write_bytes(raw)
    mpath = tmp_path / "f" / "manifest.json"
    doc = json.loads(mpath.read_text())
    doc["blobs"][1]["crc32"] = zlib.crc32(raw)
    mpath.write_text(json.dumps(doc))
    with pytest.raises(FieldFormatError, match="non-finite"):
        load_field(tmp_path / "f")


def test_field_version_mismatch_detected(grid8, rng, tmp_path):
    u = random_form(grid8, 1, rng)
    save_field(tmp_path / "f", u)
    mpath = tmp_path / "f" / "manifest.json"
    doc = json.loads(mpath.read_text())
    doc["schema"] = "dolbeault-ns.field/999"
    mpath.write_text(json.dumps(doc))
    with pytest.raises(FieldFormatError, match="schema"):
        load_field(tmp_path / "f")


def test_field_blob_is_little_endian(grid8, tmp_path):
    u = FormField.zeros(grid8, 0, FOURIER)
    u.data[(0,) + (0,) * 4] = 1.0 + 2.0j
    save_field(tmp_path / "f", u)
    raw = (tmp_path / "f" / "comp_000.bin").read_bytes()
    vals = np.frombuffer(raw, dtype="<f8")
    assert vals[0] == 1.0 and vals[1] == 2.0


# -- configs and initial data --------------------------------------------------------


def test_config_file_round_trip(tmp_path):
    cfg = SimConfig(n=2, q=1, N=8, mu=0.25, T=0.2, dt=0.01,
                    nonlinearity=BilinearSpec.lamb(), output_stride=4, seed=9)
    save_config(tmp_path / "cfg.json", cfg)
    assert load_config(tmp_path / "cfg.json") == cfg
    assert config_hash(cfg) == config_hash(load_config(tmp_path / "cfg.json"))


def _strictly_increasing(draw, n, size):
    return tuple(sorted(draw(st.permutations(range(1, n + 1)))[:size]))


@st.composite
def _configs(draw, forcing_kind):
    n = draw(st.integers(2, 4))
    q = draw(st.integers(1, n - 1))
    N = draw(st.sampled_from([4, 8, 16, 32]))
    real = st.floats(-10.0, 10.0)
    kind = draw(st.sampled_from(["stokes", "custom"] + (["lamb"] if q == 1 else [])))
    if kind == "custom":

        def terms(len_k, len_a):
            return [
                CustomTerm(
                    k=_strictly_increasing(draw, n, len_k),
                    a=_strictly_increasing(draw, n, len_a),
                    b=_strictly_increasing(draw, n, q),
                    coeff=complex(draw(real), draw(real)),
                    conj_u=draw(st.booleans()),
                )
                for _ in range(draw(st.integers(0, 3)))
            ]

        spec = BilinearSpec.custom(terms(q, q + 1), terms(q - 1, q))
    else:
        spec = BilinearSpec(kind)
    if forcing_kind == "single_mode":
        band = N // 3
        forcing = ForcingSpec(
            kind="single_mode",
            zeta=tuple(draw(st.integers(-band, band)) for _ in range(2 * n)),
            component=_strictly_increasing(draw, n, q),
            amplitude=complex(draw(real), draw(real)),
            omega=draw(real),
        )
    elif forcing_kind == "file":
        forcing = ForcingSpec(kind="file", path=draw(st.text("az/._- 0é", min_size=1, max_size=20)))
    else:
        forcing = ForcingSpec()
    dt = draw(st.floats(1e-5, 1.0))
    stride = draw(st.integers(1, 5))
    return SimConfig(
        n=n,
        q=q,
        N=N,
        mu=draw(st.floats(1e-6, 1e3)),
        T=dt * stride * draw(st.integers(1, 5)),
        dt=dt,
        nonlinearity=spec,
        forcing=forcing,
        output_stride=stride,
        cfl_safety=draw(st.floats(0.01, 1.0)),
        cfl_mode=draw(st.sampled_from(["fail", "shrink"])),
        seed=draw(st.integers(0, 2**31 - 1)),
        lps_r=draw(st.none() | st.floats(2 * n + 0.5, 100.0)),
    )


@pytest.mark.parametrize("forcing_kind", ["zero", "single_mode", "file"])
@settings(PROPERTY, max_examples=25)
@given(data=st.data())
def test_config_json_round_trip_property(forcing_kind, data):
    cfg = data.draw(_configs(forcing_kind))
    doc = json.loads(json.dumps(cfg.to_json()))
    assert SimConfig.from_json(doc) == cfg


def test_from_json_of_the_required_keys_keeps_every_default():
    assert SimConfig.from_json(dict(_CFG)) == SimConfig(**_CFG)
    single_mode = {"kind": "single_mode", "zeta": (1, 1, 0, 0), "component": (1,)}
    assert ForcingSpec.from_json(single_mode) == ForcingSpec(**single_mode)
    assert InitialSpec.from_json({}) == InitialSpec()
    for key in ("zeta", "component"):
        with pytest.raises(ValueError, match=f"forcing lacks the required key '{key}'"):
            ForcingSpec.from_json({k: v for k, v in single_mode.items() if k != key})


def test_gen_initial_deterministic(grid8):
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.1, dt=0.01, seed=21)
    spec = InitialSpec(kind="random_solenoidal", decay=3.0)
    a = gen_initial(spec, cfg, grid8)
    b = gen_initial(spec, cfg, grid8)
    assert np.array_equal(a.data, b.data)


def test_gen_initial_constraint(grid8):
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.1, dt=0.01, seed=2)
    for spec in (
        InitialSpec(kind="random_solenoidal", decay=2.0),
        InitialSpec(kind="single_mode", zeta=(0, 1, 0, 0), component=(1,), amplitude=2.0),
        InitialSpec(kind="taylor_green_analog"),
    ):
        u = gen_initial(spec, cfg, grid8)
        assert l2_norm(u) > 0
        assert l2_norm(dbar_star(u)) < 1e-12 * l2_norm(u)


def test_gen_initial_spectrum_slope():
    grid = SpectralGrid(2, 16)
    cfg = SimConfig(n=2, q=1, N=16, mu=1.0, T=0.1, dt=0.01, seed=4)
    u = gen_initial(InitialSpec(kind="random_solenoidal", decay=3.0), cfg, grid)
    assert np.isfinite(sobolev_hs(u, 2))
    zsq = grid.zeta_sq
    radii, means = [], []
    for m in range(1, 6):
        shell = (zsq >= m**2 - 1e-9) & (zsq < (m + 1) ** 2 - 1e-9)
        amps = np.abs(u.data[:, shell])
        amps = amps[amps > 0]
        if amps.size:
            radii.append(m + 0.5)
            means.append(np.mean(amps))
    slope = np.polyfit(np.log(radii), np.log(means), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.3)


@pytest.mark.parametrize("n, N, seeds", [(2, 8, (0, 1, 7)), (2, 16, (3, 11)), (3, 8, (0, 5)), (4, 4, (2, 9))])
def test_gen_initial_on_band_is_gather_of_full_lattice(n, N, seeds):
    # the run's grid is the band view; its random data is drawn on the full
    # lattice with the same stream, so it is the gather of the full-lattice
    # field bit for bit
    for seed in seeds:
        cfg = SimConfig(n=n, q=1, N=N, mu=1.0, T=0.1, dt=0.01, seed=seed)
        spec = InitialSpec(kind="random_solenoidal", decay=2.5)
        band, full = cfg.make_grid(), SpectralGrid(n, N)
        u = gen_initial(spec, cfg)
        assert u.grid == band and band.banded
        assert np.array_equal(u.data, band.gather(gen_initial(spec, cfg, full).data))


@pytest.mark.parametrize("n, N, q", [(2, 16, 1), (3, 8, 1), (2, 8, 1), (3, 4, 2)])
def test_random_initial_keeps_the_whole_lattice_draw(n, N, q):
    # drawn one full-lattice component at a time and kept on the grid's
    # modes only, it is the whole-lattice formula's field byte for byte,
    # signs of zero included, on the band view and on the full lattice
    cfg = SimConfig(n=n, q=q, N=N, mu=1.0, T=0.1, dt=0.01, seed=17)
    spec = InitialSpec(kind="random_solenoidal", decay=2.5)
    for grid in (SpectralGrid(n, N).band, SpectralGrid(n, N)):
        drawn = _random_lattice_form(grid, q, np.random.default_rng(5), 2.5)
        whole = random_form(grid.full, q, np.random.default_rng(5), decay=2.5).on(grid)
        assert drawn.grid is grid and drawn.data.tobytes() == whole.data.tobytes()
        u = gen_initial(spec, cfg, grid)
        assert u.data.tobytes() == random_initial(grid, q, cfg.seed, spec.decay).data.tobytes()


@pytest.mark.parametrize(
    "n, q, spec",
    [(2, 1, InitialSpec(kind="single_mode", zeta=(1, -2, 0, 2), component=(2,), amplitude=0.5 - 1j)),
     (3, 2, InitialSpec(kind="single_mode", zeta=(0, 1, 0, 2, -1, 0), component=(1, 3))),
     (2, 1, InitialSpec(kind="taylor_green_analog")),
     (3, 1, InitialSpec(kind="taylor_green_analog"))],
)
def test_gen_initial_other_kinds_on_band(n, q, spec):
    cfg = SimConfig(n=n, q=q, N=8, mu=1.0, T=0.1, dt=0.01)
    band = cfg.make_grid()
    u = gen_initial(spec, cfg)
    assert u.grid == band and l2_norm(u) > 0
    assert np.array_equal(u.data, band.gather(gen_initial(spec, cfg, SpectralGrid(n, 8)).data))


def test_gen_initial_single_mode_must_lie_in_the_band():
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.1, dt=0.01)
    spec = InitialSpec(kind="single_mode", zeta=(4, 0, 0, 0), component=(1,))
    with pytest.raises(ValueError, match="2/3-rule band"):
        gen_initial(spec, cfg)
    # on the full lattice too, where |zeta_1| = 3 is a lattice mode
    spec = InitialSpec(kind="single_mode", zeta=(3, 0, 0, 0), component=(1,))
    with pytest.raises(ValueError, match="initial single_mode has nonzero modes outside the 2/3-rule band"):
        gen_initial(spec, cfg, SpectralGrid(2, 8))
    # a pure gradient, which the projection removes, on either view
    spec = InitialSpec(kind="single_mode", zeta=(1, 0, 0, 0), component=(1,))
    for grid in (None, SpectralGrid(2, 8)):
        with pytest.raises(ValueError, match="projects to zero"):
            gen_initial(spec, cfg, grid)
    with pytest.raises(ValueError, match=r"not a \(0,1\) index"):
        gen_initial(InitialSpec(kind="single_mode", zeta=(1, 0, 0, 0)), cfg)


def test_gen_initial_rejects_bad_kind(grid8):
    cfg = SimConfig(n=2, q=1, N=8, mu=1.0, T=0.1, dt=0.01)
    with pytest.raises(ValueError):
        gen_initial(InitialSpec(kind="vortex_sheet"), cfg, grid8)
    with pytest.raises(ValueError):
        gen_initial(InitialSpec(kind="taylor_green_analog"),
                    SimConfig(n=3, q=2, N=8, mu=1.0, T=0.1, dt=0.01), SpectralGrid(3, 8))


# -- trajectory round trips ------------------------------------------------------------


def _small_run(seed=13):
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.1, dt=0.01,
                    nonlinearity=BilinearSpec.lamb(), output_stride=5, seed=seed)
    grid = cfg.make_grid()
    u0 = gen_initial(InitialSpec(kind="random_solenoidal", decay=3.0), cfg, grid)
    return cfg, simulate(cfg, u0)


def test_trajectory_round_trip(tmp_path):
    cfg, traj = _small_run()
    save_trajectory(tmp_path / "run", traj)
    back = load_trajectory(tmp_path / "run")
    assert back.config == cfg
    assert np.array_equal(back.stamps, traj.stamps)
    for a, b in zip(back.velocities + back.pressures, traj.velocities + traj.pressures, strict=True):
        # one shared grid per lattice: the run's, the loaded and make_grid()'s
        assert a.grid is b.grid is cfg.make_grid()
        assert np.array_equal(a.data, b.data) and (a.q, a.rep) == (b.q, b.rep)
    for c in traj.diagnostics:
        assert np.array_equal(back.diagnostics[c], traj.diagnostics[c])
    # band records: M = 5 modes per axis at N = 8, u has 2 components and p 1
    assert (tmp_path / "run" / "fields.bin").stat().st_size == 3 * (2 + 1) * 5**4 * 16


def test_trajectory_layout_and_columns(tmp_path):
    _, traj = _small_run()
    save_trajectory(tmp_path / "run", traj)
    root = tmp_path / "run"
    assert sorted(f.name for f in root.iterdir()) == ["diagnostics.csv", "fields.bin", "manifest.json"]
    header = (root / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,energy,dbar_norm_sq,dbar_star_residual,max_abs_u,lps_accum"
    doc = json.loads((root / "manifest.json").read_text())
    assert doc["schema"] == "dolbeault-ns.trajectory/3"
    assert doc["config_hash"] == config_hash(traj.config)
    # one record per field, u_0, p_0, u_1, ...: the field's band coefficients,
    # component after component, each row-major over M^4 = 5^4 modes
    raw = (root / "fields.bin").read_bytes()
    assert doc["bytes"] == len(raw)
    snapshots = list(zip(traj.velocities, traj.pressures))
    assert doc["snapshots"] == len(snapshots) == 3
    records = [(m, kind, field) for m, pair in enumerate(snapshots) for kind, field in zip("up", pair)]
    assert len(doc["fields"]) == len(records)
    offset = 0
    for entry, (m, kind, field) in zip(doc["fields"], records):
        assert field.data.shape == (num_components(2, field.q),) + (5,) * 4
        blobs = [component.astype("<c16").tobytes() for component in field.data]
        assert entry == {"kind": kind, "snapshot": m, "q": field.q, "representation": field.rep,
                         "offset": offset, "crc32": [zlib.crc32(b) for b in blobs]}
        assert raw[offset:offset + field.data.nbytes] == b"".join(blobs)
        offset += field.data.nbytes
    assert offset == len(raw)


def test_reproducible_trajectory_directories(tmp_path):
    _, t1 = _small_run(seed=33)
    _, t2 = _small_run(seed=33)
    save_trajectory(tmp_path / "a", t1)
    save_trajectory(tmp_path / "b", t2)
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")


def _lattice(f):
    """A field of a run (on the band view) scattered to the full lattice."""
    return FormField(f.grid.full, f.q, f.grid.scatter(f.data), FOURIER)


def _save_v2(root, traj, fields=None):
    """Write traj in the dolbeault-ns.trajectory/2 layout: the /3 files
    with full-lattice records, the run's fields scattered (or the given
    full-lattice fields u_0, p_0, u_1, ... instead)."""
    root.mkdir(parents=True)
    if fields is None:
        fields = [_lattice(f) for pair in zip(traj.velocities, traj.pressures) for f in pair]
    index, offset = [], 0
    with open(root / "fields.bin", "wb") as fh:
        for i, field in enumerate(fields):
            blobs = [component.astype("<c16").tobytes() for component in field.data]
            index.append({"kind": "up"[i % 2], "snapshot": i // 2, "q": field.q, "representation": field.rep,
                          "offset": offset, "crc32": [zlib.crc32(b) for b in blobs]})
            fh.write(b"".join(blobs))
            offset += field.data.nbytes
    columns = list(traj.diagnostics)
    lines = [",".join(columns)] + [
        ",".join(repr(float(traj.diagnostics[c][row])) for c in columns) for row in range(len(traj.diagnostics["t"]))
    ]
    (root / "diagnostics.csv").write_text("\n".join(lines) + "\n")
    doc = {"schema": "dolbeault-ns.trajectory/2", "config": traj.config.to_json(),
           "config_hash": config_hash(traj.config), "stamps": [float(t) for t in traj.stamps],
           "snapshots": len(traj.velocities), "bytes": offset, "fields": index}
    (root / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True))


def _save_v1(root, traj):
    """Write traj in the dolbeault-ns.trajectory/1 layout: the /1 manifest
    keys and one field directory per snapshot."""
    save_trajectory(root, traj)
    (root / "fields.bin").unlink()
    doc = json.loads((root / "manifest.json").read_text())
    del doc["fields"], doc["bytes"]
    doc["schema"] = "dolbeault-ns.trajectory/1"
    (root / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    for m, (u, p) in enumerate(zip(traj.velocities, traj.pressures)):
        t = float(traj.stamps[m])
        save_field(root / f"u_{m:06d}", u, sim_time=t, seed=traj.config.seed, cfg_hash=doc["config_hash"])
        save_field(root / f"p_{m:06d}", p, sim_time=t, seed=traj.config.seed, cfg_hash=doc["config_hash"])


def _edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))


def _assert_loads_to_gather(tmp_path, save):
    # /1 and /2 hold full-lattice fields; they load to their gather
    cfg, traj = _small_run()
    save(tmp_path / "run", traj)
    written = [_lattice(f) for f in traj.velocities + traj.pressures]
    assert all(f.data.shape[1:] == (8,) * 4 for f in written)
    back = load_trajectory(tmp_path / "run")
    assert back.config == cfg
    assert np.array_equal(back.stamps, traj.stamps)
    band = cfg.make_grid()
    for a, b in zip(back.velocities + back.pressures, written, strict=True):
        assert a.grid == band and (a.q, a.rep) == (b.q, b.rep)
        assert np.array_equal(a.data, band.gather(b.data))
    return traj, back


def test_v1_trajectory_still_loads(tmp_path):
    traj, back = _assert_loads_to_gather(tmp_path, _save_v1)
    assert back.diagnostics.keys() == traj.diagnostics.keys()
    for c in traj.diagnostics:
        assert np.array_equal(back.diagnostics[c], traj.diagnostics[c])


def test_v2_trajectory_still_loads(tmp_path):
    traj, back = _assert_loads_to_gather(tmp_path, _save_v2)
    for c in traj.diagnostics:
        assert np.array_equal(back.diagnostics[c], traj.diagnostics[c])


def test_v2_base_is_accepted_by_linearize(tmp_path):
    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.01, nonlinearity=BilinearSpec.lamb(), seed=3)
    base = simulate(cfg, gen_initial(InitialSpec(), cfg))
    _save_v2(tmp_path / "base", base)
    u0 = gen_initial(InitialSpec(), replace(cfg, seed=cfg.seed + 1))
    lin = solve_linearized(load_trajectory(tmp_path / "base"), cfg, u0=u0)
    again = solve_linearized(base, cfg, u0=u0)
    for a, b in zip(lin.velocities + lin.pressures, again.velocities + again.pressures, strict=True):
        assert np.array_equal(a.data, b.data)


def test_v2_record_outside_the_band_rejected(tmp_path):
    _, traj = _small_run()
    fields = [_lattice(f) for pair in zip(traj.velocities, traj.pressures) for f in pair]
    fields[3].data[(0,) + fields[3].grid.mode_index((0, 0, -3, 1))] = 1e-14  # p_1
    _save_v2(tmp_path / "run", traj, fields)
    with pytest.raises(FieldFormatError, match=r"record 3 \(p_1\) has nonzero modes outside the 2/3-rule band"):
        load_trajectory(tmp_path / "run")


def test_save_trajectory_takes_band_fields_only(tmp_path):
    _, traj = _small_run()
    traj.pressures[1] = _lattice(traj.pressures[1])
    with pytest.raises(ValueError, match="band view"):
        save_trajectory(tmp_path / "run", traj)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("existing", [False, True])
def test_interrupted_trajectory_save_leaves_no_manifest(tmp_path, monkeypatch, existing):
    import dolbeault_ns.io as dio

    _, traj = _small_run()
    run = tmp_path / "run"
    if existing:  # a complete trajectory from an earlier save in the same directory
        save_trajectory(run, traj)
    write, written = dio._write_component, []

    def failing(fh, component):
        if len(written) == 5:
            raise OSError("no space left on device")
        written.append(component)
        return write(fh, component)

    monkeypatch.setattr(dio, "_write_component", failing)
    with pytest.raises(OSError, match="no space"):
        save_trajectory(run, traj)
    assert (run / "fields.bin").exists()
    assert not (run / "manifest.json").exists()
    with pytest.raises(FieldFormatError, match="no trajectory manifest"):
        load_trajectory(run)


def test_interrupted_field_save_leaves_no_manifest(tmp_path, monkeypatch, grid8, rng):
    import dolbeault_ns.io as dio

    field = random_form(grid8, 1, rng)  # two components
    save_field(tmp_path / "F", field)
    assert sorted(p.name for p in (tmp_path / "F").iterdir()) == ["comp_000.bin", "comp_001.bin", "manifest.json"]
    write, written = dio._write_component, []

    def failing(fh, component):
        if len(written) == 1:
            raise OSError("no space left on device")
        written.append(component)
        return write(fh, component)

    # a save over the complete field dies after rewriting its first blob
    monkeypatch.setattr(dio, "_write_component", failing)
    with pytest.raises(OSError, match="no space"):
        save_field(tmp_path / "F", 2.0 * field)
    assert not (tmp_path / "F" / "manifest.json").exists()
    with pytest.raises(FieldFormatError, match="no field manifest"):
        load_field(tmp_path / "F")


@pytest.mark.parametrize(
    "damage, word",
    [("flip", "checksum"), ("truncate", "size"), ("append", "size"), ("append-and-count", "size")],
)
def test_packed_trajectory_damage_detected(tmp_path, damage, word):
    _, traj = _small_run()
    save_trajectory(tmp_path / "run", traj)
    blob = tmp_path / "run" / "fields.bin"
    raw = bytearray(blob.read_bytes())
    if damage == "flip":
        raw[len(raw) // 2 + 3] ^= 0x10
    elif damage == "truncate":
        del raw[-16:]
    else:
        raw += bytes(16)
    if damage == "append-and-count":  # bytes past the last record, counted in the manifest
        _edit_json(tmp_path / "run" / "manifest.json", lambda d: d.update(bytes=len(raw)))
    blob.write_bytes(bytes(raw))
    with pytest.raises(FieldFormatError, match=word):
        load_trajectory(tmp_path / "run")


@pytest.mark.parametrize(
    "change",
    [
        lambda d: d.update(snapshots=2, stamps=d["stamps"][:2]),
        lambda d: d["fields"].pop(),
        lambda d: d["fields"][2].update(kind="p"),
        lambda d: d["fields"][4].update(snapshot=1),
        lambda d: d["fields"][1].update(q=1),
        lambda d: d["fields"][3].update(offset=0),
        lambda d: d["fields"][0].update(representation="spectral"),
        lambda d: d["fields"][0]["crc32"].pop(),
        lambda d: d.update(bytes=d["bytes"] - 16),
    ],
    ids=["count", "records", "kind", "snapshot", "q", "offset", "representation", "checksums", "bytes"],
)
def test_packed_index_disagreement_detected(tmp_path, change):
    _, traj = _small_run()
    save_trajectory(tmp_path / "run", traj)
    _edit_json(tmp_path / "run" / "manifest.json", change)
    with pytest.raises(FieldFormatError):
        load_trajectory(tmp_path / "run")


def test_loaded_series_read_on_demand(tmp_path):
    # len, integer indexes (negative too), iteration and a lazy +, each
    # item a fresh read equal to what was saved
    _, traj = _small_run()
    save_trajectory(tmp_path / "run", traj)
    back = load_trajectory(tmp_path / "run")
    assert len(back.velocities) == len(back.pressures) == 3
    assert np.array_equal(back.velocities[-1].data, traj.velocities[-1].data)
    assert back.velocities[1] is not back.velocities[1]
    both = back.velocities + back.pressures
    assert len(both) == 6 and np.array_equal(both[4].data, traj.pressures[1].data)
    assert [f.q for f in both] == [1, 1, 1, 0, 0, 0]
    for i in (3, -4):
        with pytest.raises(IndexError):
            back.pressures[i]


def _flip_record_byte(run, record):
    """Flip one byte inside record `record` of run's fields.bin, in place."""
    entry = json.loads((run / "manifest.json").read_text())["fields"][record]
    with open(run / "fields.bin", "r+b") as fh:
        fh.seek(entry["offset"] + 40)
        byte = fh.read(1)[0]
        fh.seek(entry["offset"] + 40)
        fh.write(bytes([byte ^ 0x10]))


def test_record_damaged_after_load_fails_when_read(tmp_path):
    _, traj = _small_run()
    save_trajectory(tmp_path / "run", traj)
    back = load_trajectory(tmp_path / "run")
    _flip_record_byte(tmp_path / "run", 3)  # p_1
    assert np.array_equal(back.pressures[0].data, traj.pressures[0].data)
    with pytest.raises(FieldFormatError, match=r"checksum failure in fields.bin record 3 \(p_1\) component 0"):
        back.pressures[1]
    with pytest.raises(FieldFormatError, match="checksum"):
        list(back.velocities + back.pressures)


@pytest.mark.parametrize("command", ["norms", "linearize"])
def test_cli_record_damaged_after_load_exits_2(tmp_path, capsys, monkeypatch, command):
    import dolbeault_ns.io as dio

    cfg_path = _write_cfg(tmp_path, output_stride=1)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(run)]) == 0
    capsys.readouterr()
    load = dio.load_trajectory

    def load_then_damage(path):
        loaded = load(path)
        _flip_record_byte(Path(path), 8)  # u_4
        return loaded

    monkeypatch.setattr(dio, "load_trajectory", load_then_damage)
    if command == "norms":
        argv = ["norms", "--traj", str(run), "--k", "0", "--s", "1"]
    else:
        argv = ["linearize", "--base-traj", str(run), "--config", str(cfg_path), "--out", str(tmp_path / "lin")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: checksum failure in fields.bin record 8 (u_4)"), captured.err
    assert not (tmp_path / "lin").exists()


def test_streamed_run_directories_equal_saved_ones(tmp_path):
    # a run written as it goes, by simulate/solve_linearized with the disk
    # sink and by the CLI, is byte for byte the save of the run in memory
    from dolbeault_ns.io import TrajectoryWriter

    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.01, nonlinearity=BilinearSpec.lamb(), seed=3)
    u0 = gen_initial(InitialSpec(), cfg)
    v0 = gen_initial(InitialSpec(), replace(cfg, seed=4))
    base = simulate(cfg, u0)
    lin = solve_linearized(base, cfg, u0=v0)
    save_trajectory(tmp_path / "base", base)
    save_trajectory(tmp_path / "lin", lin)
    with TrajectoryWriter(tmp_path / "base_streamed") as sink:
        streamed = simulate(cfg, u0, sink)
    with TrajectoryWriter(tmp_path / "lin_streamed") as sink:
        lin_streamed = solve_linearized(load_trajectory(tmp_path / "base_streamed"), cfg, u0=v0, sink=sink)
    for name, memory, disk in (("base", base, streamed), ("lin", lin, lin_streamed)):
        assert _tree_digest(tmp_path / f"{name}_streamed") == _tree_digest(tmp_path / name)
        assert np.array_equal(disk.stamps, memory.stamps)
        for a, b in zip(disk.velocities + disk.pressures, memory.velocities + memory.pressures, strict=True):
            assert np.array_equal(a.data, b.data) and (a.grid, a.q, a.rep) == (b.grid, b.q, b.rep)
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg_path, cfg)
    save_field(tmp_path / "u0", u0)
    save_field(tmp_path / "v0", v0)
    assert main(["simulate", "--config", str(cfg_path), "--u0", str(tmp_path / "u0"), "--out", str(tmp_path / "cli")]) == 0
    assert main(["linearize", "--base-traj", str(tmp_path / "cli"), "--config", str(cfg_path),
                 "--u0", str(tmp_path / "v0"), "--out", str(tmp_path / "cli_lin")]) == 0
    assert _tree_digest(tmp_path / "cli") == _tree_digest(tmp_path / "base")
    assert _tree_digest(tmp_path / "cli_lin") == _tree_digest(tmp_path / "lin")


def test_streamed_run_over_its_own_base(tmp_path):
    # the writer makes a new fields.bin, so a base loaded from the output
    # directory reads on from its own file
    from dolbeault_ns.io import TrajectoryWriter

    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.01, nonlinearity=BilinearSpec.lamb(), seed=3)
    base = simulate(cfg, gen_initial(InitialSpec(), cfg))
    v0 = gen_initial(InitialSpec(), replace(cfg, seed=4))
    save_trajectory(tmp_path / "run", base)
    save_trajectory(tmp_path / "lin", solve_linearized(base, cfg, u0=v0))
    with TrajectoryWriter(tmp_path / "run") as sink:
        solve_linearized(load_trajectory(tmp_path / "run"), cfg, u0=v0, sink=sink)
    assert _tree_digest(tmp_path / "run") == _tree_digest(tmp_path / "lin")


@pytest.mark.parametrize("existing", [False, True])
def test_run_failing_midway_leaves_no_manifest(tmp_path, monkeypatch, existing):
    import dolbeault_ns.dynamics as dynamics
    from dolbeault_ns.io import TrajectoryWriter

    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.01, nonlinearity=BilinearSpec.lamb(), seed=3)
    u0 = gen_initial(InitialSpec(), cfg)
    run = tmp_path / "run"
    if existing:  # a complete trajectory from an earlier run in the same directory
        save_trajectory(run, simulate(cfg, u0))
    step, steps = dynamics._EtdHeun.step, []

    def failing(self, *args):
        if len(steps) == 3:
            raise RuntimeError("interrupted")
        steps.append(args)
        return step(self, *args)

    monkeypatch.setattr(dynamics._EtdHeun, "step", failing)
    with pytest.raises(RuntimeError, match="interrupted"), TrajectoryWriter(run) as sink:
        simulate(cfg, u0, sink)
    assert sink._fh is None  # the with statement closed fields.bin
    # u_0, p_0 .. u_3, p_3 were written before the fourth step failed
    assert (run / "fields.bin").stat().st_size == 4 * (2 + 1) * 5**4 * 16
    assert {p.name for p in run.iterdir()} == {"fields.bin"} | ({"diagnostics.csv"} if existing else set())
    with pytest.raises(FieldFormatError, match="no trajectory manifest"):
        load_trajectory(run)


def test_run_failing_its_input_checks_leaves_the_directory_alone(tmp_path):
    from dolbeault_ns.io import TrajectoryWriter

    cfg = SimConfig(n=2, q=1, N=8, mu=0.2, T=0.05, dt=0.01, nonlinearity=BilinearSpec.lamb(), seed=3)
    with pytest.raises(ValueError, match="initial data with q=2"), TrajectoryWriter(tmp_path / "run") as sink:
        simulate(cfg, FormField.zeros(cfg.make_grid(), 2, FOURIER), sink)
    assert not (tmp_path / "run").exists()


def test_stored_series_are_read_a_record_at_a_time(tmp_path):
    # 101 snapshots at n = 2, N = 8 (a 20 kB velocity record, 10 kB of
    # pressure, 3.0 MB in all): loading them holds the manifest and one
    # record's buffer, bochner_vel over them the norms' one (snapshots x S)
    # density matrix beside that, and a linearization around them, written
    # as it goes, its own scratch and its manifest's index: 100 steps peak
    # about 2 kB per snapshot above 10 (0.19 MB), and neither holds the
    # base series (or its own)
    import gc
    import tracemalloc

    from dolbeault_ns.io import TrajectoryWriter

    cfg = SimConfig(n=2, q=1, N=8, mu=0.1, T=0.1, dt=1e-3, nonlinearity=BilinearSpec.lamb(), seed=2)
    save_trajectory(tmp_path / "run", simulate(cfg, gen_initial(InitialSpec(), cfg)))
    series = (tmp_path / "run" / "fields.bin").stat().st_size
    record = (2 + 1) * 5**4 * 16  # one snapshot, u and p
    assert series == 101 * record
    v0 = gen_initial(InitialSpec(), replace(cfg, seed=3))
    short = replace(cfg, T=0.01)
    bochner_vel(load_trajectory(tmp_path / "run"), 0, 1)  # the grid's cached arrays are not the load's

    def peak(work):
        # a full collection empties the interpreter's free lists, and up to
        # 2000 small tuples refilled in the window read as 0.14 MB held: an
        # untraced run refills them first, and no collection runs in the window
        work(load_trajectory(tmp_path / "run"))
        gc.disable()
        tracemalloc.start()
        try:
            work(load_trajectory(tmp_path / "run"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    def linearize(config):
        def work(traj):
            with TrajectoryWriter(tmp_path / "lin") as sink:
                solve_linearized(traj, config, u0=v0, sink=sink)
        return work

    load = peak(lambda traj: None)
    norm = peak(lambda traj: bochner_vel(traj, 0, 1))
    long, brief = peak(linearize(cfg)), peak(linearize(short))
    assert load <= 0.1 * series, load
    assert norm <= 101 * 5**4 * 8 + 0.1 * series, norm
    assert long - brief <= 0.1 * 90 * record and long <= 0.5 * series, (long, brief)


def test_diagnostics_take_one_float64_row_per_step(tmp_path):
    # a run keeps its diagnostics as one float64 row per step (48 bytes) and
    # writes diagnostics.csv a row at a time, and a load parses it into one
    # such buffer: 3000 more steps of a one-snapshot Stokes run at n = 2,
    # N = 4 add at most 128 bytes per step to the traced peak of a run
    # through TrajectoryWriter, and 400 per row to a load's (566 and 1006
    # bytes when they went through Python lists of floats, lines and fields)
    import gc
    import tracemalloc

    from dolbeault_ns.io import TrajectoryWriter

    def peak(work):
        # no collection in the window, as in the test above
        gc.disable()
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    def run(steps):
        cfg = SimConfig(
            n=2, q=1, N=4, mu=0.2, T=steps * 1e-3, dt=1e-3, nonlinearity=BilinearSpec.stokes(), output_stride=steps
        )
        u0 = gen_initial(InitialSpec(), cfg)

        def work():
            with TrajectoryWriter(tmp_path / f"run{steps}") as sink:
                simulate(cfg, u0, sink)
        return work

    run(10)()  # the grid's cached arrays and the free lists are not the runs'
    short, long = peak(run(1000)), peak(run(4000))
    loaded = [peak(lambda steps=steps: load_trajectory(tmp_path / f"run{steps}")) for steps in (1000, 4000)]
    assert long - short <= 128 * 3000, (short, long)
    assert loaded[1] - loaded[0] <= 400 * 3000, loaded


def _mistype_config_echo(doc):
    """n = 2.5 in the config echo, under a matching config_hash."""
    doc["config"]["n"] = 2.5
    canonical = json.dumps(doc["config"], sort_keys=True, separators=(",", ":"))
    doc["config_hash"] = hashlib.sha256(canonical.encode()).hexdigest()


def _swap_rows(text):
    """diagnostics.csv with its second and third rows swapped."""
    lines = text.splitlines()
    lines[2], lines[3] = lines[3], lines[2]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "layout, name, change, word",
    [
        ("v2", "manifest.json", lambda d: d.pop("stamps"), "'stamps'"),
        ("v1", "manifest.json", lambda d: d.pop("stamps"), "'stamps'"),
        ("v2", "manifest.json", lambda d: d.update(snapshots="3"), "'snapshots'"),
        ("v2", "manifest.json", lambda d: d["fields"][3].pop("crc32"), "'crc32'"),
        ("v1", "u_000001/manifest.json", lambda d: d.pop("blobs"), "'blobs'"),
        ("v1", "p_000000/manifest.json", lambda d: d.update(n=2.5), "'n'"),
        ("v2", "manifest.json", lambda d: d["config"].update(mu=0.3), "config_hash"),
        ("v1", "manifest.json", lambda d: d["config"].update(mu=0.3), "config_hash"),
        ("v2", "manifest.json", _mistype_config_echo, "key 'n' must be an integer"),
        ("v2", "diagnostics.csv", lambda text: text.splitlines()[0], "rows"),
        ("v2", "diagnostics.csv", lambda text: text.replace(",", ";", 1), "columns"),
        ("v2", "diagnostics.csv", _swap_rows, "t is not strictly increasing"),
    ],
    ids=["v2-stamps", "v1-stamps", "v2-snapshots", "v2-crc32", "v1-blobs", "v1-field-n",
         "v2-config-hash", "v1-config-hash", "v2-config-n", "header-only", "bad-header", "swapped-rows"],
)
def test_cli_malformed_trajectory_exits_2(tmp_path, capsys, layout, name, change, word):
    _, traj = _small_run()
    run = tmp_path / "run"
    (_save_v1 if layout == "v1" else save_trajectory)(run, traj)
    if name.endswith(".csv"):
        (run / name).write_text(change((run / name).read_text()))
    else:
        _edit_json(run / name, change)
    assert main(["norms", "--traj", str(run), "--k", "0", "--s", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and word in lines[0], captured.err
    with pytest.raises(FieldFormatError, match=word):
        load_trajectory(run)


@pytest.mark.parametrize(
    "change, word",
    [(lambda d: d.pop("blobs"), "'blobs'"),
     (lambda d: d["blobs"].pop(), "1 blobs for 2 components"),
     (lambda d: d["blobs"][0].pop("crc32"), "'crc32'"),
     (lambda d: d.update(representation="bogus"), "unknown representation flag 'bogus'"),
     (lambda d: d.update(N=6), "N must be a power of two"),
     # q = 5 with the (empty) component and blob lists that n = 2 has for it
     (lambda d: d.update(q=5, components=[], blobs=[]), "bidegree q=5 outside 0..2")],
    ids=["no-blobs", "short-blobs", "no-crc32", "bogus-representation", "N-6", "q-5"],
)
def test_cli_malformed_field_manifest_exits_2(tmp_path, capsys, grid8, rng, change, word):
    from dolbeault_ns import dbar

    save_field(tmp_path / "F", dbar(random_form(grid8, 0, rng)))
    _edit_json(tmp_path / "F" / "manifest.json", change)
    assert main(["pressure", "--forces", str(tmp_path / "F"), "--out", str(tmp_path / "p")]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and word in lines[0], captured.err
    assert not (tmp_path / "p").exists()
    with pytest.raises(FieldFormatError, match=word):
        load_field(tmp_path / "F")


def _stored(tmp_path, kind):
    """A field (kind "field") or a trajectory directory under tmp_path."""
    if kind == "field":
        save_field(tmp_path / "F", random_form(SpectralGrid(2, 8), 1, np.random.default_rng(0)))
        return tmp_path / "F"
    save_trajectory(tmp_path / "run", _small_run()[1])
    return tmp_path / "run"


def _truncate_fields_bin(run):
    """Cut the last 16 bytes off fields.bin, and its size in the manifest."""
    data = (run / "fields.bin").read_bytes()[:-16]
    (run / "fields.bin").write_bytes(data)
    _edit_json(run / "manifest.json", lambda d: d.update(bytes=len(data)))


@pytest.mark.parametrize(
    "kind, change, load, message",
    [
        ("field", lambda path: (path / "manifest.json").write_text("{"), load_field, r"manifest .* is not JSON"),
        ("trajectory", _truncate_fields_bin, load_trajectory, r"is truncated \(9984 of 10000 bytes\)"),
        ("field", None, lambda path: load_field(path, SpectralGrid(2, 4)),
         r"stored grid \(n=2, N=8\) does not match SpectralGrid\(n=2, N=4\)"),
        ("field", lambda path: _edit_json(path / "manifest.json", lambda d: d.update(components=[[2], [1]])),
         load_field, r"component list \[\[2\], \[1\]\] is not the canonical \[\[1\], \[2\]\]"),
        ("field", lambda path: _edit_json(path / "manifest.json", lambda d: d.update(bytes_per_component=16)),
         load_field, r"16 bytes per component do not match the grid size \(65536\)"),
        ("trajectory", lambda path: _edit_json(path / "manifest.json", lambda d: d.update(schema="x/9")),
         load_trajectory, "unsupported trajectory schema 'x/9'"),
        ("trajectory", lambda path: _edit_json(path / "manifest.json", lambda d: d.update(snapshots=2)),
         load_trajectory, "has 3 stamps for 2 snapshots"),
    ],
    ids=["manifest-not-json", "truncated-blob", "field-grid", "component-list", "byte-layout", "schema",
         "stamp-count"],
)
def test_io_input_checks_name_the_bad_value(tmp_path, kind, change, load, message):
    path = _stored(tmp_path, kind)
    if change is not None:
        change(path)
    with pytest.raises(FieldFormatError, match=message):
        load(path)


# -- command line -----------------------------------------------------------------------


def _write_cfg(tmp_path, **overrides):
    doc = {
        "n": 2, "q": 1, "N": 8, "mu": 0.2, "T": 0.1, "dt": 0.01,
        "nonlinearity": {"kind": "lamb"}, "forcing": {"kind": "zero"},
        "output_stride": 5, "cfl_safety": 0.5, "cfl_mode": "fail",
        "seed": 5, "lps_r": None,
    }
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_verify_passes(capsys):
    assert main(["verify", "--op", "all", "--n", "2", "--q", "1", "--N", "8", "--trials", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["checks"]) == {"dbar", "adjoint", "laplacian", "leray", "pressure", "key1", "frechet"}
    assert all(entry["pass"] for entry in report["checks"].values())


def test_cli_verify_single_op(capsys):
    # laplacian and pressure are selectable on their own, at q >= 2 too
    for op, q, N in (("dbar", "1", "8"), ("laplacian", "2", "4"), ("pressure", "2", "4")):
        assert main(["verify", "--op", op, "--n", "3", "--q", q, "--N", N, "--trials", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report["checks"]) == [op]


def test_cli_verify_usage_error(capsys):
    assert main(["verify", "--op", "key1", "--n", "3", "--q", "2", "--N", "8"]) == 2
    # no trial would pass every check vacuously
    for op, trials in (("dbar", "0"), ("leray", "-1")):
        assert main(["verify", "--op", op, "--n", "2", "--q", "1", "--N", "4", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--trials" in captured.err


@pytest.mark.parametrize("q", [0, 2])
def test_cli_verify_rejects_q_outside_the_range(capsys, q):
    assert main(["verify", "--n", "2", "--q", str(q), "--N", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"q={q} outside 1..1" in captured.err


def test_cli_key1_check_judges_by_the_gate_tolerance():
    # verify's key1 check and simulate's gate read one tolerance
    import dolbeault_ns.cli as cli
    import dolbeault_ns.dynamics as dynamics
    from dolbeault_ns import verify_key1

    report = verify_key1(BilinearSpec.lamb(), SpectralGrid(2, 4), 1, trials=1)
    assert cli.CHECKS["key1"][0] is dynamics._KEY1_TOL == report["tol"]


@pytest.mark.parametrize("op", ["laplacian", "leray", "frechet", "key1"])
def test_cli_verify_fails_on_a_nan_draw(op, monkeypatch, capsys):
    # a NaN that is not the first value of a worst-of fails its check, where
    # max() dropped it: the second laplacian draw of three, the second of
    # _leray's residuals, the second eps of frechet and the second key1
    # pairing; each reports a NaN residual and verify exits 1
    import dolbeault_ns.cli as cli
    import dolbeault_ns.dynamics as dynamics

    calls = []

    def nan_at_second_call(real):
        def call(*args, **kwargs):
            calls.append(op)
            value = real(*args, **kwargs)
            return float("nan") if len(calls) == 2 else value

        return call

    if op == "laplacian":
        tol, draw = cli.CHECKS[op]
        monkeypatch.setitem(cli.CHECKS, op, (tol, nan_at_second_call(draw)))
    owner, name = {"leray": (cli, "l2_inner"), "frechet": (cli, "frechet_residual"),
                   "key1": (dynamics, "l2_inner")}.get(op, (None, None))
    if owner is not None:
        monkeypatch.setattr(owner, name, nan_at_second_call(getattr(owner, name)))
    if op == "leray":
        assert math.isnan(cli._leray(SpectralGrid(2, 4), 1, np.random.default_rng(0), None))
        calls.clear()
    assert main(["verify", "--op", op, "--n", "2", "--q", "1", "--N", "4", "--trials", "3"]) == 1
    check = json.loads(capsys.readouterr().out)["checks"][op]
    assert check["pass"] is False and math.isnan(check["residual"])


@pytest.mark.parametrize("flag, want", [([], 100), (["--trials", "5"], 5), ([], "default")])
def test_cli_verify_key1_honors_trials(monkeypatch, capsys, flag, want):
    # without --trials, verify's key1 check draws verify_key1's own default
    import inspect

    import dolbeault_ns.cli as cli
    import dolbeault_ns.dynamics as dynamics

    if want == "default":
        want = inspect.signature(dynamics.verify_key1).parameters["trials"].default
    seen = []

    def fake_key1(spec, grid, q, trials, seed):
        seen.append(trials)
        return {"max_normalized_pairing": 0.0, "tol": 1e-10}

    monkeypatch.setattr(cli, "verify_key1", fake_key1)
    assert main(["verify", "--op", "key1", "--n", "2", "--q", "1", "--N", "4"] + flag) == 0
    assert seen == [want]


def test_cli_chain_loads_no_scipy(tmp_path):
    # every command in a fresh interpreter; the FFTs are numpy's, so no
    # command loads any part of scipy
    chain = f"""
import json, sys
import numpy as np
from dolbeault_ns import SpectralGrid, dbar, random_form, save_field
from dolbeault_ns.cli import main
tmp = {str(tmp_path)!r}
cfg = tmp + "/cfg.json"
with open(cfg, "w") as f:
    json.dump({{"n": 2, "q": 1, "N": 4, "mu": 0.2, "T": 0.03, "dt": 0.01,
               "nonlinearity": {{"kind": "lamb"}}, "output_stride": 1, "seed": 3}}, f)
save_field(tmp + "/F", dbar(random_form(SpectralGrid(2, 4), 0, np.random.default_rng(0))))
for argv in (["simulate", "--config", cfg, "--out", tmp + "/run"],
             ["norms", "--traj", tmp + "/run", "--k", "0", "--s", "1", "--lps-r", "5"],
             ["linearize", "--base-traj", tmp + "/run", "--config", cfg, "--out", tmp + "/lin"],
             ["pressure", "--forces", tmp + "/F", "--out", tmp + "/p"],
             ["verify", "--op", "all", "--n", "2", "--q", "1", "--N", "4", "--trials", "3"]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")), file=sys.stderr)
"""

    import dolbeault_ns

    src = str(Path(dolbeault_ns.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    done = subprocess.run([sys.executable, "-c", chain], capture_output=True, text=True, timeout=300, env=env)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr.splitlines()[-1]) == []


def test_cli_simulate_and_norms(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "diagnostics.csv").exists()
    capsys.readouterr()

    assert main(["norms", "--traj", str(out), "--k", "0", "--s", "1", "--lps-r", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "bochner_vel" in report["values"]
    assert "lps_integral" in report["values"]
    assert np.isfinite(report["values"]["bochner_vel"])

    # a non-finite LPS exponent is an input error, not a NaN report
    for r in ("nan", "inf"):
        assert main(["norms", "--traj", str(out), "--k", "0", "--s", "1", "--lps-r", r]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err.lower()


def test_cli_norms_matches_analytic_heat_trajectory(tmp_path, capsys):
    # single decaying mode: the velocity-scale norm at (k, s) = (0, 1) has a
    # closed form; the CLI figure must agree to 1e-6
    cfg_path = _write_cfg(
        tmp_path,
        mu=0.2, T=1.0, dt=1.0 / 256.0, output_stride=1,
        nonlinearity={"kind": "stokes"},
    )
    out = tmp_path / "run"
    initial = json.dumps({"kind": "single_mode", "zeta": [0, 1, 0, 0], "component": [1], "amplitude": [1.0, 0.0]})
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--initial", initial]) == 0
    capsys.readouterr()
    assert main(["norms", "--traj", str(out), "--k", "0", "--s", "1"]) == 0
    report = json.loads(capsys.readouterr().out)

    mu, T, zsq, vol = 0.2, 1.0, 1.0, (2 * np.pi) ** 4
    lam = mu * zsq / 4.0
    total = 0.0
    import itertools

    for j in (0, 1):
        for alpha_total in range(0, 2 - 2 * j + 1):
            for combo in itertools.combinations_with_replacement(range(4), alpha_total):
                counts = [0, 0, 0, 0]
                for axis in combo:
                    counts[axis] += 1
                W = 1.0
                for axis, p in enumerate(counts):
                    if p:
                        W *= float([0, 1, 0, 0][axis]) ** (2 * p)
                C = W * lam ** (2 * j) * vol
                L = zsq * W * lam ** (2 * j) * vol * -np.expm1(-2 * lam * T) / (2 * lam)
                total += C + mu * L
    analytic = float(np.sqrt(total))
    assert report["values"]["bochner_vel"] == pytest.approx(analytic, rel=1e-6)


def test_cli_simulate_reproducible(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(b)]) == 0
    assert _tree_digest(a) == _tree_digest(b)


def test_cli_pressure_tool(tmp_path, capsys, grid8, rng):
    from dolbeault_ns import dbar

    g = random_form(grid8, 0, rng)
    F = dbar(g)
    save_field(tmp_path / "F", F)
    out = tmp_path / "p"
    assert main(["pressure", "--forces", str(tmp_path / "F"), "--out", str(out)]) == 0
    p = load_field(out, grid=grid8)
    assert l2_norm(p - g) < 1e-10 * l2_norm(g)


def test_cli_pressure_rejects_solenoidal(tmp_path, grid8, rng, capsys):
    from dolbeault_ns import leray_project

    F = leray_project(random_form(grid8, 1, rng))
    save_field(tmp_path / "F", F)
    assert main(["pressure", "--forces", str(tmp_path / "F"), "--out", str(tmp_path / "p")]) == 1


def test_cli_linearize(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, output_stride=1)
    base = tmp_path / "base"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(base)]) == 0
    out = tmp_path / "lin"
    assert main(["linearize", "--base-traj", str(base), "--config", str(cfg_path), "--out", str(out)]) == 0
    traj = load_trajectory(out)
    assert np.all(np.isfinite(traj.diagnostics["energy"]))


def test_cli_missing_config_is_usage_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "overrides",
    [{"output_stride": 0}, {"mu": float("nan")}, {"dt": float("inf")}, {"lps_r": 4.0},
     {"forcing": {"kind": "singel_mode"}},
     # |zeta_1| = 3 > N/3: on the lattice of N = 8, outside the 2/3-rule band
     {"forcing": {"kind": "single_mode", "zeta": [3, 0, 0, 0], "component": [1], "amplitude": [1.0, 0.0]}},
     {"forcing": {"kind": "file", "path": "aliased-force"}},
     # json reads NaN and Infinity, which no key takes
     {"forcing": {"kind": "single_mode", "zeta": [1, 1, 0, 0], "component": [1], "amplitude": [float("inf"), 0.0]}},
     {"forcing": {"kind": "single_mode", "zeta": [1, 1, 0, 0], "component": [1], "amplitude": [1.0, 0.0],
                  "omega": float("nan")}},
     {"nonlinearity": {"kind": "custom", "m1": {"entries": [{"K": [1], "A": [1, 2], "B": [2], "re": float("nan")}]}}},
     # a number amplitude is admitted, but not a non-finite one or three parts
     {"forcing": {"kind": "single_mode", "zeta": [1, 1, 0, 0], "component": [1], "amplitude": float("nan")}},
     {"forcing": {"kind": "single_mode", "zeta": [1, 1, 0, 0], "component": [1], "amplitude": [1.0, 0.0, 2.0]}}],
)
def test_cli_rejects_bad_config_with_exit_2(tmp_path, capsys, overrides):
    if overrides.get("forcing", {}).get("kind") == "file":
        # a force with one mode outside the band
        force = FormField.zeros(SpectralGrid(2, 8), 1)
        force.data[(0,) + force.grid.mode_index((0, 0, 4, 0))] = 1.0
        save_field(tmp_path / "aliased-force", force)
        overrides = {"forcing": {"kind": "file", "path": str(tmp_path / "aliased-force")}}
    cfg_path = _write_cfg(tmp_path, **overrides)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err.lower()
    assert not (tmp_path / "o").exists()


_CFG = {"n": 2, "q": 1, "N": 8, "mu": 0.2, "T": 0.1, "dt": 0.01}


@pytest.mark.parametrize("command", ["simulate", "linearize"])
@pytest.mark.parametrize(
    "doc, message",
    [({"q": 1, "N": 8, "mu": 0.2, "T": 0.1, "dt": 0.01}, "required key 'n'"),
     ({"n": 2, "q": 1, "N": 8, "mu": 0.2, "T": 0.1}, "required key 'dt'"),
     ([1, 2], "JSON object, got list"),
     ({**_CFG, "n": None}, "key 'n' must be an integer, got None"),
     ({**_CFG, "n": 2.5}, "key 'n' must be an integer, got 2.5"),
     ({**_CFG, "nonlinearity": 3}, "key 'nonlinearity' must be a JSON object, got 3"),
     ({**_CFG, "nonlinearity": {"kind": "custom", "m1": {"entries": [{"A": [1, 2], "B": [1], "re": 1.0}]}}},
      "m1 entry 0 lacks the required key 'K'"),
     ({**_CFG, "forcing": {"kind": "single_mode", "zeta": 5, "component": [1]}},
      "key 'zeta' must be a list of integers, got 5"),
     ({**_CFG, "cfl_safety": [1]}, "key 'cfl_safety' must be a number, got [1]")],
    ids=["no-n", "no-dt", "list", "n-null", "n-fraction", "nonlinearity-int", "entry-no-K", "zeta-int",
         "cfl-safety-list"],
)
def test_cli_malformed_config_exits_2(tmp_path, capsys, command, doc, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    # linearize reads its config before the base trajectory
    where = ["--out"] if command == "simulate" else ["--base-traj", str(tmp_path / "base"), "--out"]
    assert main([command, "--config", str(cfg_path)] + where + [str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "linearize"])
@pytest.mark.parametrize(
    "initial, message",
    [("[1]", "initial must be a JSON object, got list"),
     ("{", "Expecting property name"),
     ('{"kind": "single_mode", "zeta": 5}', "initial key 'zeta' must be a list of integers, got 5"),
     ('{"decay": "steep"}', "initial key 'decay' must be a number, got 'steep'"),
     ('{"kind": "single_mode", "zeta": [1, 0, 0, 0], "component": [1], "amplitude": [1.0]}',
      "initial key 'amplitude' must be [re, im]"),
     ('{"kind": "single_mode", "zeta": [1, 0, 0, 0]}', "initial component [] is not a (0,1) index"),
     # |zeta_1| = 4 > N/3: the mode would be dealiased to a zero field
     ('{"kind": "single_mode", "zeta": [4, 0, 0, 0], "component": [1]}', "outside the 2/3-rule band"),
     # sigma_2(zeta) = 0, so dbar u = 0: a pure gradient, which the projection removes
     ('{"kind": "single_mode", "zeta": [1, 0, 0, 0], "component": [1]}',
      "initial single_mode at zeta [1, 0, 0, 0] projects to zero"),
     ('{"kind": "vortex_sheet"}', "unknown initial-condition kind 'vortex_sheet'"),
     # json reads NaN and Infinity, which no key takes
     ('{"kind": "single_mode", "zeta": [1, 1, 0, 0], "component": [1], "amplitude": Infinity}',
      "initial key 'amplitude' must be a number, got inf"),
     ('{"decay": NaN}', "initial key 'decay' must be a number, got nan"),
     # a stored initial field is --u0, not a kind
     ('{"kind": "file", "path": "x"}', "unknown initial-condition kind 'file'")],
    ids=["list", "not-json", "zeta-int", "decay-str", "amplitude-short", "no-component", "zeta-outside-band",
         "pure-gradient", "bad-kind", "amplitude-infinite", "decay-nan", "file-kind"],
)
def test_cli_malformed_initial_exits_2(tmp_path, capsys, command, initial, message):
    cfg_path = _write_cfg(tmp_path, output_stride=1, T=0.02)
    where = ["--out"]
    if command == "linearize":
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "base")]) == 0
        where = ["--base-traj", str(tmp_path / "base"), "--out"]
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path), "--initial", initial] + where + [str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and message in lines[0], captured.err
    assert not (tmp_path / "o").exists()


def test_cli_u0_loads_on_the_full_lattice(tmp_path, capsys):
    # --u0 is a field directory on the full lattice; the run dealiases it,
    # and rejects it if that moves it
    cfg_path = _write_cfg(tmp_path, output_stride=1, T=0.02)
    cfg = load_config(cfg_path)
    u0 = gen_initial(InitialSpec(), cfg)
    save_field(tmp_path / "u0", u0)
    simulate_u0 = ["simulate", "--config", str(cfg_path), "--u0", str(tmp_path / "u0"), "--out"]
    assert main(simulate_u0 + [str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    aliased = _lattice(u0)
    aliased.data[(0,) + aliased.grid.mode_index((0, 0, 3, 0))] = 0.5
    save_field(tmp_path / "u0", aliased)
    capsys.readouterr()
    assert main(simulate_u0 + [str(tmp_path / "c")]) == 2
    assert "not solenoidal/band-limited" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "linearize"])
def test_cli_u0_and_initial_exclude_each_other(tmp_path, capsys, command):
    cfg_path = _write_cfg(tmp_path)
    where = ["--out"] if command == "simulate" else ["--base-traj", str(tmp_path / "base"), "--out"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_path), "--u0", str(tmp_path / "u0"),
              "--initial", '{"kind": "taylor_green_analog"}'] + where + [str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_bad_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
