import hashlib
import json
import zlib

import numpy as np
import pytest

from dolbeault_ns import (
    BilinearSpec,
    FieldFormatError,
    FormField,
    InitialSpec,
    SimConfig,
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
)
from dolbeault_ns.cli import main
from dolbeault_ns.io import config_hash, load_config, save_config
from dolbeault_ns.spectral import FOURIER, SpectralGrid


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
    for a, b in zip(back.velocities, traj.velocities):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(back.pressures, traj.pressures):
        assert np.array_equal(a.data, b.data)
    for c in traj.diagnostics:
        assert np.array_equal(back.diagnostics[c], traj.diagnostics[c])


def test_trajectory_layout_and_columns(tmp_path):
    _, traj = _small_run()
    save_trajectory(tmp_path / "run", traj)
    root = tmp_path / "run"
    assert (root / "manifest.json").exists()
    assert (root / "u_000000" / "manifest.json").exists()
    assert (root / "p_000002" / "comp_000.bin").exists()
    header = (root / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,energy,dbar_norm_sq,dbar_star_residual,max_abs_u,lps_accum"
    doc = json.loads((root / "manifest.json").read_text())
    assert doc["config_hash"] == config_hash(traj.config)


def test_reproducible_trajectory_directories(tmp_path):
    _, t1 = _small_run(seed=33)
    _, t2 = _small_run(seed=33)
    save_trajectory(tmp_path / "a", t1)
    save_trajectory(tmp_path / "b", t2)
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")


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
    assert main(["verify", "--op", "dbar", "--n", "3", "--q", "1", "--N", "8", "--trials", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report["checks"]) == ["dbar"]


def test_cli_verify_usage_error(capsys):
    assert main(["verify", "--op", "key1", "--n", "3", "--q", "2", "--N", "8"]) == 2


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
     {"forcing": {"kind": "singel_mode"}}],
)
def test_cli_rejects_bad_config_with_exit_2(tmp_path, capsys, overrides):
    cfg_path = _write_cfg(tmp_path, **overrides)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "error" in capsys.readouterr().err.lower()
    assert not (tmp_path / "o").exists()


def test_cli_bad_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2
