"""Workloads of the solver benchmark: inputs made from a seed, the timed
operation, and the checks on its outputs.

One operation (op) follows the CLI chain

    solve (simulate, or solve_linearized) -> save_trajectory
        -> load_trajectory -> energy_report + bochner_vel(k=0, s=1)

and, for the linearize workload, starts by loading the base trajectory, as
``dolbeault-ns linearize`` does.  The solver modules are reached through
their module objects at call time, so the tracing wrappers of spans.py see
every call the op makes.
"""

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dolbeault_ns.dynamics as dynamics
import dolbeault_ns.io as dio
import dolbeault_ns.norms as norms
from dolbeault_ns.dolbeault import dbar_star
from dolbeault_ns.forms import BilinearSpec, CustomTerm, FormField, l2_norm

MU = 0.1
DT = 1e-3
# --seed selects one of SEED_POOL input sets; each set has a fingerprint
# recorded from the reference code in fingerprints.json.
SEED_POOL = 32
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
FINGERPRINT_KEYS = ("energy", "dbar_norm_sq", "lps_accum", "bochner_vel")
RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    """One solver configuration; every workload uses q = 1, mu = 0.1,
    dt = 1e-3, zero forcing and random solenoidal initial data."""

    name: str
    nonlinearity: str  # "lamb", "stokes" or "custom" (Lamb written as tensor entries)
    n: int
    N: int
    steps: int
    stride: int
    linearize: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lamb-n2N16", "lamb", n=2, N=16, steps=20, stride=10),
        Workload("stokes-n2N16", "stokes", n=2, N=16, steps=40, stride=20),
        Workload("linearize-n2N8", "lamb", n=2, N=8, steps=100, stride=1, linearize=True),
        Workload("custom-n3N8", "custom", n=3, N=8, steps=4, stride=2),
    )
}


def lamb_as_custom(n: int) -> BilinearSpec:
    """The q = 1 Lamb pair (M1, M2) spelled out as sparse tensor entries, in
    the order apply_m1/apply_m2 accumulate the built-in kind."""
    m1 = []
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            if j != k:
                pair = (j, k) if j < k else (k, j)
                m1.append(CustomTerm(k=(k,), a=pair, b=(j,), coeff=complex(1.0 if j < k else -1.0), conj_u=True))
    m2 = [CustomTerm(k=(), a=(j,), b=(j,), coeff=1 + 0j, conj_u=True) for j in range(1, n + 1)]
    return BilinearSpec.custom(m1, m2)


def _spec(wl: Workload) -> BilinearSpec:
    if wl.nonlinearity == "custom":
        return lamb_as_custom(wl.n)
    return BilinearSpec(wl.nonlinearity)


def make_config(wl: Workload, config_seed: int) -> dynamics.SimConfig:
    return dynamics.SimConfig(
        n=wl.n,
        q=1,
        N=wl.N,
        mu=MU,
        T=wl.steps * DT,
        dt=DT,
        nonlinearity=_spec(wl),
        output_stride=wl.stride,
        seed=config_seed,
    )


@dataclass
class Inputs:
    workload: Workload
    pool_seed: int
    config: dynamics.SimConfig
    u0: FormField
    base_dir: Path | None = None


def setup(wl: Workload, seed: int) -> Inputs:
    """Config, grid and initial data: the work a CLI command does before it
    solves.  The linearize workload uses config seed 2s + 1 for u0 and
    keeps 2s for its base trajectory."""
    pool_seed = seed % SEED_POOL
    config = make_config(wl, 2 * pool_seed + 1 if wl.linearize else pool_seed)
    u0 = dio.gen_initial(dio.InitialSpec(kind="random_solenoidal"), config, config.make_grid())
    return Inputs(wl, pool_seed, config, u0)


def write_base(inputs: Inputs, path: Path):
    """Benchmark-side input of the linearize workload: a stride-1 Lamb run."""
    base_cfg = make_config(inputs.workload, 2 * inputs.pool_seed)
    base = dynamics.simulate(base_cfg, dio.gen_initial(dio.InitialSpec(), base_cfg))
    dio.save_trajectory(path, base)
    inputs.base_dir = Path(path)


@dataclass
class OpResult:
    traj: dynamics.Trajectory
    loaded: dynamics.Trajectory
    values: dict  # final diagnostics and bochner_vel, keyed as FINGERPRINT_KEYS
    base_snapshots: int
    solve_s: float
    total_s: float

    @property
    def step_ms(self) -> float:
        return 1e3 * self.solve_s / self.traj.config.steps


def run_op(inputs: Inputs, out_dir: Path) -> OpResult:
    """One timed op; out_dir must not exist yet."""
    cfg = inputs.config
    start = time.perf_counter()
    if inputs.base_dir is not None:
        base = dio.load_trajectory(inputs.base_dir)
        t_solve = time.perf_counter()
        traj = dynamics.solve_linearized(base, cfg, u0=inputs.u0)
        base_snapshots = len(base.velocities)
    else:
        t_solve = start
        traj = dynamics.simulate(cfg, inputs.u0)
        base_snapshots = 0
    t_solved = time.perf_counter()
    dio.save_trajectory(out_dir, traj)
    loaded = dio.load_trajectory(out_dir)
    norms.energy_report(loaded)
    bochner = norms.bochner_vel(loaded, k=0, s=1)
    end = time.perf_counter()
    values = {key: float(loaded.diagnostics[key][-1]) for key in FINGERPRINT_KEYS[:3]}
    values["bochner_vel"] = float(bochner)
    return OpResult(traj, loaded, values, base_snapshots, t_solved - t_solve, end - start)


def load_fingerprint(inputs: Inputs) -> dict | None:
    try:
        doc = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return doc["workloads"].get(inputs.workload.name, {}).get(str(inputs.pool_seed))


def _same_trajectory(a: dynamics.Trajectory, b: dynamics.Trajectory) -> bool:
    if a.stamps.tobytes() != b.stamps.tobytes() or len(a.velocities) != len(b.velocities):
        return False
    for fa, fb in zip(a.velocities + a.pressures, b.velocities + b.pressures):
        if fa.rep != fb.rep or fa.q != fb.q or fa.data.tobytes() != fb.data.tobytes():
            return False
    return all(a.diagnostics[k].tobytes() == b.diagnostics[k].tobytes() for k in a.diagnostics)


def check_op(inputs: Inputs, res: OpResult, reference: np.ndarray | None, fingerprint: dict | None) -> list:
    """Every output check of one op; returns the failed ones (empty = pass).

    reference is the final state of the first op in the process.
    """
    problems = []
    final = res.traj.velocities[-1].to_fourier()
    if not np.all(np.isfinite(final.data)):
        problems.append("final state is not finite")
    else:
        ratio = l2_norm(dbar_star(final)) / l2_norm(final)
        if not ratio <= RTOL:
            problems.append(f"final state is not solenoidal: ||dbar* u||/||u|| = {ratio:.3e}")
    if reference is not None and final.data.tobytes() != reference.tobytes():
        problems.append("final state differs from the first op in the process")
    if not _same_trajectory(res.traj, res.loaded):
        problems.append("loaded trajectory differs from the in-memory one")
    if inputs.workload.nonlinearity == "stokes":
        grid = final.grid
        t_end = float(res.traj.stamps[-1])
        exact = np.exp(-inputs.config.mu * grid.zeta_sq * t_end / 4.0) * inputs.u0.to_fourier().data
        err = np.linalg.norm(final.data - exact) / np.linalg.norm(exact)
        if not err <= RTOL:
            problems.append(f"stokes final state misses the heat flow by {err:.3e} relative")
    if fingerprint is None:
        problems.append("no fingerprint recorded for this workload and seed")
    else:
        for key in FINGERPRINT_KEYS:
            want, got = fingerprint[key], res.values[key]
            if not abs(got - want) <= RTOL * abs(want):
                problems.append(f"{key} = {got!r} differs from the fingerprint {want!r}")
    return problems
