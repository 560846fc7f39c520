"""Pseudospectral solver and verification suite for incompressible
Navier-Stokes analogues on (0,q)-forms over the complex torus."""

from .dolbeault import (
    PressureConsistencyError,
    dbar,
    dbar_star,
    hodge_split,
    inv_laplacian,
    laplacian_q,
    leray_project,
    pressure_recover,
)
from .dynamics import (
    BlowUpError,
    CFLError,
    ForcingSpec,
    SimConfig,
    SnapshotSink,
    Trajectory,
    frechet_residual,
    linearized_b,
    nonlinearity,
    simulate,
    solve_linearized,
    step_etd_heun,
    verify_key1,
)
from .forms import (
    BilinearSpec,
    CustomTerm,
    FormField,
    apply_m1,
    apply_m2,
    index_of,
    insert_sign,
    l2_inner,
    l2_norm,
    multi_indices,
    random_form,
)
from .io import (
    FieldFormatError,
    InitialSpec,
    TrajectoryWriter,
    gen_initial,
    load_field,
    load_trajectory,
    save_field,
    save_trajectory,
)
from .norms import NormReport, bochner_for, bochner_pre, bochner_vel, energy_report, lps_integral, lr_norm, sobolev_hs
from .spectral import FOURIER, PHYSICAL, SpectralGrid

__version__ = "0.1.0"
