"""Density-weighted stream fields: synthesis, singular sets, integrability
witnesses, k-form reductions, and finite-difference verification."""

from .density import (
    DensityError,
    DensityModel,
    Interval,
    PhiBranch,
    born_infeld,
    caustic,
    custom,
    extremal,
    shallow_water,
)
from .drive import (
    DriveError,
    GradientDrive,
    RawField,
    Scalar2D,
    SkewMatrix,
    coord_names,
    coulomb,
    drive_batch,
    gradient_drive,
    radial_class,
    radial_log,
    raw_drive,
    scalar_drive,
    shallow_vortex,
    skew_drive,
)
from .synth import (
    FLAG_DRIVE_UNDEFINED,
    FLAG_GAMMA0,
    FLAG_GAMMA_G,
    FLAG_GAMMA_INF,
    FLAG_GAMMA_S,
    FLAG_NONPHYSICAL_RHO,
    FLAG_OUTSIDE_OMEGA,
    BranchPolicy,
    FieldSolution,
    GridSpec,
    SynthError,
    Tolerances,
    prefer_type1,
    prefer_type2,
    region_map,
    single_branch,
    synthesize,
    synthesize_at_points,
)
from .singular import SingularError, SingularReport, classify, classify_solution, sonic_contour
from .frobenius import (
    EtaRecovery,
    EtaSource,
    FrobeniusError,
    FrobeniusWitness,
    curl_residual_grid,
    minor_defect_with,
    recover_eta,
    witness_2d,
    witness_gradient,
    witness_nd,
)
from .forms import (
    FormDrive,
    FormError,
    FormValues,
    GammaWitness,
    KForm,
    codifferential,
    codifferential_sign,
    evaluate_form,
    exterior_d,
    gamma_witness,
    hodge_star,
    insert_sign,
    kform,
    multi_indices,
    omega_values,
    star_sign,
    synthesize_form,
    synthesize_form_closed,
    wedge_1form,
)
from .verify import (
    MASK_BITS,
    ResidualReport,
    VerifyError,
    codifferential_residual,
    convergence_study,
    divergence_residual,
    energy,
    energy_density,
    exactness_residual,
    fit_order,
    frobenius_residual,
    minor_residual,
)
from .config import ConfigError, EXAMPLES, RunConfig, example_config, load_config, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
