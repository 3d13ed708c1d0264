"""Pseudo-spectral simulation suite for the kinetic Vicsek alignment model."""

from .config import CODE_VERSION as __version__
from .spectral import (
    AngularProfile,
    SpectralField,
    TorusGrid,
    norm,
    read_snapshot,
    remainder,
    write_snapshot,
    x_average,
)
from .influence import (
    AngularKernel,
    InfluencePair,
    angular_kernel,
    make_influence,
)
from .linear import (
    HypoWeights,
    ModeState,
    evolve_mode,
    hypo_functional,
    jk_coefficients,
    jk_field,
    measure_ed_rate,
    mixing_curve,
    speed_constant,
    speed_decaying,
)
from .kinetic import KineticParams, default_initial, run_experiment, step_kinetic
from .homogeneous import (
    HomogeneousState,
    bessel_ratio,
    evolve_homogeneous,
    fisher_information,
    free_energy,
    frouvelle_liu_rhs,
    linear_stability,
    solve_compatibility,
    von_mises_state,
)
from .agents import (
    AgentEnsemble,
    em_step,
    empirical_density,
    ensemble_from_profile,
    order_parameter,
    projection_drift_check,
)
from .fitting import fit_rate
from .presets import ExperimentConfig, run_preset
