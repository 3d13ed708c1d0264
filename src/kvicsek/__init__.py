"""Pseudo-spectral simulation suite for the kinetic Vicsek alignment model."""

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
    validate_kernels,
)
from .linear import (
    HypoWeights,
    ModeState,
    comparison_sandwich,
    evolve_mode,
    hypo_functional,
    jk_coefficients,
    jk_field,
    measure_ed_rate,
    mixing_curve,
    speed_constant,
    speed_decaying,
    step_mode,
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

__version__ = "0.1.0"
