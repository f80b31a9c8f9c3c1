"""Simulation and diagnostics for discrete approximations of Levy-type processes.

The package provides:

- a data model for Levy triplets, jump measures and compensation functions,
- numerical evaluation of the associated integro-differential operators and
  checkers for the operator-convergence conditions,
- three simulation schemes (symmetric stable-type chains, Euler steps with
  frozen Levy increments, and a two-point scheme for one-dimensional
  diffusions in a potential),
- random-environment pipelines coupling lattice walks with the potential
  scheme,
- time embeddings (floor interpolation and Poissonization) with clock
  diagnostics, and
- distributional / martingale diagnostics plus a batch CLI.
"""

from .core import (
    DELTA,
    Atoms,
    Chi1,
    Chi2,
    CompensationFunction,
    ConstantTripletField,
    CustomChi,
    LevyTriplet,
    PathBatch,
    SchemeConfig,
    StableLike,
    TripletField,
    jump_measure_from_config,
    sphere_surface_area,
    triplet_from_config,
    validate_hypotheses,
)
from .diagnostics import explosion_stats, ks_distance, martingale_residual, wasserstein1
from .embedding import doob_bound_check, floor_embed, gamma_clock, poissonize_with
from .environment import (
    BernoulliPoisson,
    CustomEnvironment,
    IIDScaled,
    QuenchedRun,
    quenched_cross_validate,
    rwre_simulate,
)
from .euler import IncrementPlan, euler_chain_simulate, levy_increment_sample
from .operators import (
    ConvergenceReport,
    TestFunction,
    apply_operator,
    bump,
    chi_drift_adjustment,
    chi_quadratic_matrix,
    convergence_gaps,
    default_test_functions,
    pmp_spot_check,
)
from .potential import (
    CallablePotential,
    GridPotential,
    PiecewiseConstantPotential,
    Potential,
    exp_integral,
    phi_eval,
    potential_chain_simulate,
    potential_distance,
    transport_test_function,
)
from .stable import StableField, stable_chain_simulate

__version__ = "0.1.0"
