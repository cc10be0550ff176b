"""permlab: permanents of row-constrained random matrices.

Exact permanent kernels, closed-form moments of the scaled permanent T/mu
under a row-constrained random model, exhaustive small-n oracles validating
those formulas, and a seeded Monte Carlo harness for concentration
experiments.
"""

from .core import (
    DenseMatrix,
    DistributionSpec,
    DomainError,
    ModelSpec,
    ParseError,
    PermlabError,
    PrecisionError,
    ScaledValue,
    ShapeError,
    SizeLimitError,
    parse_matrix,
    write_matrix,
)
from .experiments import (
    SweepPlan,
    SweepRow,
    TrialBatch,
    concentration_sweep,
    estimate_moments,
    resolve_r_rule,
    run_trial,
    summary_row,
    write_csv,
)
from .model import (
    TrialSeed,
    enumerate_constraint_matrices,
    constraint_class_size,
    sample_constrained_matrix,
    sample_row_support,
    trial_rng,
)
from .moments import (
    alpha_beta,
    brute_second_moment_pairs,
    condition_check,
    exact_moments_enumerate,
    moment_report,
    MomentReport,
    mu_n,
    pair_moment,
    second_moment_bounds,
    vdw_bound,
)
from .permanent import per_naive, per_ryser, per_scaled
from .verify import cross_check_suite

__version__ = "0.1.0"

__all__ = [
    "DenseMatrix",
    "DistributionSpec",
    "DomainError",
    "ModelSpec",
    "ParseError",
    "PermlabError",
    "PrecisionError",
    "ScaledValue",
    "ShapeError",
    "SizeLimitError",
    "SweepPlan",
    "SweepRow",
    "TrialBatch",
    "TrialSeed",
    "MomentReport",
    "alpha_beta",
    "brute_second_moment_pairs",
    "concentration_sweep",
    "condition_check",
    "constraint_class_size",
    "cross_check_suite",
    "enumerate_constraint_matrices",
    "estimate_moments",
    "exact_moments_enumerate",
    "moment_report",
    "mu_n",
    "pair_moment",
    "parse_matrix",
    "per_naive",
    "per_ryser",
    "per_scaled",
    "resolve_r_rule",
    "run_trial",
    "sample_constrained_matrix",
    "sample_row_support",
    "second_moment_bounds",
    "summary_row",
    "trial_rng",
    "vdw_bound",
    "write_csv",
    "write_matrix",
]
