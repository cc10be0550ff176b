"""permlab: permanents of row-constrained random matrices.

Exact permanent kernels, closed-form moments of the scaled permanent T/mu
under a row-constrained random model, exhaustive small-n oracles validating
those formulas, and a seeded Monte Carlo harness for concentration
experiments.

The top level re-exports the names the benchmark harness uses; every other
name is imported from its submodule.
"""

import os

# One OpenBLAS thread per process, set before any submodule imports numpy.
# Parallelism is --workers processes, which inherit the variable; every BLAS
# call here is small (n <= 30) except the jackknife's dot product, which a
# threaded ddot splits by CPU count and so sums in a host-dependent order.
# It also shortens start-up: a bare `import numpy` process took 117 ms with
# one OpenBLAS thread and 180-189 ms with OpenBLAS's default threads
# (medians of 15 interleaved runs on one 2-CPU Linux x86-64 host). Both
# entry points, `python -m permlab` and the `permlab` script, import this
# package before numpy. An explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .core import DenseMatrix, DistributionSpec, ModelSpec
from .experiments import TrialBatch, estimate_moments, run_trial, summary_row, write_csv
from .model import TrialSeed, sample_constrained_matrix, trial_rng
from .moments import brute_second_moment_pairs, exact_moments_enumerate, moment_report
from .permanent import per_naive, per_ryser, per_scaled
from .verify import cross_check_suite

__version__ = "0.1.0"

__all__ = [
    "DenseMatrix",
    "DistributionSpec",
    "ModelSpec",
    "TrialBatch",
    "TrialSeed",
    "brute_second_moment_pairs",
    "cross_check_suite",
    "estimate_moments",
    "exact_moments_enumerate",
    "moment_report",
    "per_naive",
    "per_ryser",
    "per_scaled",
    "run_trial",
    "sample_constrained_matrix",
    "summary_row",
    "trial_rng",
    "write_csv",
]
