"""Kernel accuracy above n = 10, against a column-subset dynamic programme.

The oracle places rows one at a time: after rows 0..k-1, ``f[S]`` is the
permanent of those rows on the columns in S, and row k extends each S by one
of its nonzero columns. Every step adds nonnegative terms, so nothing
cancels. For 0-1 matrices it counts in int64, which is exact for n <= 20
because every intermediate value is a subpermanent of at most 20! < 2^63;
for weighted matrices it runs in float64 with a relative error of about
n u (u the unit roundoff).
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from permlab.core import DenseMatrix, DistributionSpec, ModelSpec
from permlab.experiments import estimate_moments, run_trial
from permlab.model import TrialSeed, sample_constrained_matrix
from permlab.permanent import _glynn_pass, per_ryser, per_scaled

INT_EXACT_MAX_N = 20


def subset_dp_permanent(a: np.ndarray, dtype) -> np.ndarray:
    n = a.shape[0]
    f = np.zeros(1 << n, dtype=dtype)
    f[0] = 1
    for i in range(n):
        g = np.zeros_like(f)
        for j in np.flatnonzero(a[i]):
            # subsets containing column j, shaped (high bits, low bits)
            # against the same subsets without it
            with_j = g.reshape(-1, 2, 1 << j)[:, 1, :]
            with_j += f.reshape(-1, 2, 1 << j)[:, 0, :] * dtype(a[i, j])
        f = g
    return f[-1]


def exact_per01(x: np.ndarray) -> int:
    """Exact permanent of a 0-1 matrix with n <= 20, as a Python int."""
    assert np.all((x == 0) | (x == 1)) and x.shape[0] <= INT_EXACT_MAX_N
    return int(subset_dp_permanent(x, np.int64))


def per_float(a: np.ndarray) -> float:
    """Cancellation-free float64 permanent of a nonnegative matrix."""
    return float(subset_dp_permanent(a, np.float64))


def random_01(rng, n, r):
    x = np.zeros((n, n))
    for i in range(n):
        x[i, rng.choice(n, size=r, replace=False)] = 1.0
    return x


class TestOracle:
    def test_all_ones_is_factorial(self):
        for n in (1, 4, 12, 20):
            assert exact_per01(np.ones((n, n))) == math.factorial(n)

    def test_float_matches_int_on_01(self):
        x = random_01(np.random.default_rng(3), 14, 7)
        assert per_float(x) == float(exact_per01(x))


@pytest.mark.parametrize("n", [12, 13, 16, 20])
@pytest.mark.parametrize("r_of_n", [lambda n: 3, lambda n: n // 2], ids=["r3", "rhalf"])
def test_per_ryser_exact_on_01(n, r_of_n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(2):
        x = random_01(rng, n, r_of_n(n))
        exact = exact_per01(x)
        v = per_ryser(DenseMatrix(x))
        if exact == 0:
            assert v.is_zero
            continue
        # the count is recovered exactly, and to within a few ulps of its double
        assert round(v.to_float()) == exact
        assert abs(v.to_float() - exact) <= 1e-14 * exact


@functools.cache
def trial_panel(n: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Six exp:1 trial matrices at r = ceil(n^0.75) (TrialSeed(2024, 0..5)),
    r, and the DP permanents of the matrices with their rows divided by r."""
    r = math.ceil(n ** 0.75)
    spec = ModelSpec(n, (r,) * n, DistributionSpec.from_string("exp:1"))
    y = np.stack([sample_constrained_matrix(spec, TrialSeed(2024, i))[1].entries for i in range(6)])
    return y, r, np.array([per_float(a) for a in y / r])


@pytest.mark.parametrize("n", [16, 18, 20])
def test_per_scaled_relative_error_on_trial_matrices(n):
    y, r, refs = trial_panel(n)
    scales = np.full(n, float(r))
    worst = 0.0
    for entries, ref in zip(y[:3], refs[:3]):
        v = per_scaled(DenseMatrix(entries), scales)
        log_rel = v.log_mag - float(np.log(scales).sum()) - math.log(ref)
        worst = max(worst, abs(math.expm1(log_rel)))
    assert worst <= 1e-12


@pytest.mark.parametrize("r_of_n", [lambda n: 3, lambda n: n // 2], ids=["r3", "rhalf"])
def test_per_ryser_exact_on_01_in_groups(r_of_n):
    # at n = 18 the r = n/2 matrices here miss the 1e-14 above by a little
    # (2.0e-14), so the count is held to the pass's own rounding bound
    n = 18
    rng = np.random.default_rng(1000 + n)
    for _ in range(2):
        x = random_01(rng, n, r_of_n(n))
        exact = exact_per01(x)
        v = per_ryser(DenseMatrix(x))
        assert round(v.to_float()) == exact
        assert abs(v.to_float() - exact) <= _glynn_pass(x[None])[1][0]


@pytest.mark.parametrize("n,r", [(6, 4), (8, 4), (8, 8), (12, 4), (12, 8), (16, 4), (16, 8)])
def test_trial_ratio_within_an_ulp_under_const1(n, r):
    # under const:1 the pass divides 0-1 rows by a power of two, so T/mu =
    # per(X) n^n / (r^n n!) is held to within an ulp of its rounded value,
    # batch and single trial alike (a log and an exp took up to 38 ulps here)
    spec = ModelSpec.homogeneous(n, r, DistributionSpec("const", (1.0,)))
    trials, seed = 24, 31
    batch = estimate_moments(spec, trials, seed, workers=1).ratios
    for i in range(trials):
        x = sample_constrained_matrix(spec, TrialSeed(seed, i))[0].entries
        want = float(Fraction(exact_per01(x) * n**n, r**n * math.factorial(n)))
        for got in (batch[i], run_trial(spec, TrialSeed(seed, i))):
            assert abs(got - want) <= math.ulp(want), (i, got, want)


@pytest.mark.parametrize("n", [12, 13, 14, 17, 18, 20])
def test_glynn_pass_within_its_error_bound(n):
    # the one-table pass (n = 12), the smallest grouped n (13, whose last
    # group has two padding members) and larger ones
    r = math.ceil(n ** 0.75)
    spec = ModelSpec(n, (r,) * n, DistributionSpec.from_string("exp:1"))
    a = np.stack([sample_constrained_matrix(spec, TrialSeed(77, i))[1].entries / r for i in range(2)])
    values, errs = _glynn_pass(a)
    refs = np.array([per_float(y) for y in a])
    assert np.all(np.abs(values - refs) <= errs), (values, refs, errs)


# The kernel accuracy README cites at n = 13-20: the worst relative error of
# the pass value on trial_panel(n), rounded up over the five OpenBLAS cores
# whose pins tests/test_golden.py records (SkylakeX, Haswell, Sandybridge,
# Nehalem and Katmai, selected by OPENBLAS_CORETYPE). per_scaled's log adds a
# few ulps of |log per| to these.
PASS_ERROR_CEILINGS = {13: 2e-14, 14: 1e-14, 15: 4e-14, 16: 1e-13,
                       17: 5e-14, 18: 1e-13, 19: 1e-13, 20: 1e-13}


@pytest.mark.parametrize("n", sorted(PASS_ERROR_CEILINGS))
def test_glynn_pass_accuracy_table(n):
    y, r, refs = trial_panel(n)
    values = _glynn_pass(y / r)[0]
    assert np.max(np.abs(values - refs) / refs) <= PASS_ERROR_CEILINGS[n]
