"""Kernel accuracy above n = 10, against the column-subset dynamic programme
of ``permanent_reference``: exact in int64 for 0-1 matrices with n <= 20,
and cancellation-free in float64 for weighted ones.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from permanent_reference import exact_per01, per_float
from permlab.core import DenseMatrix, DistributionSpec, ModelSpec
from permlab.experiments import estimate_moments, run_trial
from permlab.model import TrialSeed, sample_constrained_matrix
from permlab.permanent import _glynn_pass, per_ryser, per_scaled


def random_01(rng, count, n, r):
    """A stack of count n x n 0-1 matrices, each row with r ones."""
    x = np.zeros((count, n, n))
    for k in range(count):
        for i in range(n):
            x[k, i, rng.choice(n, size=r, replace=False)] = 1.0
    return x


class TestOracle:
    def test_all_ones_is_factorial(self):
        for n in (1, 4, 12, 20):
            assert exact_per01(np.ones((1, n, n)))[0] == math.factorial(n)

    def test_float_matches_int_on_01(self):
        x = random_01(np.random.default_rng(3), 2, 14, 7)
        assert np.array_equal(per_float(x), exact_per01(x).astype(float))


@pytest.mark.parametrize("n", [12, 13, 16, 20])
@pytest.mark.parametrize("r_of_n", [lambda n: 3, lambda n: n // 2], ids=["r3", "rhalf"])
def test_per_ryser_exact_on_01(n, r_of_n):
    x = random_01(np.random.default_rng(1000 + n), 2, n, r_of_n(n))
    for a, exact in zip(x, exact_per01(x)):
        v = per_ryser(DenseMatrix(a))
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
    return y, r, per_float(y / r)


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
    x = random_01(np.random.default_rng(1000 + n), 2, n, r_of_n(n))
    for a, exact, err in zip(x, exact_per01(x), _glynn_pass(x)[1]):
        v = per_ryser(DenseMatrix(a))
        assert round(v.to_float()) == exact
        assert abs(v.to_float() - exact) <= err


@pytest.mark.parametrize("n,r", [(6, 4), (8, 4), (8, 8), (12, 4), (12, 8), (16, 4), (16, 8)])
def test_trial_ratio_within_an_ulp_under_const1(n, r):
    # under const:1 the pass divides 0-1 rows by a power of two, so T/mu =
    # per(X) n^n / (r^n n!) is held to within an ulp of its rounded value,
    # batch and single trial alike (a log and an exp took up to 38 ulps here)
    spec = ModelSpec.homogeneous(n, r, DistributionSpec("const", (1.0,)))
    trials, seed = 24, 31
    batch = estimate_moments(spec, trials, seed, workers=1).ratios
    x = np.stack([sample_constrained_matrix(spec, TrialSeed(seed, i))[0].entries
                  for i in range(trials)])
    for i, per in enumerate(exact_per01(x)):
        want = float(Fraction(int(per) * n**n, r**n * math.factorial(n)))
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
    refs = per_float(a)
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
