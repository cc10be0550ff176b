"""The paper's own form of the exact second-moment ratio, kept as a test
oracle independent of ``moment_report``:

    E T^2 / mu^2 = alpha * sum_{k=0}^{n} beta^k / k! * b_{n-k}

for equal row counts, with b_j = sum_{l<=j} (-1)^l / l! (j! b_j counts
derangements). The same series at (alpha_low, beta_low) and
(alpha_up, beta_up) brackets the ratio for mixed row counts.
"""

import math
from fractions import Fraction

import numpy as np

from permlab.core import DistributionSpec, DomainError, ModelSpec
from permlab.moments import alpha_beta

_B = [Fraction(1)]


def subfactorial_b(j: int) -> Fraction:
    """Exact b_j, built up iteratively so any j is reachable."""
    if j < 0:
        raise ValueError(f"j must be nonnegative, got {j}")
    while len(_B) <= j:
        k = len(_B)
        _B.append(_B[-1] + Fraction((-1) ** k, math.factorial(k)))
    return _B[j]


def second_moment_series(n: int, beta: float) -> float:
    """sum_{k=0}^{n} beta^k / k! * b_{n-k} with exact rational b_j, each
    term formed from its logarithm and the nonnegative terms summed exactly."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    log_beta = math.log(beta)
    terms = []
    for k in range(n + 1):
        b = subfactorial_b(n - k)
        if b == 0:
            continue
        terms.append(math.exp(k * log_beta - math.lgamma(k + 1)) * float(b))
    return math.fsum(terms)


def log_second_moment_series(n: int, beta: float) -> float:
    """log of the same series with float b_j from partial sums, for n far
    beyond where exact rationals are cheap."""
    b = np.cumsum(np.concatenate(([1.0], np.cumprod(-1.0 / np.arange(1, n + 1)))))
    k = np.arange(n + 1)
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    with np.errstate(divide="ignore"):
        terms = k * math.log(beta) - log_fact + np.log(b[n - k])
    top = terms.max()
    return top + math.log(np.exp(terms - top).sum())


def exact_second_moment_homogeneous(n: int, r: int, dist: DistributionSpec) -> float:
    """alpha * S(beta) on the homogeneous spec, where the upper and lower
    factors coincide and the bracket is an equality."""
    if r < 2:
        raise DomainError(f"closed-form ratio needs r >= 2, got r={r}")
    if n < 2:
        raise DomainError(f"closed-form ratio needs n >= 2, got n={n}")
    ab = alpha_beta(ModelSpec.homogeneous(n, r, dist))
    return ab.alpha_up.to_float() * second_moment_series(n, ab.beta_up)
